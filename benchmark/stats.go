package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, which
// need not be sorted; 0 for an empty sample. Nearest rank never invents a
// value that was not observed, which matters for the tail percentiles.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), because that is the arithmetic the acceptance driver
// applies to ten runs; fewer than two values yield the value itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound in BENCHMARK.json is sized against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// worsening is the share of old by which new is worse (positive = worse),
// in the metric's own direction.
func worsening(old, new float64, better string) float64 {
	if old == 0 {
		return 0
	}
	d := (new - old) / math.Abs(old)
	if better == "higher" {
		d = -d
	}
	return d
}

// verdict classifies one old/new pair of samples under a bound, following
// the choosing-metrics rule: a regression needs the median to worsen past
// the bound; where either side's own spread exceeds the bound the pair is
// unresolved unless every new run beats every old run. (Either side: this
// host has minutes in which everything runs a third slower, and a set of
// runs that straddles one says nothing about the code.)
func verdict(old, new []float64, better string, bound float64) string {
	w := worsening(median(old), median(new), better)
	if spread(old) > bound || spread(new) > bound {
		if allBetter(old, new, better) {
			return "ok"
		}
		return "unresolved"
	}
	if w > bound {
		return "regression"
	}
	return "ok"
}

func allBetter(old, new []float64, better string) bool {
	if len(old) == 0 || len(new) == 0 {
		return false
	}
	lo, hi := minMax(old)
	nlo, nhi := minMax(new)
	if better == "higher" {
		return nlo > hi
	}
	return nhi < lo
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}
