package nn

import (
	"math"

	"repro/internal/stats"
)

// MaskedSoftmax converts scores to a probability distribution over the
// entries whose mask is true; masked-out entries get probability 0. It
// panics if no entry is valid. The computation is max-shifted for numerical
// stability.
func MaskedSoftmax(scores []float64, mask []bool) []float64 {
	return MaskedSoftmaxInto(scores, mask, make([]float64, len(scores)))
}

// MaskedSoftmaxInto is MaskedSoftmax writing into caller-provided scratch
// (len == len(scores)), allocation-free on the per-decision hot path. It
// returns probs.
func MaskedSoftmaxInto(scores []float64, mask []bool, probs []float64) []float64 {
	if len(scores) != len(mask) {
		panic("nn: softmax scores/mask length mismatch")
	}
	if len(probs) != len(scores) {
		panic("nn: softmax scratch length mismatch")
	}
	maxV := math.Inf(-1)
	any := false
	for i, s := range scores {
		if mask[i] {
			any = true
			if s > maxV {
				maxV = s
			}
		}
	}
	if !any {
		panic("nn: softmax with empty mask")
	}
	var sum float64
	for i, s := range scores {
		if mask[i] {
			probs[i] = math.Exp(s - maxV)
			sum += probs[i]
		} else {
			probs[i] = 0
		}
	}
	for i := range probs {
		probs[i] /= sum
	}
	return probs
}

// LogProb returns log(probs[a]), floored to avoid -Inf from numerical
// underflow.
func LogProb(probs []float64, a int) float64 {
	p := probs[a]
	if p < 1e-300 {
		p = 1e-300
	}
	return math.Log(p)
}

// Entropy returns the Shannon entropy of the distribution (natural log).
func Entropy(probs []float64) float64 {
	h := 0.0
	for _, p := range probs {
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// SampleCategorical draws an index from the distribution using rng. Masked
// (zero-probability) entries are never selected.
func SampleCategorical(probs []float64, rng *stats.RNG) int {
	u := rng.Float64()
	acc := 0.0
	last := -1
	for i, p := range probs {
		if p <= 0 {
			continue
		}
		acc += p
		last = i
		if u < acc {
			return i
		}
	}
	// Floating-point slack: fall back to the last valid entry.
	if last < 0 {
		panic("nn: sampling from an all-zero distribution")
	}
	return last
}

// Argmax returns the index of the largest probability (first on ties) among
// valid entries.
func Argmax(probs []float64) int {
	best, bestV := -1, math.Inf(-1)
	for i, p := range probs {
		if p > bestV {
			best, bestV = i, p
		}
	}
	return best
}

// SoftmaxLogProbGrad computes d(log p[a])/d(scores[i]) for a masked softmax:
// delta(i==a) - p[i] on valid entries, 0 on masked ones. The result is
// written into grad (len == len(probs)).
func SoftmaxLogProbGrad(probs []float64, mask []bool, a int, grad []float64) {
	for i := range grad {
		if !mask[i] {
			grad[i] = 0
			continue
		}
		g := -probs[i]
		if i == a {
			g += 1
		}
		grad[i] = g
	}
}

// SoftmaxPolicyGrad fuses SoftmaxLogProbGrad and SoftmaxEntropyGrad into the
// PPO policy score gradient dlogp*d(log p[a])/ds - entropyCoef*dH/ds in a
// single scratch-free pass, writing into grad. h must be Entropy(probs),
// which the caller has already computed for its statistics; it is read only
// when entropyCoef is non-zero. It is bit-identical to the two-pass
// composition: each term is computed with the same expressions and combined
// in the same order.
func SoftmaxPolicyGrad(probs []float64, mask []bool, a int, dlogp, entropyCoef, h float64, grad []float64) {
	if entropyCoef == 0 {
		for i := range grad {
			if !mask[i] {
				grad[i] = 0
				continue
			}
			g := -probs[i]
			if i == a {
				g += 1
			}
			grad[i] = g * dlogp
		}
		return
	}
	for i := range grad {
		if !mask[i] {
			grad[i] = 0
			continue
		}
		g := -probs[i]
		if i == a {
			g += 1
		}
		var eg float64
		if probs[i] > 0 {
			eg = -probs[i] * (math.Log(probs[i]) + h)
		}
		grad[i] = dlogp*g - entropyCoef*eg
	}
}

// SoftmaxEntropyGrad computes dH/d(scores[i]) = -p[i]*(log p[i] + H) for a
// masked softmax, writing into grad.
func SoftmaxEntropyGrad(probs []float64, mask []bool, grad []float64) {
	h := Entropy(probs)
	for i := range grad {
		if !mask[i] || probs[i] <= 0 {
			grad[i] = 0
			continue
		}
		grad[i] = -probs[i] * (math.Log(probs[i]) + h)
	}
}
