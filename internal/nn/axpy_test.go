package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// refAxpy is the portable body written out again, so the test has a plain-Go
// reference whichever body the build selected.
func refAxpy(a float64, x, y []float64) {
	for i, v := range x[:len(y)] {
		y[i] += a * v
	}
}

// TestAxpyMatchesPortable pins the one vector primitive against the plain Go
// loop, bit for bit (NaN only as NaN: which NaN an operation returns is the
// one thing the two may differ in): every length 0-70, x and y starting at
// every offset 0-3 of a larger buffer so loads are unaligned, cells and a
// drawn from normals, ±0.0, denormals, ±Inf and NaN. x is one cell longer
// than y: a body that ran to len(x) would write past y, and the cells of y's
// buffer around the slice must not change.
func TestAxpyMatchesPortable(t *testing.T) {
	r := stats.NewRNG(2020)
	special := []float64{0, math.Copysign(0, -1), 5e-324, -3e-310, math.Inf(1), math.Inf(-1), math.NaN()}
	cell := func() float64 {
		if r.Bool(0.25) {
			return special[r.Intn(len(special))]
		}
		return r.Normal(0, 1)
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	const guard = 12345.678
	for n := 0; n <= 70; n++ {
		for xo := 0; xo < 4; xo++ {
			for yo := 0; yo < 4; yo++ {
				xbuf, ybuf := make([]float64, n+8), make([]float64, n+8)
				for i := range xbuf {
					xbuf[i], ybuf[i] = guard, guard
				}
				x, y := xbuf[xo:xo+n+1], ybuf[yo:yo+n]
				for i := range y {
					x[i], y[i] = cell(), cell()
				}
				a := cell()
				want := append([]float64(nil), ybuf...)
				refAxpy(a, x, want[yo:yo+n])
				axpy(a, x, y)
				for i := range ybuf {
					if !same(ybuf[i], want[i]) {
						t.Fatalf("n=%d x+%d y+%d a=%v: y buffer[%d] = %v, want %v", n, xo, yo, a, i, ybuf[i], want[i])
					}
				}
			}
		}
	}
}

// BenchmarkAxpy times the primitive at the widths the two networks give it:
// one feature row, the critic's first fan-out, a nine-row observation head
// and the critic's whole input.
func BenchmarkAxpy(b *testing.B) {
	for _, n := range []int{13, 64, 117, 1677} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			x, y := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i] = float64(i)
			}
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				axpy(1e-9, x, y)
			}
		})
	}
}
