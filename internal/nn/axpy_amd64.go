//go:build amd64 && !purego

package nn

// axpy computes y[i] += a*x[i] for every i < len(y), in SSE2 (the amd64
// baseline, so there is nothing to detect). x must be at least as long as y.
//
//go:noescape
func axpy(a float64, x, y []float64)
