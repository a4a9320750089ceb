//go:build !amd64 || purego

package nn

// axpy computes y[i] += a*x[i] for every i < len(y). x must be at least as
// long as y.
func axpy(a float64, x, y []float64) {
	for i, v := range x[:len(y)] {
		y[i] += a * v
	}
}
