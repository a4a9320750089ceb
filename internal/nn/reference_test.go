package nn

import "fmt"

// The per-sample forward and backward below are the plain-loop reference the
// batched kernels (ForwardBatch, BackwardBatch, ScoreMasked) are compared
// against bit for bit. They add every product, zeros included, and never
// call axpy. Nothing outside the tests runs them.

// Cache stores the per-layer pre-activations and activations of one forward
// pass, and the backward pass's deltas. Each goroutine uses its own Cache.
type Cache struct {
	// X[0] is the input; X[l+1] the activation after layer l.
	X [][]float64
	// Z[l] is the pre-activation of layer l.
	Z [][]float64
	// D[l] is Backward's dLoss/dX[l].
	D [][]float64
}

// NewCache allocates a cache matching the network shape.
func NewCache(m *MLP) *Cache {
	c := &Cache{}
	c.X = append(c.X, make([]float64, m.Sizes[0]))
	c.D = append(c.D, make([]float64, m.Sizes[0]))
	for l := 0; l < m.Layers(); l++ {
		c.Z = append(c.Z, make([]float64, m.Sizes[l+1]))
		c.X = append(c.X, make([]float64, m.Sizes[l+1]))
		c.D = append(c.D, make([]float64, m.Sizes[l+1]))
	}
	return c
}

// Forward runs the network on x, recording intermediates in cache, and
// returns the output activation (a view into the cache; copy before reuse).
func (m *MLP) Forward(x []float64, cache *Cache) []float64 {
	if len(x) != m.Sizes[0] {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), m.Sizes[0]))
	}
	copy(cache.X[0], x)
	for l := 0; l < m.Layers(); l++ {
		m.W[l].MulVecT(cache.X[l], cache.Z[l])
		hidden := l < m.Layers()-1
		for i, z := range cache.Z[l] {
			z += m.B[l][i]
			cache.Z[l][i] = z
			if hidden && !(z > 0) {
				z = 0 // ReLU
			}
			cache.X[l+1][i] = z
		}
	}
	return cache.X[m.Layers()]
}

// Backward accumulates dLoss/dParams into g given the cache of the forward
// pass that produced the output and gradOut = dLoss/dOutput. It returns
// dLoss/dInput (a view into the cache; copy before reuse).
func (m *MLP) Backward(cache *Cache, gradOut []float64, g *Grads) []float64 {
	L := m.Layers()
	if len(gradOut) != m.Sizes[L] {
		panic(fmt.Sprintf("nn: gradOut size %d, want %d", len(gradOut), m.Sizes[L]))
	}
	copy(cache.D[L], gradOut)
	for l := L - 1; l >= 0; l-- {
		// delta through the activation: ReLU's 0 or 1 on the hidden layers
		d := cache.D[l+1]
		if l < L-1 {
			for i, z := range cache.Z[l] {
				if !(z > 0) {
					d[i] *= 0
				}
			}
		}
		// parameter gradients
		g.W[l].AddOuterScaled(cache.X[l], d, 1)
		for i, v := range d {
			g.B[l][i] += v
		}
		// propagate to the previous layer
		m.W[l].MulVec(d, cache.D[l])
	}
	return cache.D[0]
}

// MulVecT computes y = Mᵀ*x (x has len Rows, y len Cols): with input-major
// weights, the per-sample forward of a linear layer.
func (m *Mat) MulVecT(x, y []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic("nn: MulVecT shape mismatch")
	}
	for j := range y {
		y[j] = 0
	}
	for i, xi := range x {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			y[j] += w * xi
		}
	}
}

// AddOuterScaled accumulates a * x·yᵀ into m (x len Rows, y len Cols): with
// input-major gradients, the per-sample update dW += a * input ⊗ gradOut.
func (m *Mat) AddOuterScaled(x, y []float64, a float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic("nn: AddOuterScaled shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		xi := a * x[i]
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, yj := range y {
			row[j] += xi * yj
		}
	}
}
