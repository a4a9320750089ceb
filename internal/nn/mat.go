// Package nn is a small, dependency-free neural-network library: dense
// matrices, multi-layer perceptrons with exact manual backpropagation,
// masked softmax/categorical utilities and the Adam optimiser. It exists
// because the paper's agent runs on PyTorch, for which Go has no equivalent
// (the repro gate); the networks involved are tiny MLPs, so exact gradients
// are hand-derived and verified against finite differences in the tests.
package nn

import "fmt"

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMat allocates a zeroed Rows x Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero clears all elements.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone deep-copies the matrix.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Mat) T() *Mat {
	t := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			t.Data[j*m.Rows+i] = v
		}
	}
	return t
}

// AddScaled accumulates a*o into m. Shapes must match.
func (m *Mat) AddScaled(o *Mat, a float64) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("nn: AddScaled shape mismatch")
	}
	for i, v := range o.Data {
		m.Data[i] += a * v
	}
}

// MulVec computes y = M*x (y has len Rows, x len Cols). With input-major
// weights this is the per-sample delta back-propagation through a layer.
func (m *Mat) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("nn: MulVec shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, w := range row {
			s += w * x[j]
		}
		y[i] = s
	}
}

// Live says which columns of one input row may be non-zero: the first Head
// and the last Tail. Every column between them counts as ±0.0 and is never
// read. The zero value means all columns (a dense row), as do counts that meet
// or pass the row width. Occupancy is data the producer of the row already has
// (core's observation builder knows how many job rows it filled); the layer-0
// kernels use it to walk only the columns a row occupies.
type Live struct{ Head, Tail int }

// addRows accumulates Σ_j x[j]·W.Row(j) into y, where w holds len(x)
// consecutive rows of an input-major weight matrix, len(y) wide: the forward
// of a linear layer for one sample, one axpy per input.
//
// Bit-identity contract: y[k] receives the products x[j]·w[j][k] in ascending
// j, one addition each — exactly the dot product the tests' plain-loop
// MulVecT accumulates. An x[j] that is ±0.0 is skipped, which is exact: y
// starts at +0.0, can never become -0.0, and adding w·(±0.0) to it is the
// identity for finite w (DESIGN.md §8 rule 4). A ReLU-dead input of the
// layers above 0 costs one compare that way.
func addRows(x, w, y []float64) {
	n := len(y)
	for j, a := range x {
		if a != 0 {
			axpy(a, w[j*n:(j+1)*n], y)
		}
	}
}

// addOuter accumulates x[j]·d into row j of g, the len(x) consecutive rows of
// an input-major gradient matrix, len(d) wide: one sample's weight gradient
// dW += input ⊗ gradOut, one axpy per input.
//
// Bit-identity contract: the caller feeds batch rows in ascending order, so
// every element of g sees its contributions one row at a time in that order,
// never pre-reduced — the result is bit-identical to the tests' plain-loop
// AddOuterScaled once per batch row, no matter how the caller splits batches.
// Skipping an x[j] that is ±0.0 is exact for a g that holds no -0.0
// (gradient storage starts at +0.0 and never reaches it).
func addOuter(x, d, g []float64) {
	n := len(d)
	for j, a := range x {
		if a != 0 {
			axpy(a, d, g[j*n:(j+1)*n])
		}
	}
}
