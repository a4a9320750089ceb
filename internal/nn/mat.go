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

// AddScaled accumulates a*o into m. Shapes must match.
func (m *Mat) AddScaled(o *Mat, a float64) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("nn: AddScaled shape mismatch")
	}
	for i, v := range o.Data {
		m.Data[i] += a * v
	}
}

// MulVec computes y = M*x (y has len Rows, x len Cols).
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

// MulVecT computes y = Mᵀ*x (x has len Rows, y len Cols), used for gradient
// backpropagation through a linear layer.
func (m *Mat) MulVecT(x, y []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic("nn: MulVecT shape mismatch")
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			y[j] += w * xi
		}
	}
}

// Live says which columns of one input row may be non-zero: the first Head
// and the last Tail. Every column between them must hold ±0.0. The zero value
// means all columns (a dense row), as do counts that meet or pass the row
// width. Occupancy is data the producer of the row already has (core's
// observation builder knows how many job rows it filled); the layer-0 kernels
// use it to skip columns whose products are exact zeros.
type Live struct{ Head, Tail int }

// span is a half-open range of columns.
type span struct{ lo, hi int }

// liveSpans returns the union of the live columns of batch rows [lo, hi) as
// one or two ascending spans of a cols-wide input. nil live, a dense row, or
// a head and tail that meet give the single full-width span.
//
// A block's union is wider than a short row's own occupancy, so every row
// must really be zero outside its own Live across the whole union: writing
// only a row's live cells into a reused buffer is not enough unless what the
// buffer held beyond them is cleared too (BatchCache.SetRow keeps that record).
func liveSpans(live []Live, lo, hi, cols int) ([2]span, int) {
	full := [2]span{{0, cols}}
	if live == nil {
		return full, 1
	}
	var u Live
	for _, l := range live[lo:hi] {
		if l == (Live{}) {
			return full, 1
		}
		u.Head, u.Tail = max(u.Head, l.Head), max(u.Tail, l.Tail)
	}
	if u.Head+u.Tail >= cols {
		return full, 1
	}
	if u.Tail == 0 {
		return [2]span{{0, u.Head}}, 1
	}
	return [2]span{{0, u.Head}, {cols - u.Tail, cols}}, 2
}

// MulMatT computes Y = X·Mᵀ, i.e. Y.Row(r) = M*X.Row(r) for every batch row
// (X is batch x Cols, Y batch x Rows): the batched forward of a linear layer.
// live, when non-nil, gives the occupancy of each row of X (see Live).
//
// Bit-identity contract: every output element is a dot product accumulated
// over the input dimension in ascending index order — exactly MulVec's
// summation order — so MulMatT(X)[r] is bit-identical to MulVec(X.Row(r)).
// Columns outside the block's live spans are skipped, which is exact: the
// accumulator starts at +0.0, can never become -0.0, and adding w*(±0.0) to
// it is the identity for finite w (DESIGN.md §8 rule 4).
// The kernel is blocked over four batch rows that share one scan of each
// weight row: the four accumulators are independent dependency chains, which
// is where the speedup over row-at-a-time MulVec comes from (a single dot
// product is serial in its adds and therefore FP-latency-bound). A short last
// block repeats its final row, storing the same value more than once.
func (m *Mat) MulMatT(x, y *Mat, live []Live) {
	if x.Cols != m.Cols || y.Cols != m.Rows || x.Rows != y.Rows {
		panic("nn: MulMatT shape mismatch")
	}
	n, out, cols := x.Rows, m.Rows, m.Cols
	for r := 0; r < n; r += 4 {
		r1, r2, r3 := min(r+1, n-1), min(r+2, n-1), min(r+3, n-1)
		spans, ns := liveSpans(live, r, r3+1, cols)
		y0, y1, y2, y3 := y.Data[r*out:], y.Data[r1*out:], y.Data[r2*out:], y.Data[r3*out:]
		for si, sp := range spans[:ns] {
			a0 := x.Data[r*cols : (r+1)*cols][sp.lo:sp.hi]
			a1 := x.Data[r1*cols : (r1+1)*cols][sp.lo:sp.hi]
			a2 := x.Data[r2*cols : (r2+1)*cols][sp.lo:sp.hi]
			a3 := x.Data[r3*cols : (r3+1)*cols][sp.lo:sp.hi]
			for k := 0; k < out; k++ {
				var s0, s1, s2, s3 float64
				if si > 0 { // a later span resumes the sums the earlier one stored
					s0, s1, s2, s3 = y0[k], y1[k], y2[k], y3[k]
				}
				for j, w := range m.Data[k*cols : (k+1)*cols][sp.lo:sp.hi] {
					s0 += w * a0[j]
					s1 += w * a1[j]
					s2 += w * a2[j]
					s3 += w * a3[j]
				}
				y0[k], y1[k], y2[k], y3[k] = s0, s1, s2, s3
			}
		}
	}
}

// MulMat computes Y = D·M, i.e. Y.Row(r) = Mᵀ*D.Row(r) for every batch row
// (D is batch x Rows, Y batch x Cols): gradient backpropagation through a
// linear layer for a whole batch.
//
// Bit-identity contract: per output element the terms accumulate over M's row
// index in ascending order, matching MulVecT. MulVecT additionally skips
// zero coefficients; this kernel does not, which is still bit-identical for
// finite weights because an accumulator seeded with +0.0 can never become
// -0.0 under round-to-nearest, and adding w*(±0.0) to it is then the
// identity (see DESIGN.md §8).
func (m *Mat) MulMat(d, y *Mat) {
	if d.Cols != m.Rows || y.Cols != m.Cols || d.Rows != y.Rows {
		panic("nn: MulMat shape mismatch")
	}
	n := d.Rows
	r := 0
	for ; r+4 <= n; r += 4 {
		y0 := y.Data[r*y.Cols : (r+1)*y.Cols]
		y1 := y.Data[(r+1)*y.Cols : (r+2)*y.Cols]
		y2 := y.Data[(r+2)*y.Cols : (r+3)*y.Cols]
		y3 := y.Data[(r+3)*y.Cols : (r+4)*y.Cols]
		for j := range y0 {
			y0[j], y1[j], y2[j], y3[j] = 0, 0, 0, 0
		}
		for i := 0; i < m.Rows; i++ {
			d0 := d.Data[r*d.Cols+i]
			d1 := d.Data[(r+1)*d.Cols+i]
			d2 := d.Data[(r+2)*d.Cols+i]
			d3 := d.Data[(r+3)*d.Cols+i]
			if d0 == 0 && d1 == 0 && d2 == 0 && d3 == 0 {
				continue
			}
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			for j, w := range row {
				y0[j] += w * d0
				y1[j] += w * d1
				y2[j] += w * d2
				y3[j] += w * d3
			}
		}
	}
	for ; r < n; r++ {
		m.MulVecT(d.Row(r), y.Row(r))
	}
}

// AddMatOuterScaled accumulates a * Dᵀ·X into m row pair by row pair
// (D batch x Rows, X batch x Cols): the batched weight-gradient update
// dW += a * Σ_r gradOut_r ⊗ input_r. live, when non-nil, gives the occupancy
// of each row of X (see Live); columns outside a pair's live spans would only
// receive ±0.0 and are skipped, which is exact for an m that holds no -0.0
// (gradient storage starts at +0.0 and never reaches it).
//
// Bit-identity contract: per element of m the contributions are added one
// batch row at a time in ascending row order — never pre-reduced in a
// register — so the result is bit-identical to calling AddOuterScaled once
// per batch row, no matter how the caller splits batches.
func (m *Mat) AddMatOuterScaled(d, x *Mat, a float64, live []Live) {
	if d.Cols != m.Rows || x.Cols != m.Cols || d.Rows != x.Rows {
		panic("nn: AddMatOuterScaled shape mismatch")
	}
	n, cols := d.Rows, m.Cols
	for r := 0; r < n; r += 2 {
		pair := r+1 < n // an odd last row runs alone: its partner's coefficient is 0
		spans, ns := liveSpans(live, r, min(r+2, n), cols)
		for _, sp := range spans[:ns] {
			a0 := x.Data[r*cols : (r+1)*cols][sp.lo:sp.hi]
			a1 := a0
			if pair {
				a1 = x.Data[(r+1)*cols : (r+2)*cols][sp.lo:sp.hi]
			}
			for k := 0; k < m.Rows; k++ {
				d0, d1 := a*d.Data[r*d.Cols+k], 0.0
				if pair {
					d1 = a * d.Data[(r+1)*d.Cols+k]
				}
				row := m.Data[k*cols : (k+1)*cols][sp.lo:sp.hi]
				switch {
				case d0 != 0 && d1 != 0:
					// One load/store of row[j] for both contributions; the two
					// adds stay separate instructions in row order.
					for j := range row {
						v := row[j] + d0*a0[j]
						row[j] = v + d1*a1[j]
					}
				case d0 != 0:
					for j := range row {
						row[j] += d0 * a0[j]
					}
				case d1 != 0:
					for j := range row {
						row[j] += d1 * a1[j]
					}
				}
			}
		}
	}
}

// AddOuterScaled accumulates a * x·yᵀ into m (x len Rows, y len Cols): the
// weight-gradient update dW += a * gradOut ⊗ input.
func (m *Mat) AddOuterScaled(x, y []float64, a float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic("nn: AddOuterScaled shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		xi := a * x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, yj := range y {
			row[j] += xi * yj
		}
	}
}
