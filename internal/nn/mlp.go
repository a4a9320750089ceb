package nn

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Activation names the supported nonlinearities.
type Activation string

const (
	// ReLU is max(0, x).
	ReLU Activation = "relu"
	// Tanh is the hyperbolic tangent.
	Tanh Activation = "tanh"
	// Identity is the linear activation (used for output layers).
	Identity Activation = "identity"
)

func actForward(a Activation, x float64) float64 {
	switch a {
	case ReLU:
		if x > 0 {
			return x
		}
		return 0
	case Tanh:
		return math.Tanh(x)
	case Identity:
		return x
	}
	panic(fmt.Sprintf("nn: unknown activation %q", a))
}

// actBackward returns d(act)/dx given the pre-activation x and the computed
// activation y.
func actBackward(a Activation, x, y float64) float64 {
	switch a {
	case ReLU:
		if x > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	case Identity:
		return 1
	}
	panic(fmt.Sprintf("nn: unknown activation %q", a))
}

// MLP is a fully connected feed-forward network. Layer l maps Sizes[l] to
// Sizes[l+1] via W[l]ᵀ*x + B[l] followed by Act (Identity on the final
// layer). Weights are input-major: row j of W[l] is input j's fan-out, so a
// layer's forward is a sum of weight rows scaled by the inputs (see addRows).
// Weights are read-only during ForwardBatch/BackwardBatch, so one MLP can be
// shared across goroutines that own their own BatchCache and Grads.
type MLP struct {
	Sizes []int
	Act   Activation
	W     []*Mat      // W[l] is Sizes[l] x Sizes[l+1]
	B     [][]float64 // B[l] has len Sizes[l+1]
}

// NewMLP builds an MLP with the given layer sizes (at least two entries:
// input and output) and hidden activation, initialised with He-uniform
// weights drawn from rng, one output's fan-in after another (the order the
// model file lists them in).
func NewMLP(sizes []int, act Activation, rng *stats.RNG) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	for _, s := range sizes {
		if s <= 0 {
			panic("nn: MLP layer sizes must be positive")
		}
	}
	m := &MLP{Sizes: append([]int(nil), sizes...), Act: act}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		w := NewMat(in, out)
		bound := math.Sqrt(6.0 / float64(in))
		for k := 0; k < out; k++ {
			for j := 0; j < in; j++ {
				w.Set(j, k, rng.Uniform(-bound, bound))
			}
		}
		m.W = append(m.W, w)
		m.B = append(m.B, make([]float64, out))
	}
	return m
}

// Layers returns the number of weight layers.
func (m *MLP) Layers() int { return len(m.W) }

// NumParams returns the total parameter count.
func (m *MLP) NumParams() int {
	n := 0
	for l := range m.W {
		n += len(m.W[l].Data) + len(m.B[l])
	}
	return n
}

// Clone deep-copies the network.
func (m *MLP) Clone() *MLP {
	c := &MLP{Sizes: append([]int(nil), m.Sizes...), Act: m.Act}
	for l := range m.W {
		c.W = append(c.W, m.W[l].Clone())
		c.B = append(c.B, append([]float64(nil), m.B[l]...))
	}
	return c
}

// BatchCache stores the intermediates of a batched forward pass, enabling an
// exact backward pass: per-layer activation, pre-activation and delta
// matrices with one row per batch sample, allocated once at a fixed row
// capacity and reused across calls (Input shrinks the logical row count
// without reallocating). Each goroutine uses its own BatchCache.
//
// Input rows carry an occupancy (Live): rows written through the matrix
// Input returns are dense, rows loaded with SetRow have the occupancy given
// there, and layer 0 of ForwardBatch and BackwardBatch walks, row by row, only
// the columns that row occupies. What a cache row holds outside its own
// occupancy is never read, so a load writes the live cells and nothing else.
type BatchCache struct {
	// X[0] is the input batch; X[l+1] the activation batch after layer l.
	X []*Mat
	// Z[l] is the pre-activation batch of layer l.
	Z []*Mat
	// Delta[l] is the backward scratch for dLoss/dX[l]; Delta[0] (the input
	// gradient) exists only once InputGrad was asked for it.
	Delta []*Mat
	cap   int
	live  []Live // live[r] is input row r's occupancy
}

// NewBatchCache allocates a batch cache for up to maxRows samples. The
// backward Delta matrices are allocated lazily on first BackwardBatch, so
// forward-only consumers (evaluation clones, the rollout scorer) pay half
// the memory.
func NewBatchCache(m *MLP, maxRows int) *BatchCache {
	if maxRows <= 0 {
		panic("nn: BatchCache needs a positive row capacity")
	}
	c := &BatchCache{cap: maxRows, live: make([]Live, maxRows)}
	for l := 0; l <= m.Layers(); l++ {
		c.X = append(c.X, NewMat(maxRows, m.Sizes[l]))
		if l < m.Layers() {
			c.Z = append(c.Z, NewMat(maxRows, m.Sizes[l+1]))
		}
	}
	return c
}

// span returns the columns of row r of layer l's input the kernels walk:
// [0, head) and [tail, cols). Only layer 0 has an occupancy; a dense row, or
// a head and tail that meet, is all head.
func (c *BatchCache) span(l, r int) (head, tail int) {
	cols := c.X[l].Cols
	if live := c.live[r]; l == 0 && live != (Live{}) && live.Head+live.Tail < cols {
		return live.Head, cols - live.Tail
	}
	return cols, cols
}

// Cap returns the row capacity.
func (c *BatchCache) Cap() int { return c.cap }

// Resize sets the logical batch size to n rows and leaves the rows as they
// are: the caller loads each of them with SetRow, then forwards X[0].
func (c *BatchCache) Resize(n int) {
	if n < 0 || n > c.cap {
		panic(fmt.Sprintf("nn: batch size %d outside cache capacity %d", n, c.cap))
	}
	for l := range c.X {
		c.X[l].Rows = n
		if l < len(c.Z) {
			c.Z[l].Rows = n
		}
	}
}

// Input sets the logical batch size to n rows and returns the input matrix
// for the caller to fill directly, so batches can be assembled without an
// extra copy in ForwardBatch. What the caller writes is not seen here, so
// every one of the n rows counts as dense.
func (c *BatchCache) Input(n int) *Mat {
	c.Resize(n)
	clear(c.live[:n])
	return c.X[0]
}

// SetRow loads input row r from its compact form: cells holds the row's
// first live.Head columns followed by its last live.Tail columns, and every
// column between them counts as zero. The zero Live means cells is the whole
// row. Head and tail are scattered into place and the occupancy recorded; the
// columns between them keep whatever they held, because no kernel reads them.
func (c *BatchCache) SetRow(r int, cells []float64, live Live) {
	w := c.X[0].Cols
	if live == (Live{}) {
		live.Head = w
	}
	if len(cells) != live.Head+live.Tail || len(cells) > w {
		panic(fmt.Sprintf("nn: input row of %d cells with occupancy %+v, width %d", len(cells), live, w))
	}
	row := c.X[0].Row(r)
	copy(row[:live.Head], cells)
	copy(row[w-live.Tail:], cells[live.Head:])
	c.live[r] = live
}

// InputGrad finishes and returns dLoss/dInput of the last BackwardBatch (a
// view into the cache; copy before reuse), one row per sample, bit-identical
// to what Backward returns row by row. BackwardBatch itself stops at layer 0's
// parameters: no training path reads the input gradient.
func (c *BatchCache) InputGrad(m *MLP) *Mat {
	if c.Delta[0] == nil {
		c.Delta[0] = NewMat(c.cap, m.Sizes[0])
	}
	c.Delta[0].Rows = c.Delta[1].Rows
	m.backprop(0, c)
	return c.Delta[0]
}

// ensureDelta allocates the backward scratch on first use and aligns its
// logical row count with the current batch.
func (c *BatchCache) ensureDelta(m *MLP, n int) {
	if c.Delta == nil {
		c.Delta = make([]*Mat, m.Layers()+1)
		for l := 1; l <= m.Layers(); l++ {
			c.Delta[l] = NewMat(c.cap, m.Sizes[l])
		}
	}
	for _, d := range c.Delta[1:] {
		d.Rows = n
	}
}

// ForwardBatch runs the network on every row of x, recording intermediates
// in cache, and returns the output batch (a view into the cache; copy before
// reuse). Row r of the result is bit-identical to the per-sample reference
// forward the tests keep — see addRows' contract. Pass cache.Input(n) itself (after filling it) to skip
// the input copy.
func (m *MLP) ForwardBatch(x *Mat, cache *BatchCache) *Mat {
	if x.Cols != m.Sizes[0] {
		panic(fmt.Sprintf("nn: batch input width %d, want %d", x.Cols, m.Sizes[0]))
	}
	if x != cache.X[0] {
		in := cache.Input(x.Rows)
		copy(in.Data[:x.Rows*x.Cols], x.Data[:x.Rows*x.Cols])
	} else if x.Rows != cache.Z[0].Rows {
		cache.Input(x.Rows) // realign layer matrices with a pre-filled input
	}
	L := m.Layers()
	for l := 0; l < L; l++ {
		w, b := m.W[l].Data, m.B[l]
		xi, z, xo := cache.X[l], cache.Z[l], cache.X[l+1]
		out := z.Cols
		for r := 0; r < z.Rows; r++ {
			xr, zr := xi.Row(r), z.Row(r)
			clear(zr)
			head, tail := cache.span(l, r)
			addRows(xr[:head], w[:head*out], zr)
			addRows(xr[tail:], w[tail*out:], zr)
		}
		act := m.Act
		if l == L-1 {
			act = Identity
		}
		// activation hoisted out of the element loop (actForward switches on
		// the activation name; per-element that dominates small layers)
		switch act {
		case ReLU:
			for r := 0; r < z.Rows; r++ {
				zr, xr := z.Row(r), xo.Row(r)
				for i, v := range zr {
					zv := v + b[i]
					zr[i] = zv
					if zv > 0 {
						xr[i] = zv
					} else {
						xr[i] = 0
					}
				}
			}
		case Identity:
			for r := 0; r < z.Rows; r++ {
				zr, xr := z.Row(r), xo.Row(r)
				for i, v := range zr {
					zv := v + b[i]
					zr[i] = zv
					xr[i] = zv
				}
			}
		default:
			for r := 0; r < z.Rows; r++ {
				zr, xr := z.Row(r), xo.Row(r)
				for i, v := range zr {
					zr[i] = v + b[i]
					xr[i] = actForward(act, zr[i])
				}
			}
		}
	}
	return cache.X[L]
}

// ScoreMasked scores every mask-selected row with one batched forward of a
// single-output network and returns the masked softmax over all rows plus
// the number of gathered rows. cells holds the rows back to back, Sizes[0]
// columns each, one per mask entry. This is the shared per-decision scoring
// protocol of the RL agent and the PPO policy update: gather the selectable
// rows into bc (whose forward cache the caller may then reuse for a
// BackwardBatch aligned with the gather order), scatter output 0 of each
// row into scores (masked rows score 0), softmax into probs. gather, scores
// and probs must have len(mask); the result is bit-identical to a per-row
// forward over the selectable rows.
func (m *MLP) ScoreMasked(cells []float64, mask []bool, bc *BatchCache,
	gather []int, scores, probs []float64) ([]float64, int) {
	w := m.Sizes[0]
	if len(cells) != len(mask)*w {
		panic(fmt.Sprintf("nn: %d cells for %d rows of width %d", len(cells), len(mask), w))
	}
	k := 0
	for i, ok := range mask {
		if ok {
			gather[k] = i
			k++
		}
	}
	in := bc.Input(k)
	for j, i := range gather[:k] {
		copy(in.Row(j), cells[i*w:(i+1)*w])
	}
	out := m.ForwardBatch(in, bc)
	for i := range scores {
		scores[i] = 0
	}
	for j := 0; j < k; j++ {
		scores[gather[j]] = out.At(j, 0)
	}
	return MaskedSoftmaxInto(scores, mask, probs), k
}

// BackwardBatch accumulates dLoss/dParams into g for a whole batch, given
// the cache of the ForwardBatch that produced the outputs and
// gradOut = dLoss/dOutput (one row per sample). Layer 0's weight gradient
// walks only the columns each input row occupies (see BatchCache), and
// dLoss/dInput is not computed; cache.InputGrad finishes it on demand.
//
// Per element of g the batch rows accumulate in ascending order directly
// into the gradient storage, so the result is bit-identical to the tests'
// per-sample reference backward run once per row in order — at any batch
// split (see DESIGN.md §8).
func (m *MLP) BackwardBatch(cache *BatchCache, gradOut *Mat, g *Grads) {
	L := m.Layers()
	n := cache.X[0].Rows
	if gradOut.Cols != m.Sizes[L] || gradOut.Rows != n {
		panic(fmt.Sprintf("nn: batch gradOut %dx%d, want %dx%d", gradOut.Rows, gradOut.Cols, n, m.Sizes[L]))
	}
	cache.ensureDelta(m, n)
	copy(cache.Delta[L].Data[:n*gradOut.Cols], gradOut.Data[:n*gradOut.Cols])
	for l := L - 1; l >= 0; l-- {
		d := cache.Delta[l+1] // dLoss/dZ[l]: the output layer is linear, backprop applies the rest
		// parameter gradients, batch rows in ascending order
		xi, gw, gb := cache.X[l], g.W[l].Data, g.B[l]
		out := d.Cols
		for r := 0; r < n; r++ {
			xr, dr := xi.Row(r), d.Row(r)
			head, tail := cache.span(l, r)
			addOuter(xr[:head], dr, gw[:head*out])
			addOuter(xr[tail:], dr, gw[tail*out:])
			for i, v := range dr {
				gb[i] += v
			}
		}
		if l > 0 {
			m.backprop(l, cache)
		}
	}
}

// backprop fills Delta[l] = dLoss/dZ[l-1] (for layer 0, which no activation
// feeds, dLoss/dInput) from Delta[l+1]: per input one dot product over its
// own weight row in ascending output order — MulVec's summation — times the
// activation's derivative. An input ReLU left dead gets its zero without the
// dot product.
func (m *MLP) backprop(l int, cache *BatchCache) {
	w, d, y := m.W[l], cache.Delta[l+1], cache.Delta[l]
	act := Identity
	if l > 0 {
		act = m.Act
	}
	for r := 0; r < d.Rows; r++ {
		dr, yr := d.Row(r), y.Row(r)
		switch act {
		case ReLU:
			for j, z := range cache.Z[l-1].Row(r) {
				s := 0.0
				if z > 0 {
					for k, wk := range w.Row(j) {
						s += wk * dr[k]
					}
				}
				yr[j] = s
			}
		case Identity:
			w.MulVec(dr, yr)
		default:
			w.MulVec(dr, yr)
			zr, xr := cache.Z[l-1].Row(r), cache.X[l].Row(r)
			for j := range yr {
				yr[j] *= actBackward(act, zr[j], xr[j])
			}
		}
	}
}

// Grads accumulates parameter gradients for an MLP.
type Grads struct {
	W []*Mat
	B [][]float64
}

// NewGrads allocates zeroed gradients matching the network.
func NewGrads(m *MLP) *Grads {
	g := &Grads{}
	for l := range m.W {
		g.W = append(g.W, NewMat(m.W[l].Rows, m.W[l].Cols))
		g.B = append(g.B, make([]float64, len(m.B[l])))
	}
	return g
}

// Zero clears the accumulated gradients.
func (g *Grads) Zero() {
	for l := range g.W {
		g.W[l].Zero()
		for i := range g.B[l] {
			g.B[l][i] = 0
		}
	}
}

// Add accumulates another gradient set (used to reduce per-worker grads).
func (g *Grads) Add(o *Grads) {
	for l := range g.W {
		g.W[l].AddScaled(o.W[l], 1)
		for i, v := range o.B[l] {
			g.B[l][i] += v
		}
	}
}

// Scale multiplies all gradients by f (e.g. 1/batchSize).
func (g *Grads) Scale(f float64) {
	for l := range g.W {
		for i := range g.W[l].Data {
			g.W[l].Data[i] *= f
		}
		for i := range g.B[l] {
			g.B[l][i] *= f
		}
	}
}
