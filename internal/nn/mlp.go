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
// Sizes[l+1] via W[l]*x + B[l] followed by Act (Identity on the final
// layer). Weights are read-only during Forward/Backward, so one MLP can be
// shared across goroutines that own their own Cache and Grads.
type MLP struct {
	Sizes []int
	Act   Activation
	W     []*Mat      // W[l] is Sizes[l+1] x Sizes[l]
	B     [][]float64 // B[l] has len Sizes[l+1]
}

// NewMLP builds an MLP with the given layer sizes (at least two entries:
// input and output) and hidden activation, initialised with He-uniform
// weights drawn from rng.
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
		w := NewMat(out, in)
		bound := math.Sqrt(6.0 / float64(in))
		for i := range w.Data {
			w.Data[i] = rng.Uniform(-bound, bound)
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

// Cache stores the per-layer pre-activations and activations of one forward
// pass, enabling an exact backward pass. Each goroutine uses its own Cache.
type Cache struct {
	// X[0] is the input; X[l+1] the activation after layer l.
	X [][]float64
	// Z[l] is the pre-activation of layer l.
	Z [][]float64
}

// NewCache allocates a cache matching the network shape.
func NewCache(m *MLP) *Cache {
	c := &Cache{}
	c.X = append(c.X, make([]float64, m.Sizes[0]))
	for l := 0; l < m.Layers(); l++ {
		c.Z = append(c.Z, make([]float64, m.Sizes[l+1]))
		c.X = append(c.X, make([]float64, m.Sizes[l+1]))
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
		m.W[l].MulVec(cache.X[l], cache.Z[l])
		act := m.Act
		if l == m.Layers()-1 {
			act = Identity
		}
		for i, z := range cache.Z[l] {
			cache.Z[l][i] = z + m.B[l][i]
			cache.X[l+1][i] = actForward(act, cache.Z[l][i])
		}
	}
	return cache.X[m.Layers()]
}

// BatchCache is the batched counterpart of Cache: per-layer activation,
// pre-activation and delta matrices with one row per batch sample, allocated
// once at a fixed row capacity and reused across calls (Input shrinks the
// logical row count without reallocating). Each goroutine uses its own
// BatchCache, like Cache.
//
// Input rows carry an occupancy (Live): rows written through the matrix
// Input returns are dense, rows loaded with SetRow have the occupancy given
// there, and layer 0 of ForwardBatch and BackwardBatch skips the columns no
// row of a kernel block occupies. Dense and sparse rows take the same kernel.
type BatchCache struct {
	// X[0] is the input batch; X[l+1] the activation batch after layer l.
	X []*Mat
	// Z[l] is the pre-activation batch of layer l.
	Z []*Mat
	// Delta[l] is the backward scratch for dLoss/dX[l]; Delta[0] (the input
	// gradient) exists only once InputGrad was asked for it.
	Delta []*Mat
	cap   int
	// live[r] is input row r's occupancy, and it is physical: every cell of
	// row r of X[0] outside its first Head and last Tail is +0.0, whether or
	// not the row is part of the current batch. Input and SetRow store literal
	// counts (a dense row is {Cols, 0}), so the zero value only ever marks a
	// row nothing was written to: the kernels read it as dense, SetRow as
	// having nothing to clear, and for an all-zero row both are right.
	live []Live
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

// liveAt returns the row occupancies the kernels of layer l see: the input's
// at layer 0, none (dense) above it.
func (c *BatchCache) liveAt(l int) []Live {
	if l == 0 {
		return c.live
	}
	return nil
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
// every one of the n rows counts as dense, for the kernels and for the next
// SetRow into it.
func (c *BatchCache) Input(n int) *Mat {
	c.Resize(n)
	dense := Live{Head: c.X[0].Cols}
	for r := range c.live[:n] {
		c.live[r] = dense
	}
	return c.X[0]
}

// SetRow loads input row r from its compact form: cells holds the row's
// first live.Head columns followed by its last live.Tail columns, and every
// column between them is zero. The zero Live means cells is the whole row.
//
// Head and tail are scattered into place, and only the cells the row's
// previous occupant left outside the new occupancy are cleared, so a load
// costs what the row occupies, not its width. A kernel block reads each of
// its rows across the union of the block's occupancies, wider than a short
// row's own; clearing against the recorded occupancy is what makes every cell
// under that union a true zero.
func (c *BatchCache) SetRow(r int, cells []float64, live Live) {
	w := c.X[0].Cols
	if live == (Live{}) {
		live.Head = w
	}
	if len(cells) != live.Head+live.Tail || len(cells) > w {
		panic(fmt.Sprintf("nn: input row of %d cells with occupancy %+v, width %d", len(cells), live, w))
	}
	row := c.X[0].Row(r)
	tail := w - live.Tail
	copy(row[:live.Head], cells)
	copy(row[tail:], cells[live.Head:])
	was := c.live[r]
	if hi := min(was.Head, tail); hi > live.Head {
		clear(row[live.Head:hi])
	}
	if lo := max(w-was.Tail, live.Head); lo < tail {
		clear(row[lo:tail])
	}
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
	m.W[0].MulMat(c.Delta[1], c.Delta[0])
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

// ForwardBatch runs the network on every row of x with one GEMM per layer,
// recording intermediates in cache, and returns the output batch (a view
// into the cache; copy before reuse). Row r of the result is bit-identical
// to Forward(x.Row(r)) — see MulMatT's contract. Pass cache.Input(n) itself
// (after filling it) to skip the input copy.
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
		m.W[l].MulMatT(cache.X[l], cache.Z[l], cache.liveAt(l))
		act := m.Act
		if l == L-1 {
			act = Identity
		}
		b := m.B[l]
		z, xo := cache.Z[l], cache.X[l+1]
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
// Forward loop over the selectable rows.
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
// skips the columns the input rows do not occupy (see BatchCache), and
// dLoss/dInput is not computed; cache.InputGrad finishes it on demand.
//
// Per element of g the batch rows accumulate in ascending order directly
// into the gradient storage, so the result is bit-identical to calling
// Backward once per row in order — at any batch split (see DESIGN.md §8).
func (m *MLP) BackwardBatch(cache *BatchCache, gradOut *Mat, g *Grads) {
	L := m.Layers()
	n := cache.X[0].Rows
	if gradOut.Cols != m.Sizes[L] || gradOut.Rows != n {
		panic(fmt.Sprintf("nn: batch gradOut %dx%d, want %dx%d", gradOut.Rows, gradOut.Cols, n, m.Sizes[L]))
	}
	cache.ensureDelta(m, n)
	copy(cache.Delta[L].Data[:n*gradOut.Cols], gradOut.Data[:n*gradOut.Cols])
	for l := L - 1; l >= 0; l-- {
		act := m.Act
		if l == L-1 {
			act = Identity
		}
		// delta through the activation (hoisted like ForwardBatch)
		d, z, xo := cache.Delta[l+1], cache.Z[l], cache.X[l+1]
		switch act {
		case ReLU:
			for r := 0; r < n; r++ {
				dr, zr := d.Row(r), z.Row(r)
				for i := range dr {
					if zr[i] <= 0 {
						dr[i] = 0
					}
				}
			}
		case Identity:
			// derivative 1: delta unchanged
		default:
			for r := 0; r < n; r++ {
				dr, zr, xr := d.Row(r), z.Row(r), xo.Row(r)
				for i := range dr {
					dr[i] *= actBackward(act, zr[i], xr[i])
				}
			}
		}
		// parameter gradients, batch rows in ascending order
		g.W[l].AddMatOuterScaled(d, cache.X[l], 1, cache.liveAt(l))
		gb := g.B[l]
		for r := 0; r < n; r++ {
			for i, v := range d.Row(r) {
				gb[i] += v
			}
		}
		if l > 0 { // propagate to the previous layer
			m.W[l].MulMat(d, cache.Delta[l])
		}
	}
}

// Grads accumulates parameter gradients for an MLP.
type Grads struct {
	W []*Mat
	B [][]float64
	// scratch buffers for Backward, sized per layer
	delta [][]float64
}

// NewGrads allocates zeroed gradients matching the network.
func NewGrads(m *MLP) *Grads {
	g := &Grads{}
	for l := range m.W {
		g.W = append(g.W, NewMat(m.W[l].Rows, m.W[l].Cols))
		g.B = append(g.B, make([]float64, len(m.B[l])))
	}
	for l := 0; l <= m.Layers(); l++ {
		g.delta = append(g.delta, make([]float64, m.Sizes[l]))
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

// Backward accumulates dLoss/dParams into g given the cache of the forward
// pass that produced the output and gradOut = dLoss/dOutput. It returns
// dLoss/dInput (a view into g's scratch space; copy before reuse).
func (m *MLP) Backward(cache *Cache, gradOut []float64, g *Grads) []float64 {
	L := m.Layers()
	if len(gradOut) != m.Sizes[L] {
		panic(fmt.Sprintf("nn: gradOut size %d, want %d", len(gradOut), m.Sizes[L]))
	}
	copy(g.delta[L], gradOut)
	for l := L - 1; l >= 0; l-- {
		act := m.Act
		if l == L-1 {
			act = Identity
		}
		// delta through the activation
		d := g.delta[l+1]
		for i := range d {
			d[i] *= actBackward(act, cache.Z[l][i], cache.X[l+1][i])
		}
		// parameter gradients
		g.W[l].AddOuterScaled(d, cache.X[l], 1)
		for i, v := range d {
			g.B[l][i] += v
		}
		// propagate to the previous layer
		m.W[l].MulVecT(d, g.delta[l])
	}
	return g.delta[0]
}
