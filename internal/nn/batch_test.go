package nn

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// randSizes draws a random MLP shape: input/output 1..12, 0..3 hidden layers.
func randSizes(r *stats.RNG) []int {
	sizes := []int{r.Intn(12) + 1}
	for h := r.Intn(4); h > 0; h-- {
		sizes = append(sizes, r.Intn(12)+1)
	}
	return append(sizes, r.Intn(12)+1)
}

// TestBatchedKernelDifferential pins the tentpole guarantee of the batched
// kernels: over fuzzed shapes, activations and batch sizes, ForwardBatch and
// BackwardBatch are bit-identical — outputs, parameter gradients AND input
// gradients — to running the per-row Forward/Backward loop in batch-row
// order. Inputs include exact zeros, which the kernels skip and the per-row
// reference adds.
func TestBatchedKernelDifferential(t *testing.T) {
	for _, act := range []Activation{ReLU, Tanh, Identity} {
		for seed := uint64(1); seed <= 25; seed++ {
			r := stats.NewRNG(seed*31 + uint64(len(act)))
			sizes := randSizes(r)
			m := NewMLP(sizes, act, r)
			n := r.Intn(17) + 1

			x := NewMat(n, sizes[0])
			gradOut := NewMat(n, sizes[len(sizes)-1])
			for i := range x.Data {
				if r.Bool(0.15) {
					continue // leave exact zeros in the batch
				}
				x.Data[i] = r.Normal(0, 1)
			}
			for i := range gradOut.Data {
				if r.Bool(0.25) {
					continue // zero gradient rows/elements must also match
				}
				gradOut.Data[i] = r.Normal(0, 1)
			}

			// sequential reference: per-row Forward/Backward in row order
			cache := NewCache(m)
			seqG := NewGrads(m)
			seqOut := NewMat(n, gradOut.Cols)
			seqIn := NewMat(n, sizes[0])
			for row := 0; row < n; row++ {
				out := m.Forward(x.Row(row), cache)
				copy(seqOut.Row(row), out)
				gin := m.Backward(cache, gradOut.Row(row), seqG)
				copy(seqIn.Row(row), gin)
			}

			// batched path, assembled in-place via Input
			bc := NewBatchCache(m, n+3) // capacity above n: reuse must not leak rows
			in := bc.Input(n)
			copy(in.Data[:n*in.Cols], x.Data)
			batchOut := m.ForwardBatch(in, bc)
			batchG := NewGrads(m)
			m.BackwardBatch(bc, gradOut, batchG)
			batchIn := bc.InputGrad(m)

			for i := range seqOut.Data {
				if batchOut.Data[i] != seqOut.Data[i] {
					t.Fatalf("act=%s seed=%d sizes=%v n=%d: output[%d] %v != %v",
						act, seed, sizes, n, i, batchOut.Data[i], seqOut.Data[i])
				}
			}
			for i := range seqIn.Data {
				if batchIn.Data[i] != seqIn.Data[i] {
					t.Fatalf("act=%s seed=%d sizes=%v n=%d: input grad[%d] %v != %v",
						act, seed, sizes, n, i, batchIn.Data[i], seqIn.Data[i])
				}
			}
			for l := range seqG.W {
				for i := range seqG.W[l].Data {
					if batchG.W[l].Data[i] != seqG.W[l].Data[i] {
						t.Fatalf("act=%s seed=%d sizes=%v n=%d: dW[%d][%d] %v != %v",
							act, seed, sizes, n, l, i, batchG.W[l].Data[i], seqG.W[l].Data[i])
					}
				}
				for i := range seqG.B[l] {
					if batchG.B[l][i] != seqG.B[l][i] {
						t.Fatalf("act=%s seed=%d sizes=%v n=%d: dB[%d][%d] %v != %v",
							act, seed, sizes, n, l, i, batchG.B[l][i], seqG.B[l][i])
					}
				}
			}
		}
	}
}

// compactRow returns the cells SetRow takes for a full-width row x with
// occupancy live: the first Head and the last Tail, or all of x when dense.
func compactRow(x []float64, live Live) []float64 {
	if live == (Live{}) {
		return x
	}
	return append(append([]float64(nil), x[:live.Head]...), x[len(x)-live.Tail:]...)
}

// TestSpanKernelDifferential pins the occupancy contract of the layer-0
// kernels: rows loaded with SetRow from their compact cells and an occupancy
// produce outputs, parameter gradients and (requested explicitly) input
// gradients bit-identical to the full-width per-row Forward/Backward loop.
// Each batch mixes occupancies, dense (zero Live) rows, exact zeros and -0.0
// inside live spans and -0.0 in the reference's dead cells. The reused input
// buffer is filled with NaN behind Input's back before every load, so a
// kernel that reads a cell the load did not write turns the result into NaN.
func TestSpanKernelDifferential(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, act := range []Activation{ReLU, Tanh, Identity} {
		for seed := uint64(1); seed <= 40; seed++ {
			r := stats.NewRNG(seed*53 + uint64(len(act)))
			sizes := randSizes(r)
			sizes[0] = r.Intn(40) + 1
			cols := sizes[0]
			m := NewMLP(sizes, act, r)
			bc := NewBatchCache(m, 20) // reused across rounds, capacity above n

			for round := 0; round < 3; round++ {
				n := r.Intn(17) + 1
				allDense := round == 2 && r.Bool(0.5)
				x := NewMat(n, cols)
				live := make([]Live, n)
				gradOut := NewMat(n, sizes[len(sizes)-1])
				for row := 0; row < n; row++ {
					l := Live{Head: r.Intn(cols + 1)}
					l.Tail = r.Intn(cols - l.Head + 1)
					if allDense || r.Bool(0.2) {
						l = Live{}
					}
					live[row] = l
					for j := 0; j < cols; j++ {
						inside := l == (Live{}) || j < l.Head || j >= cols-l.Tail
						switch {
						case !inside && r.Bool(0.3), inside && r.Bool(0.1):
							x.Set(row, j, negZero)
						case inside && !r.Bool(0.15): // else an exact +0.0
							x.Set(row, j, r.Normal(0, 1))
						}
					}
				}
				for i := range gradOut.Data {
					if !r.Bool(0.25) {
						gradOut.Data[i] = r.Normal(0, 1)
					}
				}

				cache := NewCache(m)
				seqG := NewGrads(m)
				seqOut := NewMat(n, gradOut.Cols)
				seqIn := NewMat(n, cols)
				for row := 0; row < n; row++ {
					copy(seqOut.Row(row), m.Forward(x.Row(row), cache))
					copy(seqIn.Row(row), m.Backward(cache, gradOut.Row(row), seqG))
				}

				for i := range bc.X[0].Data {
					bc.X[0].Data[i] = math.NaN()
				}
				in := bc.Input(n)
				for row := 0; row < n; row++ {
					bc.SetRow(row, compactRow(x.Row(row), live[row]), live[row])
				}
				out := m.ForwardBatch(in, bc)
				g := NewGrads(m)
				m.BackwardBatch(bc, gradOut, g)
				gin := bc.InputGrad(m)

				same := func(what string, got, want []float64) {
					t.Helper()
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("act=%s seed=%d round=%d sizes=%v n=%d live=%v: %s[%d] %v != %v",
								act, seed, round, sizes, n, live, what, i, got[i], want[i])
						}
					}
				}
				same("output", out.Data[:n*out.Cols], seqOut.Data)
				same("input grad", gin.Data[:n*cols], seqIn.Data)
				for l := range seqG.W {
					same("dW", g.W[l].Data, seqG.W[l].Data)
					same("dB", g.B[l], seqG.B[l])
				}
			}
		}
	}
}

// TestSetRowReuseProperty pins what a load may leave behind: over random
// sequences of compact loads into ONE reused cache — heads growing, shrinking
// and empty, with and without a tail, dense rows, batches of changing size —
// interleaved with dense writes through Input's matrix, ForwardBatch,
// BackwardBatch, the gradients they accumulate and InputGrad are bit-equal to
// a fresh zeroed cache given the same rows at full width. Before every load
// the reused input is NaN from end to end, so each row holds NaN everywhere
// outside its new Live: a kernel that read one cell outside a row's own span
// would turn the result into NaN.
func TestSetRowReuseProperty(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for seed := uint64(1); seed <= 30; seed++ {
		r := stats.NewRNG(seed * 97)
		cols := r.Intn(40) + 2
		sizes := []int{cols, r.Intn(8) + 1, r.Intn(3) + 1}
		m := NewMLP(sizes, ReLU, r)
		const capRows = 11
		reused := NewBatchCache(m, capRows)
		cell := func() float64 {
			switch {
			case r.Bool(0.1):
				return 0
			case r.Bool(0.1):
				return negZero
			}
			return r.Normal(0, 1)
		}

		for round := 0; round < 60; round++ {
			n := r.Intn(capRows) + 1
			fresh := NewBatchCache(m, capRows)
			want := fresh.Input(n)
			for i := range reused.X[0].Data {
				reused.X[0].Data[i] = math.NaN()
			}
			if r.Bool(0.2) { // the caller fills Input's matrix itself: every row dense
				in := reused.Input(n)
				for i := range want.Data[:n*cols] {
					want.Data[i] = cell()
					in.Data[i] = want.Data[i]
				}
			} else {
				reused.Resize(n)
				for row := 0; row < n; row++ {
					var live Live
					switch r.Intn(5) {
					case 0: // dense: the cells are the whole row
					case 1: // empty head
						live.Tail = r.Intn(cols) + 1
					case 2: // no tail
						live.Head = r.Intn(cols) + 1
					default:
						live.Head = r.Intn(cols + 1)
						live.Tail = r.Intn(cols - live.Head + 1)
						if live == (Live{}) {
							live.Head = 1
						}
					}
					full := want.Row(row)
					for j := range full {
						if live == (Live{}) || j < live.Head || j >= cols-live.Tail {
							full[j] = cell()
						}
					}
					reused.SetRow(row, compactRow(full, live), live)
				}
			}

			same := func(what string, got, want []float64) {
				t.Helper()
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("seed=%d round=%d n=%d cols=%d: %s[%d] %v != %v", seed, round, n, cols, what, i, got[i], want[i])
					}
				}
			}
			gradOut := NewMat(n, sizes[2])
			for i := range gradOut.Data {
				gradOut.Data[i] = r.Normal(0, 1)
			}
			got, exp := NewGrads(m), NewGrads(m)
			outGot := m.ForwardBatch(reused.X[0], reused)
			outExp := m.ForwardBatch(want, fresh)
			same("output", outGot.Data[:n*sizes[2]], outExp.Data[:n*sizes[2]])
			m.BackwardBatch(reused, gradOut, got)
			m.BackwardBatch(fresh, gradOut, exp)
			for l := range exp.W {
				same("dW", got.W[l].Data, exp.W[l].Data)
				same("dB", got.B[l], exp.B[l])
			}
			same("input grad", reused.InputGrad(m).Data[:n*cols], fresh.InputGrad(m).Data[:n*cols])
		}
	}
}

func TestSetRowRejectsWrongWidth(t *testing.T) {
	m := NewMLP([]int{5, 2}, ReLU, stats.NewRNG(9))
	bc := NewBatchCache(m, 2)
	bc.Input(1)
	defer func() {
		if recover() == nil {
			t.Fatal("SetRow with a 4-wide row into a 5-wide input did not panic")
		}
	}()
	bc.SetRow(0, make([]float64, 4), Live{})
}

// TestBatchedGradSplitInvariant pins the accumulation-order contract that
// lets callers block large batches: accumulating one 13-row BackwardBatch
// into g is bit-identical to accumulating the same rows as 4+4+4+1 blocks.
func TestBatchedGradSplitInvariant(t *testing.T) {
	r := stats.NewRNG(77)
	m := NewMLP([]int{6, 9, 3}, Tanh, r)
	const n = 13
	x := NewMat(n, 6)
	gradOut := NewMat(n, 3)
	for i := range x.Data {
		x.Data[i] = r.Normal(0, 1)
	}
	for i := range gradOut.Data {
		gradOut.Data[i] = r.Normal(0, 1)
	}

	bc := NewBatchCache(m, n)
	whole := NewGrads(m)
	in := bc.Input(n)
	copy(in.Data, x.Data)
	m.ForwardBatch(in, bc)
	m.BackwardBatch(bc, gradOut, whole)

	split := NewGrads(m)
	for lo := 0; lo < n; lo += 4 {
		hi := lo + 4
		if hi > n {
			hi = n
		}
		k := hi - lo
		in := bc.Input(k)
		copy(in.Data[:k*6], x.Data[lo*6:hi*6])
		m.ForwardBatch(in, bc)
		part := &Mat{Rows: k, Cols: 3, Data: gradOut.Data[lo*3 : hi*3]}
		m.BackwardBatch(bc, part, split)
	}
	for l := range whole.W {
		for i := range whole.W[l].Data {
			if whole.W[l].Data[i] != split.W[l].Data[i] {
				t.Fatalf("dW[%d][%d]: whole %v != split %v", l, i, whole.W[l].Data[i], split.W[l].Data[i])
			}
		}
		for i := range whole.B[l] {
			if whole.B[l][i] != split.B[l][i] {
				t.Fatalf("dB[%d][%d]: whole %v != split %v", l, i, whole.B[l][i], split.B[l][i])
			}
		}
	}
}

func TestMaskedSoftmaxIntoMatchesAllocating(t *testing.T) {
	r := stats.NewRNG(5)
	scores := make([]float64, 9)
	mask := make([]bool, 9)
	probs := make([]float64, 9)
	for trial := 0; trial < 50; trial++ {
		any := false
		for i := range scores {
			scores[i] = r.Normal(0, 3)
			mask[i] = r.Bool(0.6)
			any = any || mask[i]
			probs[i] = r.Float64() // stale scratch must be fully overwritten
		}
		if !any {
			mask[0] = true
		}
		want := MaskedSoftmax(scores, mask)
		got := MaskedSoftmaxInto(scores, mask, probs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: probs[%d] %v != %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestSoftmaxPolicyGradMatchesComposition pins the fused helper against the
// two-pass SoftmaxLogProbGrad + SoftmaxEntropyGrad composition it replaces,
// on the selectable rows that reach the backward pass.
func TestSoftmaxPolicyGradMatchesComposition(t *testing.T) {
	r := stats.NewRNG(8)
	const n = 7
	scores := make([]float64, n)
	mask := make([]bool, n)
	lg := make([]float64, n)
	eg := make([]float64, n)
	fused := make([]float64, n)
	for trial := 0; trial < 60; trial++ {
		a := -1
		for i := range scores {
			scores[i] = r.Normal(0, 2)
			mask[i] = r.Bool(0.7)
			if mask[i] && a < 0 {
				a = i
			}
		}
		if a < 0 {
			mask[0], a = true, 0
		}
		probs := MaskedSoftmax(scores, mask)
		dlogp := r.Normal(0, 1)
		for _, coef := range []float64{0, 0.01} {
			SoftmaxLogProbGrad(probs, mask, a, lg)
			SoftmaxEntropyGrad(probs, mask, eg)
			SoftmaxPolicyGrad(probs, mask, a, dlogp, coef, Entropy(probs), fused)
			for i := range probs {
				if !mask[i] {
					continue // masked rows never reach the backward pass
				}
				want := dlogp*lg[i] - coef*eg[i]
				if coef == 0 {
					want = lg[i] * dlogp
				}
				if fused[i] != want {
					t.Fatalf("trial %d coef=%v: grad[%d] %v != %v", trial, coef, i, fused[i], want)
				}
			}
		}
	}
}

// TestForwardBatchNoAllocs guards the batched forward hot path: with the
// cache assembled in place, a ForwardBatch costs zero allocations.
func TestForwardBatchNoAllocs(t *testing.T) {
	r := stats.NewRNG(3)
	m := NewMLP([]int{10, 32, 16, 8, 1}, ReLU, r)
	bc := NewBatchCache(m, 129)
	in := bc.Input(129)
	for i := range in.Data {
		in.Data[i] = r.Float64()
	}
	if avg := testing.AllocsPerRun(100, func() {
		m.ForwardBatch(in, bc)
	}); avg != 0 {
		t.Fatalf("ForwardBatch allocates %v per run, want 0", avg)
	}
}

func TestMaskedSoftmaxIntoNoAllocs(t *testing.T) {
	r := stats.NewRNG(4)
	scores := make([]float64, 129)
	mask := make([]bool, 129)
	probs := make([]float64, 129)
	for i := range scores {
		scores[i] = r.Normal(0, 1)
		mask[i] = i%3 != 0
	}
	if avg := testing.AllocsPerRun(100, func() {
		MaskedSoftmaxInto(scores, mask, probs)
	}); avg != 0 {
		t.Fatalf("MaskedSoftmaxInto allocates %v per run, want 0", avg)
	}
}

func TestBatchCacheRejectsOverCapacity(t *testing.T) {
	r := stats.NewRNG(6)
	m := NewMLP([]int{3, 2}, ReLU, r)
	bc := NewBatchCache(m, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Input beyond capacity did not panic")
		}
	}()
	bc.Input(5)
}
