package nn

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestMatBasics(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 || m.Row(1)[2] != 5 {
		t.Fatal("Set/At/Row inconsistent")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone shares storage")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestMatMulVec(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	y := make([]float64, 2)
	m.MulVec([]float64{1, 1, 1}, y)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
	x := make([]float64, 3)
	m.MulVecT([]float64{1, 1}, x)
	if x[0] != 5 || x[1] != 7 || x[2] != 9 {
		t.Fatalf("MulVecT = %v", x)
	}
}

func TestMatAddOuterScaled(t *testing.T) {
	m := NewMat(2, 2)
	m.AddOuterScaled([]float64{1, 2}, []float64{3, 4}, 2)
	want := []float64{6, 8, 12, 16}
	for i, v := range want {
		if m.Data[i] != v {
			t.Fatalf("AddOuterScaled = %v, want %v", m.Data, want)
		}
	}
}

func TestNewMLPShapes(t *testing.T) {
	rng := stats.NewRNG(1)
	m := NewMLP([]int{5, 8, 3}, ReLU, rng)
	if m.Layers() != 2 {
		t.Fatalf("Layers = %d", m.Layers())
	}
	if m.NumParams() != 5*8+8+8*3+3 {
		t.Fatalf("NumParams = %d", m.NumParams())
	}
	cache := NewCache(m)
	out := m.Forward([]float64{1, 2, 3, 4, 5}, cache)
	if len(out) != 3 {
		t.Fatalf("output size %d", len(out))
	}
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite output %v", out)
		}
	}
}

func TestMLPPanicsOnBadShapes(t *testing.T) {
	rng := stats.NewRNG(1)
	for _, sizes := range [][]int{{3}, {3, 0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewMLP(%v) did not panic", sizes)
				}
			}()
			NewMLP(sizes, ReLU, rng)
		}()
	}
	m := NewMLP([]int{3, 2}, ReLU, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("Forward with wrong input size did not panic")
		}
	}()
	m.Forward([]float64{1}, NewCache(m))
}

// numericalGrad computes dLoss/dparam by central differences for every
// parameter of the network.
func numericalGrad(m *MLP, x []float64, loss func(out []float64) float64) *Grads {
	const h = 1e-6
	g := NewGrads(m)
	cache := NewCache(m)
	eval := func() float64 {
		out := m.Forward(x, cache)
		return loss(out)
	}
	for l := range m.W {
		for i := range m.W[l].Data {
			orig := m.W[l].Data[i]
			m.W[l].Data[i] = orig + h
			fp := eval()
			m.W[l].Data[i] = orig - h
			fm := eval()
			m.W[l].Data[i] = orig
			g.W[l].Data[i] = (fp - fm) / (2 * h)
		}
		for i := range m.B[l] {
			orig := m.B[l][i]
			m.B[l][i] = orig + h
			fp := eval()
			m.B[l][i] = orig - h
			fm := eval()
			m.B[l][i] = orig
			g.B[l][i] = (fp - fm) / (2 * h)
		}
	}
	return g
}

func gradsClose(a, b *Grads, tol float64) (bool, float64) {
	worst := 0.0
	for l := range a.W {
		for i := range a.W[l].Data {
			d := math.Abs(a.W[l].Data[i] - b.W[l].Data[i])
			scale := math.Max(1, math.Abs(b.W[l].Data[i]))
			if d/scale > worst {
				worst = d / scale
			}
		}
		for i := range a.B[l] {
			d := math.Abs(a.B[l][i] - b.B[l][i])
			scale := math.Max(1, math.Abs(b.B[l][i]))
			if d/scale > worst {
				worst = d / scale
			}
		}
	}
	return worst < tol, worst
}

func TestBackwardMatchesFiniteDifferences(t *testing.T) {
	for _, act := range []Activation{ReLU, Tanh, Identity} {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := stats.NewRNG(seed)
			m := NewMLP([]int{4, 7, 5, 2}, act, rng)
			x := make([]float64, 4)
			for i := range x {
				x[i] = rng.Normal(0, 1)
			}
			// loss = 0.5*sum(out^2): dLoss/dout = out
			loss := func(out []float64) float64 {
				s := 0.0
				for _, v := range out {
					s += 0.5 * v * v
				}
				return s
			}
			cache := NewCache(m)
			out := m.Forward(x, cache)
			analytic := NewGrads(m)
			gradOut := append([]float64(nil), out...)
			m.Backward(cache, gradOut, analytic)
			numeric := numericalGrad(m, x, loss)
			if ok, worst := gradsClose(analytic, numeric, 1e-4); !ok {
				t.Fatalf("act=%s seed=%d: max relative gradient error %v", act, seed, worst)
			}
		}
	}
}

func TestBackwardInputGradient(t *testing.T) {
	rng := stats.NewRNG(4)
	m := NewMLP([]int{3, 6, 2}, Tanh, rng)
	x := []float64{0.3, -0.7, 1.2}
	cache := NewCache(m)
	out := m.Forward(x, cache)
	g := NewGrads(m)
	gradIn := m.Backward(cache, append([]float64(nil), out...), g)

	// numerically check dLoss/dx
	const h = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		outP := m.Forward(x, cache)
		lp := 0.5 * (outP[0]*outP[0] + outP[1]*outP[1])
		x[i] = orig - h
		outM := m.Forward(x, cache)
		lm := 0.5 * (outM[0]*outM[0] + outM[1]*outM[1])
		x[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-gradIn[i]) > 1e-4*math.Max(1, math.Abs(num)) {
			t.Fatalf("input gradient %d: analytic %v vs numeric %v", i, gradIn[i], num)
		}
	}
}

func TestGradsAddScaleZero(t *testing.T) {
	rng := stats.NewRNG(8)
	m := NewMLP([]int{2, 3, 1}, ReLU, rng)
	a, b := NewGrads(m), NewGrads(m)
	a.W[0].Set(0, 0, 2)
	b.W[0].Set(0, 0, 3)
	a.Add(b)
	if a.W[0].At(0, 0) != 5 {
		t.Fatalf("Add: %v", a.W[0].At(0, 0))
	}
	a.Scale(0.5)
	if a.W[0].At(0, 0) != 2.5 {
		t.Fatalf("Scale: %v", a.W[0].At(0, 0))
	}
	a.Zero()
	if a.W[0].At(0, 0) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestAdamMinimizesQuadratic(t *testing.T) {
	// Minimise ||out(x0)||^2 for a fixed input; Adam should drive the output
	// toward zero.
	rng := stats.NewRNG(6)
	m := NewMLP([]int{3, 8, 2}, Tanh, rng)
	opt := NewAdam(m, 1e-2)
	x := []float64{1, -1, 0.5}
	cache := NewCache(m)
	g := NewGrads(m)
	lossAt := func() float64 {
		out := m.Forward(x, cache)
		return 0.5 * (out[0]*out[0] + out[1]*out[1])
	}
	initial := lossAt()
	for it := 0; it < 500; it++ {
		out := m.Forward(x, cache)
		g.Zero()
		m.Backward(cache, append([]float64(nil), out...), g)
		opt.Step(m, g)
	}
	final := lossAt()
	if final > initial*0.01 {
		t.Fatalf("Adam failed to minimise: %v -> %v", initial, final)
	}
}

func TestMaskedSoftmax(t *testing.T) {
	scores := []float64{1, 2, 3, 100}
	mask := []bool{true, true, true, false}
	p := MaskedSoftmax(scores, mask)
	if p[3] != 0 {
		t.Fatal("masked entry has probability")
	}
	sum := p[0] + p[1] + p[2]
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Fatalf("softmax not monotone: %v", p)
	}
}

func TestMaskedSoftmaxNumericalStability(t *testing.T) {
	p := MaskedSoftmax([]float64{1e4, 1e4 - 1}, []bool{true, true})
	if math.IsNaN(p[0]) || p[0] <= p[1] {
		t.Fatalf("unstable softmax: %v", p)
	}
}

func TestMaskedSoftmaxPanicsOnEmptyMask(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty mask did not panic")
		}
	}()
	MaskedSoftmax([]float64{1, 2}, []bool{false, false})
}

func TestSampleCategoricalRespectssMask(t *testing.T) {
	rng := stats.NewRNG(3)
	p := MaskedSoftmax([]float64{5, 1, 3}, []bool{true, false, true})
	for i := 0; i < 2000; i++ {
		if a := SampleCategorical(p, rng); a == 1 {
			t.Fatal("sampled a masked action")
		}
	}
}

func TestSampleCategoricalFrequencies(t *testing.T) {
	rng := stats.NewRNG(5)
	probs := []float64{0.2, 0.5, 0.3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[SampleCategorical(probs, rng)]++
	}
	for i, p := range probs {
		got := float64(counts[i]) / n
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("action %d frequency %v, want %v", i, got, p)
		}
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{0.1, 0.7, 0.2}) != 1 {
		t.Fatal("Argmax wrong")
	}
}

func TestEntropyUniformIsMax(t *testing.T) {
	u := Entropy([]float64{0.25, 0.25, 0.25, 0.25})
	if math.Abs(u-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform entropy %v, want ln4", u)
	}
	if Entropy([]float64{1, 0, 0, 0}) != 0 {
		t.Fatal("deterministic entropy not 0")
	}
}

// Property: SoftmaxLogProbGrad matches finite differences of log p[a] with
// respect to the scores.
func TestSoftmaxLogProbGradNumeric(t *testing.T) {
	rng := stats.NewRNG(10)
	f := func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed))
		n := r.Intn(6) + 2
		scores := make([]float64, n)
		mask := make([]bool, n)
		nValid := 0
		for i := range scores {
			scores[i] = r.Normal(0, 2)
			mask[i] = r.Bool(0.7)
			if mask[i] {
				nValid++
			}
		}
		if nValid == 0 {
			mask[0] = true
			nValid = 1
		}
		// pick a valid action
		a := -1
		for i, m := range mask {
			if m {
				a = i
				break
			}
		}
		probs := MaskedSoftmax(scores, mask)
		grad := make([]float64, n)
		SoftmaxLogProbGrad(probs, mask, a, grad)
		const h = 1e-6
		for i := range scores {
			if !mask[i] {
				if grad[i] != 0 {
					return false
				}
				continue
			}
			orig := scores[i]
			scores[i] = orig + h
			lp := LogProb(MaskedSoftmax(scores, mask), a)
			scores[i] = orig - h
			lm := LogProb(MaskedSoftmax(scores, mask), a)
			scores[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-grad[i]) > 1e-4 {
				return false
			}
		}
		return true
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxEntropyGradNumeric(t *testing.T) {
	scores := []float64{0.5, -1.2, 2.0, 0.1}
	mask := []bool{true, true, false, true}
	probs := MaskedSoftmax(scores, mask)
	grad := make([]float64, 4)
	SoftmaxEntropyGrad(probs, mask, grad)
	const h = 1e-6
	for i := range scores {
		if !mask[i] {
			continue
		}
		orig := scores[i]
		scores[i] = orig + h
		hp := Entropy(MaskedSoftmax(scores, mask))
		scores[i] = orig - h
		hm := Entropy(MaskedSoftmax(scores, mask))
		scores[i] = orig
		num := (hp - hm) / (2 * h)
		if math.Abs(num-grad[i]) > 1e-4 {
			t.Fatalf("entropy grad %d: analytic %v vs numeric %v", i, grad[i], num)
		}
	}
}

func TestMLPSerializationRoundTrip(t *testing.T) {
	rng := stats.NewRNG(12)
	m := NewMLP([]int{4, 9, 3}, ReLU, rng)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMLP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, -0.5, 2, 0.7}
	a := append([]float64(nil), m.Forward(x, NewCache(m))...)
	b := loaded.Forward(x, NewCache(loaded))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loaded network differs at output %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLoadMLPRejectsGarbage(t *testing.T) {
	if _, err := LoadMLP(bytes.NewReader([]byte("{"))); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := LoadMLP(bytes.NewReader([]byte(`{"sizes":[2],"act":"relu","w":[],"b":[]}`))); err == nil {
		t.Fatal("single-layer network accepted")
	}
	if _, err := LoadMLP(bytes.NewReader([]byte(`{"sizes":[2,2],"act":"relu","w":[[1,2,3]],"b":[[0,0]]}`))); err == nil {
		t.Fatal("wrong weight shape accepted")
	}
}

// TestLoadMLPRejectsUnknownActivation checks that a model file naming an
// activation the forward pass cannot compute fails to load, instead of
// loading and panicking at its first forward.
func TestLoadMLPRejectsUnknownActivation(t *testing.T) {
	for _, act := range []string{"gelu", "", "ReLU"} {
		doc := `{"sizes":[2,2,1],"act":"` + act + `","w":[[1,2,3,4],[5,6]],"b":[[0,0],[0]]}`
		if _, err := LoadMLP(bytes.NewReader([]byte(doc))); err == nil || !strings.Contains(err.Error(), "activation") {
			t.Errorf("activation %q: err %v, want an unknown-activation error", act, err)
		}
	}
	for _, act := range []Activation{ReLU, Tanh, Identity} {
		doc := `{"sizes":[2,2,1],"act":"` + string(act) + `","w":[[1,2,3,4],[5,6]],"b":[[0,0],[0]]}`
		if _, err := LoadMLP(bytes.NewReader([]byte(doc))); err != nil {
			t.Errorf("activation %q: %v", act, err)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	rng := stats.NewRNG(13)
	m := NewMLP([]int{2, 3, 1}, Tanh, rng)
	c := m.Clone()
	c.W[0].Set(0, 0, 999)
	c.B[0][0] = 999
	if m.W[0].At(0, 0) == 999 || m.B[0][0] == 999 {
		t.Fatal("Clone shares parameter storage")
	}
}

// parentRecipe builds and trains the network of testdata/mlp_parent.json: the
// commit before weights went input-major ran exactly these calls to write it.
func parentRecipe() *MLP {
	r := stats.NewRNG(20)
	m := NewMLP([]int{6, 5, 4, 2}, ReLU, r)
	opt := NewAdam(m, 1e-2)
	const n = 7
	bc := NewBatchCache(m, n)
	g := NewGrads(m)
	gradOut := NewMat(n, 2)
	for step := 0; step < 5; step++ {
		in := bc.Input(n)
		for i := range in.Data[:n*6] {
			in.Data[i] = 0
			if !r.Bool(0.2) {
				in.Data[i] = r.Normal(0, 1)
			}
		}
		out := m.ForwardBatch(in, bc)
		for i, v := range out.Data[:n*2] {
			gradOut.Data[i] = v - r.Normal(0, 1)
		}
		g.Zero()
		m.BackwardBatch(bc, gradOut, g)
		g.Scale(1.0 / n)
		opt.Step(m, g)
	}
	return m
}

// TestParentModelFile pins the on-disk format across the layout change. The
// model file and the probe outputs under testdata were written by the parent
// commit (output-major weights in memory). Loading the file reproduces the
// recorded forward outputs bit for bit, per row and batched; saving it again
// yields the same bytes; and the recipe that produced it — NewMLP's draws,
// five batched Adam steps — still produces those bytes.
func TestParentModelFile(t *testing.T) {
	file, err := os.ReadFile("testdata/mlp_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadMLP(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	var probes []struct{ In, Out []string }
	raw, err := os.ReadFile("testdata/mlp_parent_probes.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &probes); err != nil {
		t.Fatal(err)
	}
	bits := func(hex []string) []float64 {
		out := make([]float64, len(hex))
		for i, h := range hex {
			u, err := strconv.ParseUint(h, 16, 64)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = math.Float64frombits(u)
		}
		return out
	}
	bc := NewBatchCache(m, len(probes))
	in := bc.Input(len(probes))
	for r, p := range probes {
		copy(in.Row(r), bits(p.In))
	}
	batch := m.ForwardBatch(in, bc)
	for r, p := range probes {
		row := m.Forward(bits(p.In), NewCache(m))
		for i, want := range bits(p.Out) {
			if math.Float64bits(row[i]) != math.Float64bits(want) || math.Float64bits(batch.At(r, i)) != math.Float64bits(want) {
				t.Fatalf("probe %d output %d: Forward %v, ForwardBatch %v, recorded %v", r, i, row[i], batch.At(r, i), want)
			}
		}
	}
	for what, net := range map[string]*MLP{"loaded": m, "rebuilt": parentRecipe()} {
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), file) {
			t.Fatalf("%s network saves as\n%s\nwant the parent commit's\n%s", what, buf.Bytes(), file)
		}
	}
}
