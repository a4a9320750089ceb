package core

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/backfill"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// parentDecisionTimes are the clocks at which the recorded greedy scores were
// taken, each on allocFixture's decision: waits grow, and the head's
// reservation moves with now.
var parentDecisionTimes = []int64{1000, 4000, 90000}

// parentScores is what the agent makes of one decision: the kernel
// network's raw row scores (masked rows 0), their masked softmax and its
// argmax. The recorded ones are over the padded layout of the time, Rows()
// entries with the skip slot last.
type parentScores struct {
	Scores, Probs []float64
	Action        int
}

// greedyScores returns the decision's scores and the observation's skip slot.
func greedyScores(a *Agent, now int64) (parentScores, int) {
	_, st, head, queue, est, _ := allocFixture()
	st.now = now
	obs := BuildObservation(a.Obs, st, head, queue, est, backfill.ComputeReservation(st, head, est))
	probs := a.distribution(obs)
	return parentScores{slices.Clone(a.scores[:len(probs)]), slices.Clone(probs), nn.Argmax(probs)}, obs.Skip
}

// compactScores maps a decision recorded over the padded layout onto the
// observation's rows: the rows before the skip slot keep their index, and
// the padded skip slot (the last entry) moves to skip. It fails when a
// padding entry is not 0, since the compact layout has no row to carry it.
func compactScores(t *testing.T, w parentScores, skip int) parentScores {
	t.Helper()
	last := len(w.Scores) - 1
	for i := skip; i < last; i++ {
		if w.Scores[i] != 0 || w.Probs[i] != 0 {
			t.Fatalf("recorded padding row %d scores %v with probability %v", i, w.Scores[i], w.Probs[i])
		}
	}
	c := parentScores{
		Scores: append(slices.Clone(w.Scores[:skip]), w.Scores[last]),
		Probs:  append(slices.Clone(w.Probs[:skip]), w.Probs[last]),
		Action: w.Action,
	}
	if w.Action == last {
		c.Action = skip
	}
	return c
}

// TestParentModelFile pins the model file format across the removal of the
// observation config's scenario copy. The model file and its greedy scores
// under testdata were written by the commit before it, so the file carries an
// "Scn" key in "obs". It still loads, scores every decision bit for bit as
// recorded (the padded rows of the time mapped onto the observation's, see
// compactScores), and saves again as the same JSON less that one key.
func TestParentModelFile(t *testing.T) {
	file, err := os.ReadFile("testdata/agent_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/agent_parent_scores.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []parentScores
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	m, err := ReadModel(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Agent()
	if err != nil {
		t.Fatal(err)
	}
	same := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	}
	if len(want) != len(parentDecisionTimes) {
		t.Fatalf("%d recorded decisions, want %d", len(want), len(parentDecisionTimes))
	}
	for i, w := range want {
		if len(w.Scores) != a.Obs.Rows() || len(w.Probs) != a.Obs.Rows() {
			t.Fatalf("decision %d: %d scores and %d probabilities recorded, want %d", i, len(w.Scores), len(w.Probs), a.Obs.Rows())
		}
		got, skip := greedyScores(a, parentDecisionTimes[i])
		if w := compactScores(t, w, skip); !same(got.Scores, w.Scores) || !same(got.Probs, w.Probs) || got.Action != w.Action {
			t.Fatalf("decision %d: %+v, recorded %+v", i, got, w)
		}
	}

	var saved bytes.Buffer
	if err := m.Write(&saved); err != nil {
		t.Fatal(err)
	}
	var old, cur map[string]any
	if err := json.Unmarshal(file, &old); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(saved.Bytes(), &cur); err != nil {
		t.Fatal(err)
	}
	obs := old["obs"].(map[string]any)
	if _, ok := obs["Scn"]; !ok {
		t.Fatal("the parent's model file carries no Scn key")
	}
	delete(obs, "Scn")
	if !reflect.DeepEqual(old, cur) {
		t.Fatalf("the model saves as\n%s\nwant the parent's file less obs.Scn", saved.Bytes())
	}
}

// ageProbe runs the agent and keeps the largest featAge it encoded.
type ageProbe struct {
	*Agent
	maxAge float64
}

func (p *ageProbe) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	p.Agent.Backfill(st, head, queue)
	for i := range p.obs.Mask {
		p.maxAge = max(p.maxAge, p.obs.Row(i)[featAge])
	}
}

// TestAgentReadsEngineScenario replays an agent whose model file carries the
// zero scenario, as every trained model does, on an aging engine: featAge
// follows the engine's starvation bound once a job has waited, and stays 0
// on a classic engine.
func TestAgentReadsEngineScenario(t *testing.T) {
	m, err := LoadModelFile("testdata/agent_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, bound := range []float64{0, 2} {
		a, err := m.Agent()
		if err != nil {
			t.Fatal(err)
		}
		p := &ageProbe{Agent: a}
		scn := sched.Scenario{StarvationBound: bound}
		if _, err := sim.Run(trace.SyntheticSDSCSP2(300, 8), sim.Config{Policy: sched.FCFS{}, Scenario: scn, Backfiller: p}); err != nil {
			t.Fatal(err)
		}
		if aging := p.maxAge > 0; aging != scn.Aging() {
			t.Fatalf("starvation bound %v: largest featAge %v", bound, p.maxAge)
		}
	}
}
