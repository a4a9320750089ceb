package core

import (
	"strings"
	"testing"

	"repro/internal/backfill"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestEvaluateRejectsEmptyProtocol pins that both evaluators refuse a
// protocol with nothing to measure — no sequences, empty sequences or an
// empty trace — instead of panicking or reporting a mean bsld of 0.
func TestEvaluateRejectsEmptyProtocol(t *testing.T) {
	tr := trace.SyntheticSDSCSP2(200, 3)
	empty := &trace.Trace{Name: "empty", Procs: 128}
	a := NewAgent(ObsConfig{MaxObs: 16}, NetworkSpec{}, backfill.RequestTime{}, 5)
	cases := []struct {
		name string
		tr   *trace.Trace
		cfg  EvalConfig
		want string
	}{
		{"no sequences", tr, EvalConfig{Sequences: 0, SeqLen: 50}, "sequences"},
		{"negative sequences", tr, EvalConfig{Sequences: -1, SeqLen: 50}, "sequences"},
		{"empty sequences", tr, EvalConfig{Sequences: 2, SeqLen: 0}, "sequence length"},
		{"negative length", tr, EvalConfig{Sequences: 2, SeqLen: -5}, "sequence length"},
		{"empty trace", empty, EvalConfig{Sequences: 2, SeqLen: 50}, "no jobs"},
	}
	for _, c := range cases {
		for _, ev := range []struct {
			name string
			run  func() (float64, []float64, error)
		}{
			{"strategy", func() (float64, []float64, error) {
				return EvaluateStrategy(c.tr, sched.FCFS{}, backfill.NewEASY(backfill.RequestTime{}), c.cfg)
			}},
			{"agent", func() (float64, []float64, error) { return EvaluateAgent(a, c.tr, sched.FCFS{}, c.cfg) }},
		} {
			_, per, err := ev.run()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s/%s: err %v, want one mentioning %q", c.name, ev.name, err, c.want)
			}
			if per != nil {
				t.Errorf("%s/%s: per-sequence results %v alongside the error", c.name, ev.name, per)
			}
		}
	}
}
