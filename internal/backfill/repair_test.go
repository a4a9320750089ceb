package backfill_test

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/backfill"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// repairChecker runs conservative backfilling and, after every round,
// requires its plan to equal one built from scratch for the same state
// (backfill.PlanDiff). It tallies, per engine family, the rounds whose
// build took hints, those that hit the gain cap, and among the rounds whose
// journal shows an early finish but whose build took none, why not. With
// skip > 0 it sits out every skip-th round, so planned starts fall behind.
type repairChecker struct {
	t      *testing.T
	c      *backfill.Conservative
	est    backfill.Estimator
	skip   int
	label  string
	rounds int
	seen   backfill.Cursor
	starts map[int]int64 // start of every job seen running
	tally  map[string]int
}

func (k *repairChecker) Name() string { return k.c.Name() }

// startLog is an engine that lists the jobs the backfiller starts and
// counts its reads of the running set, which only a plan build makes.
type startLog struct {
	*sim.Engine
	started []*trace.Job
	reads   int
}

func (s *startLog) Running() []backfill.Running {
	s.reads++
	return s.Engine.Running()
}

func (s *startLog) StartJob(j *trace.Job) {
	s.started = append(s.started, j)
	s.Engine.StartJob(j)
}

func (k *repairChecker) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	k.rounds++
	if k.skip > 0 && k.rounds%k.skip == 0 {
		return
	}
	now := st.Now()
	for _, r := range st.Running() {
		k.starts[r.Job.ID] = r.Start
	}
	// What the journal shows since this backfiller's last round, and why a
	// repair could be refused.
	why := map[string]bool{}
	early, earlyAt, offPlan := 0, map[int64]int{}, false
	changes, ok := st.Journal().Since(k.seen)
	why["rejected cursor"] = !ok
	why["memory machine"] = st.(*sim.Engine).TotalMem() > 0
	why["start behind now"] = backfill.StartBehind(k.c, now)
	tail := len(queue) + 1
	for _, ch := range changes {
		switch ch.Kind {
		case backfill.Started:
			k.starts[ch.Job.ID] = ch.Time
			if at, ok := backfill.StartOf(k.c, ch.Job); ok && at != ch.Time {
				offPlan = true
			}
		case backfill.Finished:
			switch end := k.starts[ch.Job.ID] + k.est.Estimate(ch.Job); {
			case ch.Time < end:
				early++
				earlyAt[ch.Time]++
			case ch.Time > end:
				why["late finish"] = true
			}
		case backfill.Arrived:
			tail--
		case backfill.Canceled:
			why["cancel"] = true
		case backfill.Reordered:
			why["reorder"] = true
		}
	}
	for i := max(tail, 0); i <= len(queue); i++ {
		if j := nth(head, queue, i); slices.ContainsFunc(changes, func(ch backfill.Change) bool {
			return ch.Kind == backfill.Arrived && ch.Job == j
		}) != (i >= tail) {
			why["arrival inside the queue"] = true
			break
		}
	}
	for _, r := range st.Running() {
		if r.Start+k.est.Estimate(r.Job) <= now {
			why["span clamped to now+1"] = true
		}
	}

	log := &startLog{Engine: st.(*sim.Engine)}
	k.c.Backfill(log, head, queue)
	k.seen = st.Journal().Cursor()
	rest := slices.DeleteFunc(slices.Clone(queue), func(j *trace.Job) bool { return slices.Contains(log.started, j) })
	if d := backfill.PlanDiff(k.c, st, head, rest); d != "" {
		k.t.Fatalf("%s at %d: %s", k.label, now, d)
	}

	hinted, capped := backfill.RepairRound(k.c)
	switch {
	case log.reads == 0: // carried
	case hinted > 0:
		k.tally["hinted"]++
		if capped {
			k.tally["capped"]++
		}
		if offPlan {
			k.tally["hinted after an off-plan start"]++
		}
		if tail <= len(queue) {
			k.tally["hinted with arrivals"]++
		}
		for _, n := range earlyAt {
			if n > 1 {
				k.tally["hinted after early finishes at one instant"]++
				break
			}
		}
	case early > 0 || !ok:
		for reason, ok := range why {
			if ok {
				k.tally["no hints: "+reason]++
			}
		}
	}
}

func nth(head *trace.Job, queue []*trace.Job, i int) *trace.Job {
	if i == 0 {
		return head
	}
	return queue[i-1]
}

// mixedEstimate predicts the request of even jobs, which mostly finish
// early, and a third of the runtime of odd ones, which outlive their spans:
// late finishes and spans clamped to now+1 among early finishes.
type mixedEstimate struct{}

func (mixedEstimate) Name() string { return "RT|AR/3" }
func (mixedEstimate) Estimate(j *trace.Job) int64 {
	if j.ID%2 == 0 {
		return j.Request
	}
	return max(j.Runtime/3, 1)
}

// repairCase draws a trace whose requests mostly overstate the runtimes, so
// most finishes are early, on a machine with or without memory. Every
// eighth is gainCase's instead.
func repairCase(seed uint64) *trace.Trace {
	r := stats.NewRNG(seed * 104729)
	procs := []int{16, 64, 128}[r.Intn(3)]
	tr := &trace.Trace{Name: "repair", Procs: procs}
	if seed%5 == 0 {
		tr.Mem = procs * 100
	}
	if seed%8 == 1 {
		tr.Procs = 100
		tr.Jobs = gainCase(20 + r.Intn(20))
		return tr
	}
	var submit int64
	for i := range 150 + r.Intn(150) {
		if r.Intn(3) > 0 { // a third of the jobs arrive with the one before
			submit += r.Int63n(60)
		}
		run := r.Int63n(600) + 1
		req := run + r.Int63n(600)
		if r.Intn(8) == 0 {
			req = run // on time
		}
		j := &trace.Job{ID: i + 1, Submit: submit, Runtime: run, Request: req, Procs: r.Intn(procs/2) + 1}
		if r.Intn(6) == 0 {
			j.Procs = procs/2 + r.Intn(procs/2) + 1
		}
		if tr.Mem > 0 {
			j.Mem = r.Intn(tr.Mem/2) + 1
		}
		tr.Jobs = append(tr.Jobs, j)
	}
	return tr
}

// gainCase is a 100-processor trace on which one early finish moves jobs
// whose old slots lie apart, so the gain list outgrows its cap. Two 50-wide
// jobs start at 0, both requesting 1,000 s; one finishes at 1. Behind them
// the queue repeats a 60-wide job of 10 s, which needs both halves, a
// 40-wide one of 6 s planned beside it, and a whole-machine job of 1 s that
// keeps the next 40-wide one from the same gap. The early finish lets every 40-wide job
// move into the freed half; the others keep their starts.
func gainCase(groups int) []*trace.Job {
	jobs := []*trace.Job{
		{ID: 1, Runtime: 1, Request: 1000, Procs: 50},
		{ID: 2, Runtime: 1000, Request: 1000, Procs: 50},
	}
	for k := range groups {
		jobs = append(jobs,
			&trace.Job{ID: 3 + 3*k, Runtime: 10, Request: 10, Procs: 60},
			&trace.Job{ID: 4 + 3*k, Runtime: 6, Request: 6, Procs: 40},
			&trace.Job{ID: 5 + 3*k, Runtime: 1, Request: 1, Procs: 100})
	}
	return jobs
}

// repairFamilies are the engines sim's engineKinds drive a backfiller
// through — a replay, a snapshot restore, and two live engines fed by
// Inject and thinned by Cancel, the second crowded — plus a replay whose
// backfiller sits out every seventh round.
var repairFamilies = []struct {
	name string
	skip int
	run  func(t *testing.T, tr *trace.Trace, cfg sim.Config)
}{
	{"replay", 0, func(t *testing.T, tr *trace.Trace, cfg sim.Config) {
		if _, err := sim.Run(tr.Clone(), cfg); err != nil {
			t.Fatal(err)
		}
	}},
	{"restore", 0, restoreRun},
	{"live", 0, func(t *testing.T, tr *trace.Trace, cfg sim.Config) { injectRun(t, tr, cfg, 1) }},
	{"crowded", 0, func(t *testing.T, tr *trace.Trace, cfg sim.Config) { injectRun(t, tr, cfg, 8) }},
	{"skipping", 7, func(t *testing.T, tr *trace.Trace, cfg sim.Config) {
		if _, err := sim.Run(tr.Clone(), cfg); err != nil {
			t.Fatal(err)
		}
	}},
}

// runUntil steps e through every event up to horizon; it reports false once
// the replay has drained.
func runUntil(e *sim.Engine, horizon int64) bool {
	for {
		at, ok := e.NextEventTime()
		if !ok {
			return false
		}
		if at > horizon {
			return true
		}
		e.Step()
	}
}

// restoreRun replays to the middle job's submit, snapshots, and finishes on
// an engine restored from the snapshot.
func restoreRun(t *testing.T, tr *trace.Trace, cfg sim.Config) {
	work := tr.Clone()
	a, err := sim.NewEngine(work, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !runUntil(a, work.Jobs[len(work.Jobs)/2].Submit) {
		t.Fatal("replay drained before the cut")
	}
	snap := a.Snapshot()
	rest := &trace.Trace{Name: work.Name, Procs: work.Procs, Mem: work.Mem, Jobs: work.Jobs[snap.NextArrival:]}
	b, err := sim.NewEngineFromSnapshot(rest, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	b.RunToCompletion()
}

// injectRun feeds the jobs to a live engine with their submit times divided
// by squeeze, cancelling every seventh job's third predecessor and, every
// eleventh, the queue's head; a squeeze above 1 also cancels, before every
// fifth injection, the narrowest job in the back half of a queue over 16.
func injectRun(t *testing.T, tr *trace.Trace, cfg sim.Config, squeeze int64) {
	live, err := sim.NewLiveEngine(tr.Name, tr.Procs, tr.Mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var queued []*trace.Job
	for i, j := range tr.Jobs {
		if squeeze > 1 && i%5 == 0 {
			if queued = live.AppendQueued(queued[:0]); len(queued) > 16 {
				back := queued[len(queued)/2:]
				live.Cancel(slices.MinFunc(back, func(a, b *trace.Job) int { return cmp.Compare(a.Procs, b.Procs) }).ID)
			}
		}
		j = j.Clone()
		j.Submit /= squeeze
		if j.Submit > 0 {
			runUntil(live, j.Submit-1)
		}
		if err := live.Inject(j); err != nil {
			t.Fatal(err)
		}
		switch {
		case i%7 == 6:
			live.Cancel(tr.Jobs[i-3].ID)
		case i%11 == 10:
			if queued = live.AppendQueued(queued[:0]); len(queued) > 0 {
				live.Cancel(queued[0].ID)
			}
		}
	}
	live.RunToCompletion()
}

// TestConservativeRepairEqualsRebuild requires the plan conservative
// backfilling repairs after early finishes, each job placed from its old
// start, to equal the plan built from scratch after every round: entry for
// entry and skyline for skyline. It runs every engine family, under FCFS
// (whose arrivals join the queue's tail), SJF (whose arrivals land inside
// it) and WFP3 (which re-sorts it), on requests that mostly overstate the
// runtimes, on exact runtimes and on a third of them. Every family must
// take hints in some round. The rounds must include hinted ones after
// several early finishes at one instant, after a head started off its
// planned start, with arrivals, and past the gain cap; and rounds with an
// early finish that took no hints for each reason the repair refuses.
func TestConservativeRepairEqualsRebuild(t *testing.T) {
	tally := map[string]map[string]int{}
	for seed := uint64(1); seed <= 24; seed++ {
		tr := repairCase(seed)
		policy := []sched.Policy{sched.FCFS{}, sched.FCFS{}, sched.SJF{}, sched.WFP3{}}[seed%4]
		est := []backfill.Estimator{backfill.RequestTime{}, backfill.RequestTime{}, backfill.RequestTime{},
			backfill.ActualRuntime{}, mixedEstimate{}}[seed%5]
		c := backfill.NewConservative(est)
		for _, f := range repairFamilies {
			if tally[f.name] == nil {
				tally[f.name] = map[string]int{}
			}
			k := &repairChecker{t: t, c: c, est: est, skip: f.skip, starts: map[int]int64{}, tally: tally[f.name],
				label: fmt.Sprintf("seed %d %s/%s mem=%d/%s", seed, policy.Name(), est.Name(), tr.Mem, f.name)}
			f.run(t, tr, sim.Config{Policy: policy, Backfiller: k})
		}
	}
	all := map[string]int{}
	for _, f := range repairFamilies {
		t.Logf("%s: %v", f.name, tally[f.name])
		if tally[f.name]["hinted"] == 0 {
			t.Errorf("%s: no round took hints", f.name)
		}
		for what, n := range tally[f.name] {
			all[what] += n
		}
	}
	for _, what := range []string{"capped", "hinted after an off-plan start", "hinted with arrivals",
		"hinted after early finishes at one instant", "no hints: rejected cursor", "no hints: memory machine",
		"no hints: start behind now", "no hints: late finish", "no hints: cancel", "no hints: reorder",
		"no hints: arrival inside the queue", "no hints: span clamped to now+1"} {
		if all[what] == 0 {
			t.Errorf("no round %s", what)
		}
	}
}
