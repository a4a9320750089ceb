package sim

// This file pins the scheduling kernel's behaviour: the optimised engine
// (incrementally sorted queue, binary-search removal, incrementally
// maintained running set, scratch-buffer backfillers) must produce schedules
// bit-identical to the original naive kernel (full stable re-sort at every
// event, linear-scan removal, rebuild-and-sort running set, allocate-per-call
// backfillers). The reference implementations below are verbatim copies of
// that original code, kept only here as the golden model.

import (
	"sort"
	"testing"

	"repro/internal/backfill"
	"repro/internal/cluster"
	"repro/internal/eventq"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ---- reference kernel (the pre-optimisation engine, verbatim) ----

type refEngine struct {
	policy     sched.Policy
	backfiller backfill.Backfiller
	procs      int
	clock      int64
	cluster    *cluster.Cluster
	events     eventq.Queue
	queue      []*trace.Job
	running    map[int]backfill.Running
	records    []metrics.Record
	journal    backfill.Journal // never opened: the reference keeps no journal
}

func newRefEngine(t *trace.Trace, p sched.Policy, bf backfill.Backfiller) *refEngine {
	e := &refEngine{
		policy:     p,
		backfiller: bf,
		procs:      t.Procs,
		cluster:    cluster.New(t.Procs),
		running:    make(map[int]backfill.Running),
	}
	for _, j := range t.Jobs {
		e.events.Push(eventq.Event{Time: j.Submit, Kind: eventq.Arrive, Payload: j})
	}
	return e
}

func (e *refEngine) run() []metrics.Record {
	for {
		ev, ok := e.events.Pop()
		if !ok {
			return e.records
		}
		e.clock = ev.Time
		e.apply(ev)
		for {
			next, ok := e.events.Peek()
			if !ok || next.Time != e.clock {
				break
			}
			ev, _ = e.events.Pop()
			e.apply(ev)
		}
		e.schedule()
	}
}

func (e *refEngine) apply(ev eventq.Event) {
	switch ev.Kind {
	case eventq.Arrive:
		e.queue = append(e.queue, ev.Payload.(*trace.Job))
	case eventq.Finish:
		j := ev.Payload.(*trace.Job)
		if err := e.cluster.Release(j.ID); err != nil {
			panic(err)
		}
		delete(e.running, j.ID)
	}
}

// refSort is the original comparator sort: Score is recomputed inside the
// comparator O(n log n) times per event.
func refSort(jobs []*trace.Job, p sched.Policy, now int64) {
	sort.SliceStable(jobs, func(a, b int) bool {
		sa, sb := p.Score(jobs[a], now), p.Score(jobs[b], now)
		if sa != sb {
			return sa < sb
		}
		if jobs[a].Submit != jobs[b].Submit {
			return jobs[a].Submit < jobs[b].Submit
		}
		return jobs[a].ID < jobs[b].ID
	})
}

func (e *refEngine) schedule() {
	if len(e.queue) == 0 {
		return
	}
	refSort(e.queue, e.policy, e.clock)
	for len(e.queue) > 0 && e.cluster.Fits(e.queue[0].Procs) {
		e.StartJob(e.queue[0])
	}
	if len(e.queue) == 0 || e.backfiller == nil {
		return
	}
	head := e.queue[0]
	rest := append([]*trace.Job(nil), e.queue[1:]...)
	e.backfiller.Backfill(e, head, rest)
}

func (e *refEngine) Now() int64      { return e.clock }
func (e *refEngine) FreeProcs() int  { return e.cluster.Free() }
func (e *refEngine) TotalProcs() int { return e.procs }

func (e *refEngine) Running() []backfill.Running {
	rs := make([]backfill.Running, 0, len(e.running))
	for _, r := range e.running {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(a, b int) bool { return rs[a].Job.ID < rs[b].Job.ID })
	return rs
}

func (e *refEngine) Journal() *backfill.Journal { return &e.journal }

func (e *refEngine) StartJob(j *trace.Job) {
	if err := e.cluster.Alloc(j.ID, j.Procs); err != nil {
		panic(err)
	}
	removed := false
	for i, q := range e.queue {
		if q == j {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			removed = true
			break
		}
	}
	if !removed {
		panic("ref: job started but not in queue")
	}
	run := j.Runtime
	if j.Request > 0 && run > j.Request {
		run = j.Request
	}
	e.running[j.ID] = backfill.Running{Job: j, Start: e.clock}
	e.events.Push(eventq.Event{Time: e.clock + run, Kind: eventq.Finish, Payload: j})
	e.records = append(e.records, metrics.Record{Job: j, Start: e.clock, End: e.clock + run})
}

// ---- reference backfillers (pre-optimisation, verbatim) ----

func refComputeReservation(st backfill.State, head *trace.Job, est backfill.Estimator) backfill.Reservation {
	free := st.FreeProcs()
	if free >= head.Procs {
		return backfill.Reservation{Shadow: st.Now(), Extra: free - head.Procs}
	}
	running := append([]backfill.Running(nil), st.Running()...)
	sort.Slice(running, func(a, b int) bool {
		ea := running[a].Start + est.Estimate(running[a].Job)
		eb := running[b].Start + est.Estimate(running[b].Job)
		if ea != eb {
			return ea < eb
		}
		return running[a].Job.ID < running[b].Job.ID
	})
	avail := free
	for _, r := range running {
		avail += r.Job.Procs
		if avail >= head.Procs {
			end := r.Start + est.Estimate(r.Job)
			if end < st.Now() {
				end = st.Now()
			}
			return backfill.Reservation{Shadow: end, Extra: avail - head.Procs}
		}
	}
	return backfill.Reservation{Shadow: st.Now(), Extra: 0}
}

type refEASY struct {
	est      backfill.Estimator
	sjfOrder bool
}

func (e *refEASY) Name() string { return "ref-easy" }

func (e *refEASY) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	res := refComputeReservation(st, head, e.est)
	now := st.Now()
	free := st.FreeProcs()
	extra := res.Extra

	cands := queue
	if e.sjfOrder {
		cands = append([]*trace.Job(nil), queue...)
		sort.SliceStable(cands, func(a, b int) bool {
			ea, eb := e.est.Estimate(cands[a]), e.est.Estimate(cands[b])
			if ea != eb {
				return ea < eb
			}
			return cands[a].ID < cands[b].ID
		})
	}

	for _, j := range cands {
		if j.Procs > free {
			continue
		}
		endsByShadow := now+e.est.Estimate(j) <= res.Shadow
		usesExtraOnly := j.Procs <= extra
		if !endsByShadow && !usesExtraOnly {
			continue
		}
		st.StartJob(j)
		free -= j.Procs
		if !endsByShadow {
			extra -= j.Procs
		}
		if free == 0 {
			return
		}
	}
}

type refConservative struct {
	est backfill.Estimator
}

func (c *refConservative) Name() string { return "ref-cons" }

func (c *refConservative) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	for {
		started := c.backfillOne(st, head, queue)
		if started == nil {
			return
		}
		out := queue[:0]
		for _, j := range queue {
			if j != started {
				out = append(out, j)
			}
		}
		queue = out
	}
}

func (c *refConservative) backfillOne(st backfill.State, head *trace.Job, queue []*trace.Job) *trace.Job {
	now := st.Now()

	reserve := func(p *cluster.Profile, skip *trace.Job) bool {
		jobs := append([]*trace.Job{head}, queue...)
		for _, j := range jobs {
			if j == skip {
				continue
			}
			dur := c.est.Estimate(j)
			start := p.FindStart(now, dur, j.Procs)
			if err := p.Reserve(start, start+dur, j.Procs); err != nil {
				return false
			}
		}
		return true
	}

	baseline := c.profile(st, now)
	if !reserve(baseline, nil) {
		return nil
	}
	starts := c.reservationStarts(st, now, head, queue)

	for _, j := range queue {
		if j.Procs > st.FreeProcs() {
			continue
		}
		p := c.profile(st, now)
		dur := c.est.Estimate(j)
		if p.MinFree(now, now+dur) < j.Procs {
			continue
		}
		if err := p.Reserve(now, now+dur, j.Procs); err != nil {
			continue
		}
		ok := true
		jobs := append([]*trace.Job{head}, queue...)
		for _, o := range jobs {
			if o == j {
				continue
			}
			odur := c.est.Estimate(o)
			s := p.FindStart(now, odur, o.Procs)
			if err := p.Reserve(s, s+odur, o.Procs); err != nil {
				ok = false
				break
			}
			if s > starts[o.ID] {
				ok = false
				break
			}
		}
		if ok {
			st.StartJob(j)
			return j
		}
	}
	return nil
}

func (c *refConservative) profile(st backfill.State, now int64) *cluster.Profile {
	p := cluster.NewProfile(st.TotalProcs(), now)
	for _, r := range st.Running() {
		end := r.Start + c.est.Estimate(r.Job)
		if end <= now {
			end = now + 1
		}
		_ = p.Reserve(now, end, r.Job.Procs)
	}
	return p
}

func (c *refConservative) reservationStarts(st backfill.State, now int64, head *trace.Job, queue []*trace.Job) map[int]int64 {
	p := c.profile(st, now)
	starts := make(map[int]int64, len(queue)+1)
	for _, j := range append([]*trace.Job{head}, queue...) {
		dur := c.est.Estimate(j)
		s := p.FindStart(now, dur, j.Procs)
		_ = p.Reserve(s, s+dur, j.Procs)
		starts[j.ID] = s
	}
	return starts
}

type refSlack struct {
	est    backfill.Estimator
	factor float64
}

func (s *refSlack) Name() string { return "ref-slack" }

func (s *refSlack) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	for {
		started := s.backfillOne(st, head, queue)
		if started == nil {
			return
		}
		out := queue[:0]
		for _, j := range queue {
			if j != started {
				out = append(out, j)
			}
		}
		queue = out
	}
}

func (s *refSlack) backfillOne(st backfill.State, head *trace.Job, queue []*trace.Job) *trace.Job {
	now := st.Now()
	baseStarts := s.reservationStarts(st, now, head, queue, nil)

	for _, cand := range queue {
		if cand.Procs > st.FreeProcs() {
			continue
		}
		newStarts := s.reservationStarts(st, now, head, queue, cand)
		if newStarts == nil {
			continue
		}
		ok := true
		for _, o := range append([]*trace.Job{head}, queue...) {
			if o == cand {
				continue
			}
			allowed := baseStarts[o.ID]
			if o != head {
				allowed += int64(s.factor * float64(s.est.Estimate(o)))
			}
			if newStarts[o.ID] > allowed {
				ok = false
				break
			}
		}
		if ok {
			st.StartJob(cand)
			return cand
		}
	}
	return nil
}

func (s *refSlack) reservationStarts(st backfill.State, now int64, head *trace.Job, queue []*trace.Job, runNow *trace.Job) map[int]int64 {
	p := cluster.NewProfile(st.TotalProcs(), now)
	for _, r := range st.Running() {
		end := r.Start + s.est.Estimate(r.Job)
		if end <= now {
			end = now + 1
		}
		_ = p.Reserve(now, end, r.Job.Procs)
	}
	if runNow != nil {
		dur := s.est.Estimate(runNow)
		if p.MinFree(now, now+dur) < runNow.Procs {
			return nil
		}
		if err := p.Reserve(now, now+dur, runNow.Procs); err != nil {
			return nil
		}
	}
	starts := make(map[int]int64, len(queue)+1)
	for _, j := range append([]*trace.Job{head}, queue...) {
		if j == runNow {
			continue
		}
		dur := s.est.Estimate(j)
		start := p.FindStart(now, dur, j.Procs)
		_ = p.Reserve(start, start+dur, j.Procs)
		starts[j.ID] = start
	}
	return starts
}

// ---- the differential test itself ----

// backfillPair yields a freshly constructed (reference, optimised)
// backfiller pair per call: backfillers carry scratch state, so each replay
// gets its own instances.
type backfillPair struct {
	name string
	mk   func() (ref backfill.Backfiller, opt backfill.Backfiller)
}

func backfillPairs() []backfillPair {
	return []backfillPair{
		{"none", func() (backfill.Backfiller, backfill.Backfiller) { return nil, nil }},
		{"easy-rt", func() (backfill.Backfiller, backfill.Backfiller) {
			return &refEASY{est: backfill.RequestTime{}}, backfill.NewEASY(backfill.RequestTime{})
		}},
		{"easy-ar", func() (backfill.Backfiller, backfill.Backfiller) {
			return &refEASY{est: backfill.ActualRuntime{}}, backfill.NewEASY(backfill.ActualRuntime{})
		}},
		{"easy-rt-sjf", func() (backfill.Backfiller, backfill.Backfiller) {
			return &refEASY{est: backfill.RequestTime{}, sjfOrder: true},
				&backfill.EASY{Est: backfill.RequestTime{}, Order: backfill.SJFOrder}
		}},
		{"cons-rt", func() (backfill.Backfiller, backfill.Backfiller) {
			return &refConservative{est: backfill.RequestTime{}}, backfill.NewConservative(backfill.RequestTime{})
		}},
		{"slack-rt", func() (backfill.Backfiller, backfill.Backfiller) {
			return &refSlack{est: backfill.RequestTime{}, factor: 0.5}, backfill.NewSlack(backfill.RequestTime{})
		}},
	}
}

func diffRecords(t *testing.T, label string, want, got []metrics.Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: record count %d (reference) vs %d (optimised)", label, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Job.ID != g.Job.ID || w.Start != g.Start || w.End != g.End {
			t.Fatalf("%s: record %d differs: reference job %d [%d,%d), optimised job %d [%d,%d)",
				label, i, w.Job.ID, w.Start, w.End, g.Job.ID, g.Start, g.End)
		}
	}
}

// TestKernelDifferential replays traces under the original and the optimised
// kernels for every Table 3 policy and every backfilling strategy, and
// requires bit-identical schedules (same jobs, same starts, same ends, in
// the same record order).
func TestKernelDifferential(t *testing.T) {
	traces := []*trace.Trace{
		trace.SyntheticSDSCSP2(400, 7),
		trace.SyntheticHPC2N(300, 13),
	}
	for _, tr := range traces {
		for _, p := range sched.All() {
			for _, pair := range backfillPairs() {
				label := tr.Name + "/" + p.Name() + "/" + pair.name
				if pair.name == "cons-rt" || pair.name == "slack-rt" {
					// Profile-based strategies are O(n^2) per event; keep the
					// differential run fast with a truncated trace.
					short := tr.Clone()
					short.Jobs = short.Jobs[:120]
					refBF, optBF := pair.mk()
					want := newRefEngine(short.Clone(), p, refBF).run()
					res, err := Run(short.Clone(), Config{Policy: p, Backfiller: optBF})
					if err != nil {
						t.Fatal(err)
					}
					diffRecords(t, label, want, res.Records)
					continue
				}
				refBF, optBF := pair.mk()
				want := newRefEngine(tr.Clone(), p, refBF).run()
				res, err := Run(tr.Clone(), Config{Policy: p, Backfiller: optBF})
				if err != nil {
					t.Fatal(err)
				}
				diffRecords(t, label, want, res.Records)
			}
		}
	}
}

// TestKernelDifferentialRandom fuzzes the comparison over random small
// traces: bursty arrivals force deep queues and many same-timestamp event
// batches, which is where incremental maintenance could diverge.
func TestKernelDifferentialRandom(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		r := stats.NewRNG(seed)
		procs := []int{8, 32, 100}[r.Intn(3)]
		n := r.Intn(80) + 10
		tr := &trace.Trace{Name: "fuzz", Procs: procs}
		var submit int64
		for i := 0; i < n; i++ {
			if r.Intn(3) > 0 { // bursts: 1/3 of jobs share a submit time
				submit += r.Int63n(150)
			}
			run := r.Int63n(500) + 1
			req := run + r.Int63n(500)
			tr.Jobs = append(tr.Jobs, &trace.Job{
				ID: i + 1, Submit: submit, Runtime: run, Request: req, Procs: r.Intn(procs) + 1,
			})
		}
		for _, p := range sched.All() {
			for _, pair := range backfillPairs() {
				refBF, optBF := pair.mk()
				want := newRefEngine(tr.Clone(), p, refBF).run()
				res, err := Run(tr.Clone(), Config{Policy: p, Backfiller: optBF})
				if err != nil {
					t.Fatal(err)
				}
				diffRecords(t, p.Name()+"/"+pair.name, want, res.Records)
			}
		}
	}
}
