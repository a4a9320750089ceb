package main

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/serveclient"
	"repro/internal/trace"
)

type opKind int

const (
	opSubmit opKind = iota
	opStatus
	opCancel
)

// op is one request of the generated traffic. In an open loop due is the
// instant (offset from the run's start) the request is scheduled for,
// whether or not a connection is free then; in a closed loop it is -1 and
// the request goes out as soon as a worker picks it up.
type op struct {
	kind opKind
	n    int64 // request id, unique within a run
	due  time.Duration
	body serve.JobRequest
}

// opResult is what the generator observed for one op. All instants are
// offsets from the run's start.
type opResult struct {
	kind            opKind
	n               int64
	due, start, end time.Duration
	code            int // HTTP status; 0 = transport error
	id              int // job id acknowledged by a 202
}

// latency is the client-observed delay: from the due time in an open loop,
// so that a stall is charged to every request that was due during it, and
// from the send in a closed loop.
func (r opResult) latency() time.Duration {
	if r.due >= 0 {
		return r.end - r.due
	}
	return r.end - r.start
}

// failed applies the benchmark's failure rule: transport errors, load
// shedding, any 5xx, any unexpected 4xx, and replies later than 30 s. A 409
// on cancel means "already started", which is an answer, not a failure.
func (r opResult) failed() bool {
	if r.latency() > 30*time.Second {
		return true
	}
	switch {
	case r.code == 0 || r.code >= 500 || r.code == http.StatusTooManyRequests:
		return true
	case r.kind == opCancel && r.code == http.StatusConflict:
		return false
	case r.code >= 400:
		return true
	}
	return false
}

// loadPlan describes one traffic mix. rate > 0 makes an open loop at that
// many submits per second on a fixed, evenly spaced schedule; rate == 0
// makes a closed loop in which each connection sends its next request when
// the previous one returns.
type loadPlan struct {
	rate        float64
	statusEvery int // one status query per this many submits (0 = none)
	cancelEvery int // one cancel per this many submits (0 = none)
	duration    time.Duration
	jobs        []*trace.Job // submit bodies, taken in order, cycling
	key         string       // idempotency-key prefix, unique per phase
}

// statusLag is how far behind the newest acknowledged job a status query
// looks: far enough that the job is usually still known as queued or
// running, near enough that it exists from the first second on.
const statusLag = 37

// planner hands out the ops of a plan in schedule order. Status and cancel
// ops follow the submit that triggers them at fractions of the submit
// spacing, so an open-loop schedule stays strictly increasing.
type planner struct {
	p       loadPlan
	spacing time.Duration

	mu      sync.Mutex
	submits int
	n       int64
	queued  []op
}

func newPlanner(p loadPlan) *planner {
	pl := &planner{p: p}
	if p.rate > 0 {
		pl.spacing = time.Duration(float64(time.Second) / p.rate)
	}
	return pl
}

// next returns the next op, or false when the plan is over: in an open loop
// when the next due time reaches the duration, in a closed loop when the
// clock does.
func (pl *planner) next(now time.Duration) (op, bool) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if len(pl.queued) > 0 {
		o := pl.queued[0]
		pl.queued = pl.queued[1:]
		return o, true
	}
	due := time.Duration(-1)
	if pl.spacing > 0 {
		due = time.Duration(pl.submits) * pl.spacing
		if due >= pl.p.duration {
			return op{}, false
		}
	} else if now >= pl.p.duration {
		return op{}, false
	}
	j := pl.p.jobs[pl.submits%len(pl.p.jobs)]
	pl.submits++
	pl.n++
	o := op{kind: opSubmit, n: pl.n, due: due, body: serve.JobRequest{
		Procs: j.Procs, Runtime: j.Runtime, Request: j.Request,
		IdemKey: fmt.Sprintf("%s-%d", pl.p.key, pl.n),
	}}
	follow := func(kind opKind, frac int64) {
		pl.n++
		f := op{kind: kind, n: pl.n, due: -1}
		if pl.spacing > 0 {
			f.due = due + pl.spacing*time.Duration(frac)/4
		}
		pl.queued = append(pl.queued, f)
	}
	if e := pl.p.statusEvery; e > 0 && pl.submits%e == 0 {
		follow(opStatus, 2)
	}
	if e := pl.p.cancelEvery; e > 0 && pl.submits%e == 0 {
		follow(opCancel, 3)
	}
	return o, true
}

// tagTransport stamps the worker's current request id on every request and
// notes the status code, so the serveclient API can be used unchanged.
type tagTransport struct {
	base http.RoundTripper
	n    int64
	code int
}

func (t *tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r.Header.Set(reqHeader, fmt.Sprint(t.n))
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		t.code = resp.StatusCode
	}
	return resp, err
}

// newTransport returns a transport limited to conns connections to the
// daemon: the generator is one process with a fixed, small connection
// count, so queueing for a connection is part of what a client observes.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
}

// runLoad drives one plan against the daemon at base over exactly conns
// connections, one worker per connection, and returns every op's outcome.
// lastAcked carries the highest acknowledged job id across phases (warm-up,
// timed run), because status and cancel ops aim relative to it.
func runLoad(base string, tr *http.Transport, conns int, p loadPlan, lastAcked *atomic.Int64, buf *spanBuf) []opResult {
	pl := newPlanner(p)
	t0 := time.Now()
	results := make([][]opResult, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tag := &tagTransport{base: tr}
			cl := serveclient.New([]string{base}, &http.Client{Transport: tag, Timeout: 30 * time.Second})
			for {
				o, ok := pl.next(time.Since(t0))
				if !ok {
					return
				}
				if wait := o.due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				res := opResult{kind: o.kind, n: o.n, due: o.due}
				tag.n, tag.code = o.n, 0
				start := time.Now()
				switch o.kind {
				case opSubmit:
					if r, err := cl.SubmitOnce(o.body); err == nil && r.Submit != nil {
						res.id = r.Submit.ID
						for {
							cur := lastAcked.Load()
							if int64(res.id) <= cur || lastAcked.CompareAndSwap(cur, int64(res.id)) {
								break
							}
						}
					}
				case opStatus:
					_, _ = cl.Status(int(max(1, lastAcked.Load()-statusLag)))
				case opCancel:
					_, _ = cl.Cancel(int(max(1, lastAcked.Load())))
				}
				end := time.Now()
				res.start, res.end, res.code = start.Sub(t0), end.Sub(t0), tag.code
				results[w] = append(results[w], res)
				spanStart := start
				if o.due >= 0 {
					spanStart = t0.Add(o.due)
				}
				buf.add("client."+kindName(o.kind), o.n, 0, spanStart, end)
			}
		}(w)
	}
	wg.Wait()
	var all []opResult
	for _, rs := range results {
		all = append(all, rs...)
	}
	return all
}

func kindName(k opKind) string {
	return [...]string{"submit", "status", "cancel"}[k]
}

// loadSummary is the client's view of one run.
type loadSummary struct {
	ops               []opResult
	attempted, failed int64
	acked             map[int]bool // unique job ids acknowledged with 202
	submitMs          []float64
	statusMs          []float64
	lateMsMax         float64   // how far behind its schedule the generator ran
	acksPerS          []float64 // 202s per second, one value per window
	ackRate           float64   // 202s / time from the run's start to the last of them
	count5xx          int
}

// submitP50Within is the median latency of the submits sent in the first d
// of the run.
func (s loadSummary) submitP50Within(d time.Duration) float64 {
	var ms []float64
	for _, r := range s.ops {
		if r.kind == opSubmit && r.start < d {
			ms = append(ms, r.latency().Seconds()*1e3)
		}
	}
	return median(ms)
}

func summarize(rs []opResult, duration time.Duration) loadSummary {
	s := loadSummary{ops: rs, acked: make(map[int]bool)}
	// Whole-second windows; a run shorter than two seconds is one window.
	nWin := max(1, int(duration/time.Second))
	width := duration / time.Duration(nWin)
	perWin := make([]float64, nWin)
	var lastAck time.Duration
	for _, r := range rs {
		s.attempted++
		if r.failed() {
			s.failed++
		}
		if r.code >= 500 {
			s.count5xx++
		}
		if r.due >= 0 {
			s.lateMsMax = max(s.lateMsMax, (r.start-r.due).Seconds()*1e3)
		}
		ms := r.latency().Seconds() * 1e3
		switch r.kind {
		case opSubmit:
			s.submitMs = append(s.submitMs, ms)
			if r.code == http.StatusAccepted && r.id > 0 {
				s.acked[r.id] = true
				lastAck = max(lastAck, r.end)
				if i := int(r.end / width); i < nWin {
					perWin[i] += 1 / width.Seconds()
				}
			}
		case opStatus:
			s.statusMs = append(s.statusMs, ms)
		}
	}
	s.acksPerS = perWin
	if lastAck > 0 {
		s.ackRate = float64(len(s.acked)) / lastAck.Seconds()
	}
	return s
}
