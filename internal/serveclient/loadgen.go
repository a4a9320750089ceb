package serveclient

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/serve"
	"repro/internal/stats"
)

// Generated jobs are 1 to maxProcs processors wide and run 1 to maxRuntime
// simulated seconds.
const (
	maxProcs   = 8
	maxRuntime = 3600
)

// LoadConfig drives a load-generation run against one or more daemons.
type LoadConfig struct {
	// Endpoints are the daemon addresses, e.g. http://127.0.0.1:8080. With
	// more than one, submissions fail over between them (primary + standbys).
	Endpoints []string
	// Submitters is the number of concurrent client goroutines.
	Submitters int
	// Duration bounds the wall-clock run.
	Duration time.Duration
	// Rate is the target aggregate submission rate in jobs/second; 0 means
	// unpaced (each submitter loops as fast as the daemon replies).
	Rate float64
	// StatusEvery issues a status query after every Nth submission per
	// worker (0 disables status traffic).
	StatusEvery int
	// CancelEvery cancels every Nth submitted job per worker (0 disables
	// cancellation traffic).
	CancelEvery int
	// Seed makes the generated workload reproducible.
	Seed uint64
	// Retries is the retry budget per logical submission: connection
	// failures, 5xx responses, 429 load shedding and 409 fencing are retried
	// with jittered exponential backoff (honoring Retry-After) up to this
	// many extra attempts, failing over between Endpoints. Every submission
	// carries an idempotency key, so a retry whose predecessor actually
	// landed cannot double-enqueue. 0 disables retries.
	Retries int
}

// LoadReport summarizes a load run from the client's side.
type LoadReport struct {
	Submitters    int          `json:"submitters"`
	DurationSec   float64      `json:"duration_sec"`
	Submitted     int64        `json:"submitted"`
	Rejected      int64        `json:"rejected"`
	Errors        int64        `json:"errors"`
	Retries       int64        `json:"retries"`
	Shed          int64        `json:"shed"`
	Duplicates    int64        `json:"duplicates"`
	StatusQueries int64        `json:"status_queries"`
	Cancels       int64        `json:"cancels"`
	Throughput    float64      `json:"throughput_jobs_per_sec"`
	SubmitP50Ms   float64      `json:"submit_p50_ms"`
	SubmitP90Ms   float64      `json:"submit_p90_ms"`
	SubmitP99Ms   float64      `json:"submit_p99_ms"`
	SubmitMaxMs   float64      `json:"submit_max_ms"`
	Server        *serve.Stats `json:"server,omitempty"`
}

// RunLoad floods the daemon(s) with concurrent submitters and reports
// client-observed latency quantiles plus the server's own accounting. This is
// the harness behind the serve-load and serve-failover CI gates: thousands of
// goroutines sharing one pooled HTTP client, each submitting a random but
// seed-reproducible job stream, optionally mixing in status and cancel
// traffic, and failing over between endpoints when the primary dies mid-run.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("serveclient: RunLoad needs at least one endpoint")
	}
	if cfg.Submitters < 1 {
		cfg.Submitters = 1
	}
	hc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Submitters,
			MaxIdleConnsPerHost: cfg.Submitters,
		},
	}
	cl := New(cfg.Endpoints, hc)
	// Client-side latency histogram: reuse the daemon's lock-free histogram
	// so thousands of submitters record without a contended mutex.
	hist := metrics.NewRegistry().NewHistogram("loadgen_submit_seconds", "client submit latency", nil)
	var submitted, rejected, errCount, statusQ, cancels, retries, shed, dups atomic.Int64

	var pace time.Duration
	if cfg.Rate > 0 {
		pace = time.Duration(float64(cfg.Submitters) / cfg.Rate * float64(time.Second))
	}
	deadline := time.Now().Add(cfg.Duration)
	pool.Each(cfg.Submitters, cfg.Submitters, func(w int) error {
		rng := stats.NewRNG(cfg.Seed + uint64(w)*0x9e3779b97f4a7c15)
		if pace > 0 {
			// Stagger worker phases so paced submitters do not arrive in
			// lockstep bursts.
			time.Sleep(time.Duration(rng.Uint64() % uint64(pace)))
		}
		// Jitter in [backoff/2, 3*backoff/2) decorrelates the retry storm
		// a daemon restart would otherwise face.
		jitter := func(backoff time.Duration) time.Duration {
			return backoff/2 + time.Duration(rng.Uint64()%uint64(backoff))
		}
		n := 0
		for time.Now().Before(deadline) {
			req := serve.JobRequest{
				Procs:   1 + int(rng.Uint64()%maxProcs),
				Runtime: 1 + int64(rng.Uint64()%maxRuntime),
			}
			req.Request = req.Runtime + int64(rng.Uint64()%600)
			req.IdemKey = fmt.Sprintf("lg-%x-%d-%d", cfg.Seed, w, n)
			t0 := time.Now()
			res, nTries, err := cl.Submit(req, cfg.Retries, deadline, jitter)
			hist.Observe(time.Since(t0).Seconds())
			retries.Add(nTries)
			if res.Code == http.StatusTooManyRequests {
				shed.Add(1)
			}
			switch {
			case err != nil || res.Code == 0:
				errCount.Add(1)
			case res.Code == http.StatusAccepted:
				submitted.Add(1)
				if res.Submit != nil && res.Submit.Duplicate {
					dups.Add(1)
				}
			default:
				rejected.Add(1)
			}
			n++
			if err == nil && res.Submit != nil {
				if cfg.StatusEvery > 0 && n%cfg.StatusEvery == 0 {
					if _, serr := cl.Status(res.Submit.ID); serr == nil {
						statusQ.Add(1)
					}
				}
				if cfg.CancelEvery > 0 && n%cfg.CancelEvery == 0 {
					if _, cerr := cl.Cancel(res.Submit.ID); cerr == nil {
						cancels.Add(1)
					}
				}
			}
			if pace > 0 {
				time.Sleep(pace)
			}
		}
		return nil
	})

	rep := &LoadReport{
		Submitters:    cfg.Submitters,
		DurationSec:   cfg.Duration.Seconds(),
		Submitted:     submitted.Load(),
		Rejected:      rejected.Load(),
		Errors:        errCount.Load(),
		Retries:       retries.Load(),
		Shed:          shed.Load(),
		Duplicates:    dups.Load(),
		StatusQueries: statusQ.Load(),
		Cancels:       cancels.Load(),
		Throughput:    float64(submitted.Load()) / cfg.Duration.Seconds(),
		SubmitP50Ms:   hist.Quantile(0.5) * 1000,
		SubmitP90Ms:   hist.Quantile(0.9) * 1000,
		SubmitP99Ms:   hist.Quantile(0.99) * 1000,
		SubmitMaxMs:   hist.Max() * 1000,
	}
	if st, err := cl.Statz(); err == nil {
		rep.Server = st
	}
	return rep, nil
}
