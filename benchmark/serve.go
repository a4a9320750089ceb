package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/backfill"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/serveclient"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wal"
)

// serveSpec is one service workload: the daemon's clock scale and the
// traffic offered to it from this one process over two connections.
type serveSpec struct {
	scale       float64 // simulated seconds per wall second
	rate        float64 // open loop at this many submits/s; 0 = closed loop
	statusEvery int
	cancelEvery int
	replicated  bool
}

const (
	serveProcs = 4096
	serveConns = 2
	predictCap = 512
	lease      = time.Second
)

func runServePaced(c *runCtx) error {
	return runServe(c, serveSpec{scale: 9486, rate: 200, statusEvery: 2, cancelEvery: 16})
}

func runServeBacklog(c *runCtx) error {
	return runServe(c, serveSpec{scale: 3000, statusEvery: 4})
}

func runServeReplicated(c *runCtx) error {
	return runServe(c, serveSpec{scale: 9486, rate: 150, statusEvery: 2, replicated: true})
}

func (sp serveSpec) plan(d time.Duration, jobs []*trace.Job, key string) loadPlan {
	return loadPlan{rate: sp.rate, statusEvery: sp.statusEvery, cancelEvery: sp.cancelEvery, duration: d, jobs: jobs, key: key}
}

// serveBodies are the submit bodies: one fixed Lublin-Huge job stream with
// every runtime moved by up to 5% either way from the run's seed, as
// train-sdsc does with its dataset. How deep serve-backlog's queue gets, and
// so what a round costs, follows the mix of widths and runtimes: with a
// stream per seed its median submit latency read 2.6 to 3.4 ms over ten seeds
// (spread 15%), with the jittered one 2.5 to 2.9 (7%). The daemon refuses a
// zero runtime, which the generator can emit.
func serveBodies(c *runCtx) []*trace.Job {
	tr := hugeTrace(c.scale(20_000, 1_000), 1)
	rng := stats.NewRNG(c.seed)
	for _, j := range tr.Jobs {
		j.Runtime = max(int64(float64(j.Runtime)*(0.95+0.1*rng.Float64())), 1)
	}
	return tr.Jobs
}

// daemon is one rlbf-serve process and its files.
type daemon struct {
	proc *child
	base string
	dir  string
	name string
}

func daemonArgs(addr, dir, name string, sp serveSpec) []string {
	return []string{
		"-addr", addr, "-name", name,
		"-procs", strconv.Itoa(serveProcs), "-backfill", "conservative",
		"-scale", strconv.FormatFloat(sp.scale, 'g', -1, 64),
		"-predict-cap", strconv.Itoa(predictCap),
		"-wal", filepath.Join(dir, name+".wal"), "-snapshot", filepath.Join(dir, name+".json"),
		"-lease", lease.String(),
	}
}

// startDaemon launches rlbf-serve on a free port and waits for /healthz.
// follow, when set, is the primary's base URL and makes this a standby.
func startDaemon(c *runCtx, dir, name string, sp serveSpec, follow string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	return startDaemonAt(c, addr, dir, name, sp, follow)
}

func startDaemonAt(c *runCtx, addr, dir, name string, sp serveSpec, follow string) (*daemon, error) {
	args := daemonArgs(addr, dir, name, sp)
	role := `"role":"primary"`
	if follow != "" {
		args = append(args, "-follow", "-peer", follow)
		role = `"role":"follower"`
	}
	proc, err := startChild(name, c.serveBin, args...)
	if err != nil {
		return nil, err
	}
	d := &daemon{proc: proc, base: "http://" + addr, dir: dir, name: name}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := waitHealthy(ctx, d.base, proc, func(b string) bool { return strings.Contains(b, role) }); err != nil {
		proc.kill()
		return nil, err
	}
	return d, nil
}

var accountedRE = regexp.MustCompile(`drained clean.*, (\d+) accounted`)

// stop drains the daemon with SIGTERM and checks the contract of a clean
// exit: status 0, the "drained clean" line, and at least minAccounted jobs
// accounted for (every job a client saw acknowledged).
func (d *daemon) stop(c *runCtx, minAccounted int) time.Duration {
	took, ok := d.proc.signal(syscall.SIGTERM, 30*time.Second)
	if !ok {
		d.proc.kill()
		c.fail("%s did not exit within 30 s of SIGTERM", d.name)
		return took
	}
	if code := d.proc.exitCode(); code != 0 {
		c.fail("%s exited %d after SIGTERM:\n%s", d.name, code, tail(d.proc.log.String(), 12))
	}
	m := accountedRE.FindStringSubmatch(d.proc.log.String())
	if m == nil {
		c.fail("%s did not log \"drained clean\":\n%s", d.name, tail(d.proc.log.String(), 12))
		return took
	}
	if n, _ := strconv.Atoi(m[1]); n < minAccounted {
		c.fail("%s accounted for %d jobs, clients hold %d acknowledgements", d.name, n, minAccounted)
	}
	return took
}

func tail(s string, lines int) string {
	ls := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(ls) > lines {
		ls = ls[len(ls)-lines:]
	}
	return strings.Join(ls, "\n")
}

func statz(base string) (*serve.Stats, error) {
	return serveclient.New([]string{base}, &http.Client{Timeout: 5 * time.Second}).Statz()
}

// warmSeconds is the traffic a daemon sees before anything is timed: enough
// for connections, the first compaction-free WAL segment and the runtime's
// lazy set-up.
const warmSeconds = 0.5

// runServe is the untraced run: the daemon is a separate process, exactly
// as a user runs it, and everything is observed from the client's side.
func runServe(c *runCtx, sp serveSpec) error {
	if c.traced {
		return traceServe(c, sp)
	}
	tr := newTransport(serveConns)
	defer tr.CloseIdleConnections()
	var lastAcked atomic.Int64
	var primary, standby *daemon
	var bodies []*trace.Job
	acked := 0
	var setups []float64
	reps := c.scale(3, 1)
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		bodies = serveBodies(c)
		dir, err := runDir(c.outDir, c.workload)
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if rep == 0 {
			c.note("daemon files in %s (%s)", dir, fsTypeName(dir))
		}
		if primary, err = startDaemon(c, dir, "primary", sp, ""); err != nil {
			return err
		}
		if sp.replicated {
			if standby, err = startDaemon(c, dir, "standby", sp, primary.base); err != nil {
				return err
			}
		}
		lastAcked.Store(0)
		warm := summarize(runLoad(primary.base, tr, serveConns, sp.plan(c.dur(min(warmSeconds, c.seconds)), bodies, fmt.Sprintf("w%d", rep)), &lastAcked, nil), time.Second)
		setups = append(setups, time.Since(t0).Seconds())
		acked = len(warm.acked)
		c.attempted += warm.attempted
		c.failed += warm.failed
		if rep < reps-1 {
			if standby != nil {
				standby.stop(c, 0)
			}
			primary.stop(c, acked)
		}
	}
	c.set("setup_s", median(setups))

	d := c.dur(c.seconds)
	sum := summarize(runLoad(primary.base, tr, serveConns, sp.plan(d, bodies, "t"), &lastAcked, nil), d)
	c.attempted += sum.attempted
	c.failed += sum.failed
	if sum.failed > 0 {
		c.fail("%d of %d requests failed", sum.failed, sum.attempted)
	}
	if sum.count5xx > 0 {
		c.fail("%d responses were 5xx", sum.count5xx)
	}
	st, err := statz(primary.base)
	if err != nil {
		return fmt.Errorf("statz: %w", err)
	}
	rss, err := peakRSSMB(primary.proc.cmd.Process.Pid)
	if err != nil {
		return err
	}
	// Standby first: a primary that went away first would start an election.
	if standby != nil {
		standby.stop(c, 0)
	}
	primary.stop(c, acked+len(sum.acked))

	// A closed loop's throughput is what the clients got. An open loop's is
	// what was offered, whatever the daemon does; there the figure is the
	// read path's: status queries answered per second of one connection's
	// time, beside the write path's latency in wait_ms.
	work := sum.ackRate
	if sp.rate > 0 {
		work = 1e3 / median(sum.statusMs)
	}
	c.set("work_per_s", work)
	c.set("wait_ms", median(sum.submitMs))
	c.set("peak_rss_mb", rss)
	c.note("%s: %d submits (%.1f acks/s; p50 %.3f ms, p90 %.3f, p99 %.3f, max %.1f), %d status (p50 %.3f ms), generator up to %.1f ms late; daemon queue %d, decisions %d (p99 %.2f ms), submit p99 %.2f ms, followers %d",
		c.workload, len(sum.submitMs), sum.ackRate, median(sum.submitMs), percentile(sum.submitMs, 0.9), percentile(sum.submitMs, 0.99), percentile(sum.submitMs, 1),
		len(sum.statusMs), median(sum.statusMs), sum.lateMsMax, st.QueueDepth, st.Decisions, st.DecisionP99Ms, st.SubmitP99Ms, st.ReplFollowers)
	if sp.replicated && st.ReplFollowers < 1 {
		c.fail("primary reports %d live followers at the end of the run", st.ReplFollowers)
	}
	return nil
}

// inproc is the daemon assembled in this process from the same public
// pieces cmd/rlbf-serve uses, with the decorators injected where the repo
// exposes an interface: Config.Backfiller, Config.FS and the http.Handler.
type inproc struct {
	sched    *serve.Scheduler
	follower *serve.Follower
	front    *serve.Server
	http     *http.Server
	base     string
	served   chan error

	tb *timedBackfiller
	fs *timedFS
	th *timedHandler
}

func serveConfig(dir, name string, sp serveSpec) serve.Config {
	return serve.Config{
		Name: name, Procs: serveProcs,
		Policy: sched.FCFS{}, Backfiller: backfill.NewConservative(backfill.RequestTime{}), Estimator: backfill.RequestTime{},
		TimeScale: sp.scale, PredictCap: predictCap,
		WALPath: filepath.Join(dir, name+".wal"), SnapshotPath: filepath.Join(dir, name+".json"),
		Lease: lease, RoundBudget: 2 * time.Second,
	}
}

func startInproc(dir string, sp serveSpec, buf *spanBuf) (*inproc, error) {
	ip := &inproc{served: make(chan error, 1)}
	cfg := serveConfig(dir, "primary", sp)
	if buf != nil {
		ip.tb = &timedBackfiller{inner: cfg.Backfiller, buf: buf}
		ip.fs = &timedFS{FS: wal.OSFS{}, buf: buf}
		cfg.Backfiller, cfg.FS = ip.tb, ip.fs
	}
	s, _, err := serve.Recover(cfg)
	if err != nil {
		return nil, err
	}
	s.Start()
	ip.sched = s
	ip.front = serve.NewServer(s, 256, 0)
	h := ip.front.Handler()
	if buf != nil {
		ip.th = &timedHandler{inner: h, buf: buf}
		h = ip.th
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ip.base = "http://" + ln.Addr().String()
	ip.http = &http.Server{Handler: h}
	go func() {
		err := ip.http.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		ip.served <- err
	}()
	if sp.replicated {
		f, err := serve.NewFollower(serveConfig(dir, "standby", sp), serve.FollowConfig{Peers: []string{ip.base}})
		if err != nil {
			return nil, fmt.Errorf("standby: %w", err)
		}
		f.Start()
		ip.follower = f
	}
	return ip, nil
}

// stop mirrors cmd/rlbf-serve's drain sequence and returns how many jobs the
// final state accounts for.
func (ip *inproc) stop() (int, error) {
	if ip.follower != nil {
		ip.follower.Stop()
		fs := ip.follower.Scheduler()
		fs.StartDraining()
		if _, err := fs.Drain(); err != nil {
			return 0, fmt.Errorf("standby drain: %w", err)
		}
	}
	ip.sched.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ip.http.Shutdown(ctx); err != nil {
		return 0, err
	}
	if err := <-ip.served; err != nil {
		return 0, err
	}
	ip.front.Close()
	st, err := ip.sched.Drain()
	if err != nil {
		return 0, err
	}
	return len(st.Records) + len(st.Queued) + len(st.Pending) + len(st.Canceled), nil
}

// traceServe is the traced run of a service workload: the same traffic
// against the in-process daemon, first bare (the reference for the tracing
// overhead), then decorated; then one life-cycle episode with real processes
// for what only a process has (drain, crash recovery, failover).
func traceServe(c *runCtx, sp serveSpec) error {
	// The serve package logs through the global logger; in-process that
	// would interleave with this program's own report.
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	t0 := time.Now()
	bodies := serveBodies(c)
	c.set("trace.gen_s", time.Since(t0).Seconds())

	// The bare reference lasts a quarter of the run, and the decorated run is
	// compared with it over its own first quarter: in a closed loop the
	// median follows how deep the queue has grown by then.
	quarter := c.dur(c.seconds / 4)
	bare, _, err := inprocRun(c, sp, bodies, quarter, nil)
	if err != nil {
		return err
	}
	buf := newSpanBuf()
	buf.off.Store(true) // until the warm-up is over
	sum, ip, err := inprocRun(c, sp, bodies, c.dur(c.seconds), buf)
	if err != nil {
		return err
	}
	if b := median(bare.submitMs); b > 0 {
		c.set("trace.overhead_share", (sum.submitP50Within(quarter)-b)/b)
	}

	c.set("serveclient.late_ms_max", sum.lateMsMax)
	c.set("serveclient.submit_ok_per_s", median(sum.acksPerS))
	c.set("serveclient.status_p50_ms", median(sum.statusMs))
	c.set("serveclient.submit_p90_ms", percentile(sum.submitMs, 0.9))
	c.set("serveclient.submit_p99_ms", percentile(sum.submitMs, 0.99))
	c.set("serveclient.submit_max_ms", percentile(sum.submitMs, 1))

	spans := buf.snapshot()
	adopt(spans,
		func(n string) bool { return n == "serve.submit" || n == "serve.cancel" || n == "serve.status" },
		func(n string) bool { return n == "backfill.round" || strings.HasPrefix(n, "wal.") })
	// Client spans adopt their handler by request id.
	client := make(map[int64]int)
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "client.") {
			client[s.Req] = s.ID
		}
	}
	for i := range spans {
		if s := &spans[i]; strings.HasPrefix(s.Name, "serve.") && s.Req != 0 {
			s.Parent = client[s.Req]
		}
	}
	self := selfTimes(spans)
	var wire, handler, handlerSelf, statusHandler []float64
	for _, s := range spans {
		switch s.Name {
		case "client.submit":
			wire = append(wire, float64(self[s.ID])/1e6)
		case "serve.submit":
			handler = append(handler, float64(s.dur())/1e6)
			handlerSelf = append(handlerSelf, float64(self[s.ID])/1e6)
		case "serve.status":
			statusHandler = append(statusHandler, float64(s.dur())/1e6)
		}
	}
	c.set("serveclient.wire_ms_p50", median(wire))
	c.set("serveclient.wire_ms_p99", percentile(wire, 0.99))
	c.set("serve.handler_ms_p50", median(handler))
	c.set("serve.handler_ms_p99", percentile(handler, 0.99))
	c.set("serve.handler_ms_max", percentile(handler, 1))
	c.set("serve.self_ms_p50", median(handlerSelf))
	c.set("serve.self_ms_max", percentile(handlerSelf, 1))
	c.set("serve.status_handler_ms_p50", median(statusHandler))

	ip.tb.report(c)
	fs := ip.fs
	c.set("wal.appends", float64(fs.appends))
	c.set("wal.append_us_p50", median(fs.appendUs))
	c.set("wal.syncs", float64(fs.syncs))
	c.set("wal.sync_ms_p50", median(fs.syncMs))
	c.set("wal.sync_ms_p99", percentile(fs.syncMs, 0.99))
	c.set("wal.bytes", float64(fs.bytes))

	buf.spans = spans // write the adopted tree, not the raw buffer
	if err := buf.write(filepath.Join(c.outDir, "trace-"+c.workload+".json")); err != nil {
		return err
	}
	return lifeCycle(c, sp, bodies)
}

// inprocRun starts an in-process daemon in a fresh directory, warms it up,
// offers the plan for d, reads the daemon's own accounting, and drains it.
// With a span buffer the daemon is decorated and the client records spans.
func inprocRun(c *runCtx, sp serveSpec, bodies []*trace.Job, d time.Duration, buf *spanBuf) (loadSummary, *inproc, error) {
	dir, err := runDir(c.outDir, c.workload)
	if err != nil {
		return loadSummary{}, nil, err
	}
	defer os.RemoveAll(dir)
	ip, err := startInproc(dir, sp, buf)
	if err != nil {
		return loadSummary{}, nil, err
	}
	tr := newTransport(serveConns)
	defer tr.CloseIdleConnections()
	var lastAcked atomic.Int64
	warm := summarize(runLoad(ip.base, tr, serveConns, sp.plan(c.dur(min(warmSeconds, c.seconds)), bodies, "w"), &lastAcked, nil), time.Second)
	// Spans and counts cover the timed traffic only: what the decorators saw
	// of recovery and warm-up is dropped, and the daemon's own counts are
	// taken as the difference from here.
	st0, err := ip.sched.Stats()
	if err != nil {
		return loadSummary{}, nil, err
	}
	if buf != nil {
		buf.off.Store(false)
	}

	stopLag := func() int { return 0 }
	if buf != nil && sp.replicated {
		stopLag = sampleLag(ip.sched)
	}
	sum := summarize(runLoad(ip.base, tr, serveConns, sp.plan(d, bodies, "t"), &lastAcked, buf), d)
	lagMax := stopLag()
	c.attempted += warm.attempted + sum.attempted
	c.failed += warm.failed + sum.failed
	if n := warm.failed + sum.failed; n > 0 {
		c.fail("in-process daemon: %d requests failed", n)
	}
	st, err := ip.sched.Stats()
	if err != nil {
		return sum, nil, err
	}
	accounted, err := ip.stop()
	if err != nil {
		return sum, nil, err
	}
	if want := len(warm.acked) + len(sum.acked); accounted < want {
		c.fail("in-process daemon accounted for %d jobs, clients hold %d acknowledgements", accounted, want)
	}
	if buf == nil {
		return sum, ip, nil
	}
	if n := ip.th.n5xx.Load(); n > 0 {
		c.fail("in-process daemon answered %d requests with 5xx", n)
	}
	c.set("serve.queue_depth_end", float64(st.QueueDepth))
	c.set("serve.decisions", float64(st.Decisions-st0.Decisions))
	c.set("serve.decision_ms_p50", st.DecisionP50Ms)
	c.set("serve.decision_ms_p99", st.DecisionP99Ms)
	c.set("serve.submit_ms_p99", st.SubmitP99Ms)
	c.set("serve.shed", float64(st.Shed-st0.Shed))
	c.set("wal.compactions", float64(st.Compactions-st0.Compactions))
	c.set("replica.lag_records_max", float64(lagMax))
	c.set("replica.ack_timeouts", float64(st.ReplAckTimeouts-st0.ReplAckTimeouts))
	if acks := st.Accepted + st.Canceled - st0.Accepted - st0.Canceled; acks > 0 {
		c.set("wal.syncs_per_ack", float64(ip.fs.syncs)/float64(acks))
	}
	if fi, err := os.Stat(filepath.Join(dir, "primary.json")); err == nil {
		c.set("serve.snapshot_kb", float64(fi.Size())/1024)
	}
	c.set("backfill.predict_us", predictDrive(c, bodies, min(st.QueueDepth, predictCap)))
	return sum, ip, nil
}

// sampleLag polls the daemon's replication-lag gauge every 50 ms until the
// returned function is called, which reports the largest value seen. Traced
// runs only: the poll is a command on the daemon's channel.
func sampleLag(s *serve.Scheduler) (stop func() int) {
	quit, done := make(chan struct{}), make(chan struct{})
	lagMax := 0
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			case <-time.After(50 * time.Millisecond):
			}
			if st, err := s.Stats(); err == nil {
				lagMax = max(lagMax, st.ReplLag)
			}
		}
	}()
	return func() int {
		close(quit)
		<-done
		return lagMax
	}
}

// predictDrive times Predictor.Project over a queue of the given depth: the
// work behind every "when will my job start" answer at that backlog.
func predictDrive(c *runCtx, bodies []*trace.Job, depth int) float64 {
	if depth == 0 {
		return 0
	}
	eng, err := sim.NewLiveEngine("predict", serveProcs, 0, sim.Config{Policy: sched.FCFS{}})
	if err != nil {
		return 0
	}
	// Fill the machine, then leave depth jobs waiting behind it.
	for i := 0; eng.QueueLen() < depth && i < len(bodies); i++ {
		j := *bodies[i]
		j.ID, j.Submit = i+1, eng.Now()
		if eng.Inject(&j) != nil || !eng.Step() {
			return 0
		}
	}
	queue := eng.AppendQueued(nil)
	var pr backfill.Predictor
	var out []backfill.PlannedStart
	return drive(c.driveBudget(100*time.Millisecond), 4, func(int) { out = pr.Project(eng, backfill.RequestTime{}, queue, out[:0]) }) / 1e3
}

// lifeCycle measures what only a process has. One daemon takes traffic, is
// SIGKILLed mid-request and restarted over its files (serve.recover_ms: exec
// to "recovery verified" and a healthy /healthz), then drained with SIGTERM
// (serve.drain_ms). A replicated workload instead starts a standby
// (replica.bootstrap_ms), SIGKILLs the primary under traffic and polls the
// standby every 5 ms until it acknowledges a submit (replica.failover_s).
func lifeCycle(c *runCtx, sp serveSpec, bodies []*trace.Job) error {
	dir, err := runDir(c.outDir, c.workload)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c.note("daemon files in %s (%s)", dir, fsTypeName(dir))
	primary, err := startDaemon(c, dir, "primary", sp, "")
	if err != nil {
		return err
	}
	var standby *daemon
	if sp.replicated {
		t0 := time.Now()
		if standby, err = startDaemon(c, dir, "standby", sp, primary.base); err != nil {
			return err
		}
		c.set("replica.bootstrap_ms", time.Since(t0).Seconds()*1e3)
	}

	// Traffic in the background; the kill lands in the middle of it.
	tr := newTransport(serveConns)
	defer tr.CloseIdleConnections()
	var lastAcked atomic.Int64
	d := c.dur(min(1, c.seconds))
	loadDone := make(chan loadSummary, 1)
	go func() {
		loadDone <- summarize(runLoad(primary.base, tr, serveConns, sp.plan(d, bodies, "k"), &lastAcked, nil), d)
	}()
	time.Sleep(d / 2)
	killed := time.Now()
	primary.proc.kill()
	before := <-loadDone // requests after the kill fail fast: connection refused
	acked := len(before.acked)
	c.attempted += int64(acked)

	if sp.replicated {
		cl := serveclient.New([]string{standby.base}, &http.Client{Transport: tr, Timeout: 2 * time.Second})
		deadline := killed.Add(lease + 10*time.Second)
		j := bodies[0]
		for n := 0; ; n++ {
			res, err := cl.SubmitOnce(serve.JobRequest{Procs: j.Procs, Runtime: j.Runtime, Request: j.Request, IdemKey: fmt.Sprintf("f-%d", n)})
			if err == nil && res.Code == http.StatusAccepted {
				acked++
				break
			}
			if time.Now().After(deadline) {
				c.fail("standby did not take over within %v of the primary's death", time.Since(killed).Round(time.Millisecond))
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		failover := time.Since(killed)
		c.attempted++
		c.set("replica.failover_s", failover.Seconds())
		c.set("replica.promote_ms", (failover-lease).Seconds()*1e3)
		if !strings.Contains(standby.proc.log.String(), "promoted to primary") {
			c.fail("standby acknowledged a submit without logging its promotion")
		}
		c.set("serve.drain_ms", standby.stop(c, acked).Seconds()*1e3)
		return nil
	}

	t0 := time.Now()
	again, err := startDaemonAt(c, strings.TrimPrefix(primary.base, "http://"), dir, "primary", sp, "")
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	c.set("serve.recover_ms", time.Since(t0).Seconds()*1e3)
	if !strings.Contains(again.proc.log.String(), "recovery verified") {
		c.fail("restarted daemon did not log \"recovery verified\":\n%s", tail(again.proc.log.String(), 12))
	}
	c.set("serve.drain_ms", again.stop(c, acked).Seconds()*1e3)
	return nil
}
