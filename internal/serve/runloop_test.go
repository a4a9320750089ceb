package serve

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/wal"
)

// tickClock is a test clock that moves forward by step on every read of Now
// (step 0 holds it still). A daemon at TimeScale 1 whose running set ends a
// job every simulated second is then always behind: each pass reads the
// clock at least once, so the next event is due again as soon as the pass
// ends. After never fires, as on ManualClock.
type tickClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.t
	c.t = c.t.Add(c.step)
	return t
}

func (c *tickClock) After(time.Duration) <-chan time.Time { return nil }

func (c *tickClock) setStep(d time.Duration) {
	c.mu.Lock()
	c.step = d
	c.mu.Unlock()
}

// behindDaemon starts a daemon on a held tickClock whose n processors run n
// one-processor jobs, all submitted at simulated second 0, ending at seconds
// 1..n. Once the test sets the clock's step to a second, a catch-up chase
// lasts until the last job ends. mut adjusts the config before New, and
// prep the scheduler before Start.
func behindDaemon(t *testing.T, n int, mut func(*Config), prep func(*Scheduler)) (*Scheduler, *tickClock) {
	t.Helper()
	clk := &tickClock{t: time.Unix(1700000000, 0)}
	cfg := Config{Name: "behind", Procs: n, Policy: sched.FCFS{}, TimeScale: 1, Clock: clk}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(s)
	}
	s.Start()
	for i := 1; i <= n; i++ {
		res, err := s.Submit(JobRequest{Procs: 1, Runtime: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Started || res.Submit != 0 {
			t.Fatalf("setup job %d: started %v at %d, want started at 0", res.ID, res.Started, res.Submit)
		}
	}
	return s, clk
}

// waitParked blocks until some goroutine is parked in the command hand-over
// of the Scheduler method named by frame (for example "Submit"), so a test
// knows a command is waiting on the loop. It fails the test after 10 s.
func waitParked(t *testing.T, frame string) {
	want := "serve.(*Scheduler)." + frame + "("
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, "serve.(*Scheduler).do(") && strings.Contains(g, want) {
				return
			}
		}
	}
	t.Errorf("no goroutine parked in %s's hand-over within 10 s", frame)
}

// TestServeSubmitNotStarvedByChase pins the command-first rule: a submit
// that waits while the engine is behind is taken before the next catch-up
// pass, so it is answered while events are still due instead of after the
// whole chase.
func TestServeSubmitNotStarvedByChase(t *testing.T) {
	const n = 2000
	hold := make(chan struct{}, 1)
	entered := make(chan struct{})
	s, clk := behindDaemon(t, n, nil, func(s *Scheduler) {
		s.testSlow = func() {
			select {
			case <-hold:
				close(entered)
				waitParked(t, "Submit")
			default:
			}
		}
	})
	clk.setStep(time.Second)
	hold <- struct{}{}
	synced := make(chan error, 1)
	go func() { synced <- s.Sync() }()
	<-entered
	// The Sync round holds the loop until this submit is waiting; after it
	// the engine is behind, with every job but the first few still running.
	res, err := s.Submit(JobRequest{Procs: 1, Runtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if res.Submit >= n {
		t.Fatalf("submit admitted at second %d, after the chase ended (last job ends at %d): it waited out every due event", res.Submit, n)
	}
	clk.setStep(0)
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestServeRefusedSubmitsDoNotStallClock pins the refused-command guard: a
// refused submit advances nothing, so a stream of them, each waiting when
// the loop looks, must still let a catch-up pass run between them; and a
// Sync after the stream returns.
func TestServeRefusedSubmitsDoNotStallClock(t *testing.T) {
	const n, k = 2000, 100
	hold := make(chan struct{}, 1)
	entered, release := make(chan struct{}), make(chan struct{})
	var clocks []int64 // engine clock as each command after the held one is taken
	armed := false
	// The command channel is buffered, so the whole stream is waiting in a
	// fixed order when the held round ends.
	s, clk := behindDaemon(t, n, nil, func(s *Scheduler) {
		s.cmds = make(chan command, k+1)
		s.testSlow = func() {
			select {
			case <-hold:
				close(entered)
				<-release
				armed = true
				return
			default:
			}
			if armed {
				clocks = append(clocks, s.eng.Now())
			}
		}
	})
	s.StartDraining()
	clk.setStep(time.Second)
	hold <- struct{}{}
	held := make(chan error, 1)
	go func() { held <- s.Sync() }()
	<-entered
	replies := make([]chan reply, k)
	for i := range replies {
		replies[i] = make(chan reply, 1)
		s.cmds <- command{kind: cmdSubmit, req: JobRequest{Procs: 1, Runtime: 1}, reply: replies[i], sent: time.Now()}
	}
	close(release)
	for i, r := range replies {
		if err := (<-r).err; !errors.Is(err, ErrDraining) {
			t.Fatalf("refused submit %d: err %v, want ErrDraining", i, err)
		}
	}
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(clocks) != k+1 {
		t.Fatalf("hook saw %d commands after the held round, want %d", len(clocks), k+1)
	}
	for i := 1; i < k; i++ {
		if clocks[i] <= clocks[i-1] {
			t.Fatalf("refused submits %d and %d both taken at engine second %d: no pass ran between them", i-1, i, clocks[i])
		}
	}
	clk.setStep(0)
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestServeChaseCompacts pins compaction during a catch-up chase: with no
// command arriving, the passes alone append advance records, and the WAL
// must still rotate at CompactEvery rather than grow with the chase.
func TestServeChaseCompacts(t *testing.T) {
	const n, every = 300, 16
	dir := t.TempDir()
	s, clk := behindDaemon(t, n, func(cfg *Config) {
		*cfg = walConfig(cfg.Clock, dir, wal.OSFS{}, every)
		cfg.Procs, cfg.Backfiller = n, nil
	}, nil)
	gen0 := s.WALGen()
	clk.setStep(time.Second)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	most := int64(0)
	for deadline := time.Now().Add(10 * time.Second); s.mRunning.Value() > 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the chase did not finish within 10 s")
		}
		most = max(most, s.WALApplied())
	}
	most = max(most, s.WALApplied())
	if most > every {
		t.Fatalf("WAL held %d records during the chase, past CompactEvery %d", most, every)
	}
	clk.setStep(0)
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Finished != n || s.WALGen() <= gen0 {
		t.Fatalf("after the chase: %d finished (want %d), WAL generation %d -> %d", st.Finished, n, gen0, s.WALGen())
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestServeCommandWaitCoversSlowRound pins rlbf_command_wait_seconds: a
// submit that waits through a slow round records at least the part of the
// round it waited for.
func TestServeCommandWaitCoversSlowRound(t *testing.T) {
	const hold = 40 * time.Millisecond
	slow := make(chan struct{}, 1)
	entered := make(chan struct{})
	s, err := New(testConfig(NewManualClock(time.Unix(1700000000, 0))))
	if err != nil {
		t.Fatal(err)
	}
	s.testSlow = func() {
		select {
		case <-slow:
			close(entered)
			waitParked(t, "Submit")
			time.Sleep(hold)
		default:
		}
	}
	s.Start()
	slow <- struct{}{}
	synced := make(chan error, 1)
	go func() { synced <- s.Sync() }()
	<-entered
	if _, err := s.Submit(JobRequest{Procs: 1, Runtime: 10}); err != nil {
		t.Fatal(err)
	}
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if ms := float64(hold) / float64(time.Millisecond); st.CmdWaitMaxMs < ms || st.CmdWaitP99Ms <= 0 {
		t.Fatalf("command wait p99 %.3f ms, max %.3f ms; the submit waited at least %.0f ms", st.CmdWaitP99Ms, st.CmdWaitMaxMs, ms)
	}
	if got := s.hCmdWait.Count(); got != int64(3) {
		t.Fatalf("rlbf_command_wait_seconds counted %d commands, want 3 (sync, submit, stats)", got)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}
