package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/replica"
	"repro/internal/wal"
)

// startReplicaPair builds a primary daemon behind an httptest server and a
// follower bootstrapped from it, both on one shared manual clock so the
// failover differential can compare against an uninterrupted reference run.
func startReplicaPair(t *testing.T, clk *ManualClock, compactEvery int, fc FollowConfig, mutP func(*Config)) (*Scheduler, Config, *httptest.Server, *Follower) {
	t.Helper()
	cfgP := walConfig(clk, t.TempDir(), wal.NewFaultFS(wal.OSFS{}), compactEvery)
	cfgP.Name = "alpha"
	if mutP != nil {
		mutP(&cfgP)
	}
	p, err := New(cfgP)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	ts := httptest.NewServer(NewServer(p, 64, 0).Handler())
	t.Cleanup(ts.Close)

	cfgF := walConfig(clk, t.TempDir(), wal.NewFaultFS(wal.OSFS{}), compactEvery)
	cfgF.Name = "bravo"
	cfgF.Lease = time.Hour // tests drive promotion explicitly unless they shrink this
	fc.Peers = append([]string{ts.URL}, fc.Peers...)
	f, err := NewFollower(cfgF, fc)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	t.Cleanup(func() { f.Stop() })
	return p, cfgP, ts, f
}

// waitCaughtUp blocks until the follower's (generation, applied) position
// equals the primary's.
func waitCaughtUp(t *testing.T, p, f *Scheduler, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if p.WALGen() == f.WALGen() && p.WALApplied() == f.WALApplied() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: primary (gen %d, %d applied) vs follower (gen %d, %d applied)",
				p.WALGen(), p.WALApplied(), f.WALGen(), f.WALApplied())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeFailoverDifferential is the tentpole: run half the script on the
// primary with a live follower streaming, SIGKILL the primary, promote the
// follower, run the rest of the script there — the complete record history
// must be byte-identical to one uninterrupted single-node run. Then restart
// the dead primary and pin the fencing handshake: it must refuse writes.
func TestServeFailoverDifferential(t *testing.T) {
	const n, cancelEvery = 160, 7
	ops := makeScript(97, n, 32, false)
	epoch := time.Unix(1700000000, 0)
	want := refRun(t, ops, epoch, cancelEvery)

	for _, compactEvery := range []int{0, 16} {
		t.Run(fmt.Sprintf("compactEvery=%d", compactEvery), func(t *testing.T) {
			clk := NewManualClock(epoch)
			p, cfgP, ts, f := startReplicaPair(t, clk, compactEvery, FollowConfig{}, nil)
			runScriptCancel(t, p, clk, ops[:100], 0, cancelEvery)
			waitCaughtUp(t, p, f.Scheduler(), 10*time.Second)
			genAtCrash := p.WALGen()
			if compactEvery > 0 && genAtCrash < 5 {
				t.Fatalf("generation %d after 100 submissions at CompactEvery=%d; the stream never rotated", genAtCrash, compactEvery)
			}

			// SIGKILL the primary mid-run: no drain, no handover.
			p.crash()
			ts.Close()
			f.Stop()
			if err := f.Err(); err != nil {
				t.Fatalf("follower stream error before promotion: %v", err)
			}
			if err := f.Promote(); err != nil {
				t.Fatalf("promote: %v", err)
			}
			p2 := f.Scheduler()
			if p2.Role() != "primary" {
				t.Fatalf("role %q after promotion", p2.Role())
			}
			if p2.WALGen() <= genAtCrash {
				t.Fatalf("promotion did not bump the fencing token: gen %d, primary died at %d", p2.WALGen(), genAtCrash)
			}

			// The script continues on the new primary as if nothing happened.
			runScriptCancel(t, p2, clk, ops[100:], 100, cancelEvery)

			// The dead primary restarts: the fencing handshake (probe peers
			// against the ON-DISK generation, before recovery bumps it) must
			// refuse it write service.
			ts2 := httptest.NewServer(NewServer(p2, 64, 0).Handler())
			defer ts2.Close()
			peer, peerGen, fenced := FenceCheck(cfgP, []string{ts2.URL}, nil)
			if !fenced || peerGen != p2.WALGen() {
				t.Fatalf("FenceCheck = (%q, %d, %v), want fenced by generation %d", peer, peerGen, fenced, p2.WALGen())
			}
			z, _, err := RecoverFenced(cfgP)
			if err != nil {
				t.Fatalf("zombie recover: %v", err)
			}
			if z.WALGen() != genAtCrash {
				t.Fatalf("fenced recovery rebased the zombie to generation %d; its lineage must stay at %d", z.WALGen(), genAtCrash)
			}
			z.Start()
			z.Fence(peer, peerGen)
			if _, err := z.Submit(JobRequest{Procs: 1, Runtime: 10}); !errors.Is(err, ErrFenced) {
				t.Fatalf("zombie submit: %v, want ErrFenced", err)
			}
			if st, err := z.Stats(); err != nil || st.FencedWrites < 1 {
				t.Fatalf("fenced writes %+v (err %v), want rlbf_fenced_total >= 1", st, err)
			}
			z.crash()

			clk.Advance(24 * time.Hour)
			st, err := p2.Drain()
			if err != nil {
				t.Fatal(err)
			}
			if got := renderRecords(st.Records); got != want {
				t.Fatalf("post-failover schedule differs from uninterrupted run:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestServeFailoverFaultyTransport streams through a fault-injecting
// transport — drops, duplicates, stalls and corrupted chunks — and pins that
// the follower still converges to the primary's exact position with its
// digest verification intact.
func TestServeFailoverFaultyTransport(t *testing.T) {
	ops := makeScript(31, 400, 32, false)
	epoch := time.Unix(1700000000, 0)

	ft := &replica.FaultTransport{DropEvery: 5, DupEvery: 3, CorruptEvery: 7,
		StallEvery: 11, StallFor: 20 * time.Millisecond}
	clk := NewManualClock(epoch)
	// Bound the semi-sync waits: injected faults legitimately delay acks, and
	// each timeout degrades that one ack to async without losing the record.
	// The short poll keeps idle long-polls cycling, so the countdown faults
	// keep firing even when batches coalesce under scheduler load.
	p, _, ts, f := startReplicaPair(t, clk, 0,
		FollowConfig{HTTP: &http.Client{Transport: ft}, Poll: 25 * time.Millisecond},
		func(c *Config) { c.ReplAckTimeout = 100 * time.Millisecond })

	// Submit a base load, then keep feeding script ops until every fault kind
	// has provably hit the stream: how many stream responses the base load
	// spreads across depends on timing, and the corrupt countdown only runs
	// over record-carrying responses.
	runScriptCancel(t, p, clk, ops[:60], 0, 0)
	sent := 60
	for ; ; sent++ {
		_, drops, dups, corrupts, stalls := ft.Counts()
		if drops > 0 && dups > 0 && corrupts > 0 && stalls > 0 {
			break
		}
		if sent == len(ops) {
			requests, drops, dups, corrupts, stalls := ft.Counts()
			t.Fatalf("fault double idle after %d ops (%d requests: drops %d, dups %d, corrupts %d, stalls %d); test proves nothing",
				sent, requests, drops, dups, corrupts, stalls)
		}
		runScriptCancel(t, p, clk, ops[sent:sent+1], sent, 0)
		time.Sleep(10 * time.Millisecond) // let the follower poll between ops
	}
	want := refRun(t, ops[:sent], epoch, 0)
	// Still converged after the full fault menu.
	waitCaughtUp(t, p, f.Scheduler(), 30*time.Second)
	if err := f.Err(); err != nil {
		t.Fatalf("follower stream died under transport faults: %v", err)
	}

	p.crash()
	ts.Close()
	f.Stop()
	if err := f.Promote(); err != nil {
		t.Fatalf("promote after faulty stream: %v", err)
	}
	clk.Advance(24 * time.Hour)
	st, err := f.Scheduler().Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got := renderRecords(st.Records); got != want {
		t.Fatalf("schedule after faulty-transport replication differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// gatedTransport blocks /replica/stream requests until opened, so a test can
// deterministically hold a follower back while the primary compacts its
// position out of the feed's retention window.
type gatedTransport struct {
	open chan struct{}
}

func (g *gatedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/replica/stream" {
		<-g.open
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestServeFollowerReseedsAfterLag holds the follower's stream shut while the
// primary rotates several generations past it, then releases it: the follower
// must re-bootstrap in place (not die), converge, and still produce the exact
// uninterrupted schedule after a failover.
func TestServeFollowerReseedsAfterLag(t *testing.T) {
	const n = 60
	ops := makeScript(41, n, 32, false)
	epoch := time.Unix(1700000000, 0)
	want := refRun(t, ops, epoch, 0)

	gt := &gatedTransport{open: make(chan struct{})}
	var openOnce sync.Once
	release := func() { openOnce.Do(func() { close(gt.open) }) }
	clk := NewManualClock(epoch)
	p, _, ts, f := startReplicaPair(t, clk, 8, FollowConfig{HTTP: &http.Client{Transport: gt}}, nil)
	t.Cleanup(release) // registered after the pair's f.Stop, so it runs first

	// The follower is gated at (gen 1, record 0); rotate far past it.
	runScriptCancel(t, p, clk, ops, 0, 0)
	if gen := p.WALGen(); gen < 4 {
		t.Fatalf("primary only reached generation %d; the follower's position never left the window", gen)
	}
	release()
	waitCaughtUp(t, p, f.Scheduler(), 15*time.Second)
	if err := f.Err(); err != nil {
		t.Fatalf("follower died instead of re-bootstrapping: %v", err)
	}
	if got := f.Scheduler().rep.mReseeds.Value(); got < 1 {
		t.Fatalf("rlbf_repl_rebootstraps_total = %d, want >= 1", got)
	}

	p.crash()
	ts.Close()
	f.Stop()
	if err := f.Promote(); err != nil {
		t.Fatalf("promote after reseed: %v", err)
	}
	clk.Advance(24 * time.Hour)
	st, err := f.Scheduler().Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got := renderRecords(st.Records); got != want {
		t.Fatalf("schedule after in-place re-bootstrap differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestServeFollowerAutoPromote kills the primary and lets the lease do the
// work: no explicit Promote — the follower's own election must notice the
// expired lease, win (no better-positioned peer), and promote itself.
func TestServeFollowerAutoPromote(t *testing.T) {
	epoch := time.Unix(1700000000, 0)
	clk := NewManualClock(epoch)
	cfgP := walConfig(clk, t.TempDir(), wal.NewFaultFS(wal.OSFS{}), 0)
	cfgP.Name = "alpha"
	p, err := New(cfgP)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	ts := httptest.NewServer(NewServer(p, 64, 0).Handler())
	defer ts.Close()

	cfgF := walConfig(clk, t.TempDir(), wal.NewFaultFS(wal.OSFS{}), 0)
	cfgF.Name = "bravo"
	cfgF.Lease = 300 * time.Millisecond
	f, err := NewFollower(cfgF, FollowConfig{Peers: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	for i := 0; i < 5; i++ {
		clk.Advance(time.Second)
		if _, err := p.Submit(JobRequest{Procs: 2, Runtime: 100}); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, p, f.Scheduler(), 10*time.Second)
	p.crash()
	ts.Close()

	deadline := time.Now().Add(15 * time.Second)
	for f.Scheduler().Role() != "primary" {
		if time.Now().After(deadline) {
			t.Fatalf("follower never auto-promoted (role %q, err %v)", f.Scheduler().Role(), f.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := f.Err(); err != nil {
		t.Fatalf("auto-promotion surfaced error: %v", err)
	}
	// The promoted daemon accepts writes immediately.
	if _, err := f.Scheduler().Submit(JobRequest{Procs: 1, Runtime: 10}); err != nil {
		t.Fatalf("submit after auto-promotion: %v", err)
	}
	if _, err := f.Scheduler().Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestServeFollowerReadOnly pins the follower's client-facing contract: writes
// answer 503 with Retry-After and an X-Rlbf-Leader hint; health reports the
// follower role and replication position.
func TestServeFollowerReadOnly(t *testing.T) {
	epoch := time.Unix(1700000000, 0)
	clk := NewManualClock(epoch)
	p, _, ts, f := startReplicaPair(t, clk, 0, FollowConfig{}, nil)
	clk.Advance(time.Second)
	if _, err := p.Submit(JobRequest{Procs: 2, Runtime: 100}); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, f.Scheduler(), 10*time.Second)

	tsF := httptest.NewServer(NewServer(f.Scheduler(), 64, 0).Handler())
	defer tsF.Close()
	resp, _ := post(t, tsF.URL+"/v1/jobs", JobRequest{Procs: 1, Runtime: 10})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower submit status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("follower 503 without Retry-After")
	}
	if leader := resp.Header.Get("X-Rlbf-Leader"); leader != ts.URL {
		t.Fatalf("leader hint %q, want %q", leader, ts.URL)
	}
	req, _ := http.NewRequest(http.MethodDelete, tsF.URL+"/v1/jobs/1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower cancel status %d, want 503", dresp.StatusCode)
	}
	hresp, err := http.Get(tsF.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h replica.Health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if h.Role != "follower" || h.Gen != f.Scheduler().WALGen() || h.Name != "bravo" {
		t.Fatalf("follower health %+v", h)
	}
}

// snapshotCounter counts the follower's /replica/snapshot fetches, the
// requests only a bootstrap makes.
type snapshotCounter struct {
	n atomic.Int64
}

func (c *snapshotCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/replica/snapshot" {
		c.n.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestServeFollowerRestartInPlace crashes a follower mid-stream and rebuilds
// it on its own durability files. While the primary stays on the follower's
// generation, the follower recovers in place and resumes at its (generation,
// record) position without fetching a snapshot; once the primary has rotated
// past it, the follower re-bootstraps. Either way, after a failover the
// complete schedule is byte-identical to one uninterrupted run.
func TestServeFollowerRestartInPlace(t *testing.T) {
	const n, cancelEvery = 90, 7
	ops := makeScript(53, n, 32, false)
	epoch := time.Unix(1700000000, 0)
	want := refRun(t, ops, epoch, cancelEvery)

	for _, row := range []struct {
		name         string
		compactEvery int
		bootstrap    bool
	}{
		{"same generation", 0, false},
		{"primary rotated past it", 8, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			clk := NewManualClock(epoch)
			sc := &snapshotCounter{}
			fc := FollowConfig{HTTP: &http.Client{Transport: sc}}
			// Acks wait for the crashed follower until they time out: keep it short.
			p, _, ts, f := startReplicaPair(t, clk, row.compactEvery, fc,
				func(c *Config) { c.ReplAckTimeout = 20 * time.Millisecond })
			runScriptCancel(t, p, clk, ops[:30], 0, cancelEvery)
			waitCaughtUp(t, p, f.Scheduler(), 10*time.Second)

			// SIGKILL the follower: no drain, no close.
			cfgF := f.Scheduler().cfg
			genAtCrash := f.Scheduler().WALGen()
			f.Stop()
			f.Scheduler().crash()
			runScriptCancel(t, p, clk, ops[30:60], 30, cancelEvery)
			if rotated := p.WALGen() != genAtCrash; rotated != row.bootstrap {
				t.Fatalf("primary at generation %d, follower crashed at %d: rotated %v, row expects %v",
					p.WALGen(), genAtCrash, rotated, row.bootstrap)
			}

			fetches := sc.n.Load()
			f2, err := NewFollower(cfgF, f.fc)
			if err != nil {
				t.Fatalf("restart follower: %v", err)
			}
			f2.Start()
			t.Cleanup(f2.Stop)
			runScriptCancel(t, p, clk, ops[60:], 60, cancelEvery)
			waitCaughtUp(t, p, f2.Scheduler(), 10*time.Second)
			if err := f2.Err(); err != nil {
				t.Fatalf("restarted follower stream error: %v", err)
			}
			if got := sc.n.Load() - fetches; (got > 0) != row.bootstrap {
				t.Fatalf("restarted follower fetched %d snapshots; bootstrap expected: %v", got, row.bootstrap)
			}
			if got := f2.Scheduler().rep.mReseeds.Value(); got != 0 {
				t.Fatalf("rlbf_repl_rebootstraps_total = %d after a restart, want 0", got)
			}

			p.crash()
			ts.Close()
			f2.Stop()
			if err := f2.Promote(); err != nil {
				t.Fatalf("promote restarted follower: %v", err)
			}
			clk.Advance(24 * time.Hour)
			st, err := f2.Scheduler().Drain()
			if err != nil {
				t.Fatal(err)
			}
			if got := renderRecords(st.Records); got != want {
				t.Fatalf("schedule after follower restart differs from uninterrupted run:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
