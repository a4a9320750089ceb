package serve

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/wal"
)

// Warm-standby replication, serve side (DESIGN.md §14): a Follower tails
// the primary's feed, applies each batch through the same kernel and checks
// its history digest against the primary's; on lease expiry it promotes,
// bumping the WAL generation, which is the fencing token.

// --- the replication owner ---

// replication owns the replica role and its fencing, the feed with the WAL
// payloads not yet published to it, and the semi-sync ack wait. feed and
// pend are the run goroutine's; role and leaderHint are shared.
type replication struct {
	role       atomic.Int32
	leaderHint atomic.Value // string: primary base URL, set on followers
	feed       *replica.Feed
	pend       [][]byte // WAL payloads appended since the last publish
	ackTimeout time.Duration
	window     time.Duration // a follower heard from within it is live

	mRole        *metrics.Gauge
	mFenced      *metrics.Counter
	mFailovers   *metrics.Counter
	mFollowers   *metrics.Gauge
	mLag         *metrics.Gauge
	mPublished   *metrics.Counter
	mAckTimeouts *metrics.Counter
	mReseeds     *metrics.Counter
	gLeaseAge    *metrics.FGauge
}

func (r *replication) setRole(role int32) {
	r.role.Store(role)
	r.mRole.Set(int64(role))
}

// queue holds a copy of one appended WAL payload for the next publish.
func (r *replication) queue(p []byte) {
	r.pend = append(r.pend, append([]byte(nil), p...))
}

// publish hands the queued payloads to the feed, stamped with the history
// cursor. Called at round boundaries, so a batch always ends at an instant
// where the digest is well-defined.
func (r *replication) publish(histCount int, histDigest uint32) {
	if len(r.pend) == 0 {
		return
	}
	n := len(r.pend)
	r.feed.Publish(r.pend, histCount, histDigest)
	r.pend = nil
	r.mPublished.Add(int64(n))
	r.mFollowers.Set(int64(r.feed.Followers(r.window)))
	r.mLag.Set(int64(r.feed.Lag(r.window)))
}

// wait is the semi-synchronous ack: a primary waits (bounded) for a live
// follower to durably apply the WAL through (gen, records), so an acked job
// survives the loss of this host. With no live follower replication is
// async by necessity; a timeout degrades this one ack to async.
func (r *replication) wait(gen uint64, records int64, name string) {
	if r.role.Load() != RolePrimary || !r.feed.HasFollower(r.window) {
		return
	}
	if !r.feed.WaitApplied(gen, int(records), r.ackTimeout, r.window) {
		r.mAckTimeouts.Inc()
		log.Printf("serve: %s: semi-sync replication ack timed out after %v; this ack degrades to async",
			name, r.ackTimeout)
	}
}

// standDown closes the feed of a daemon whose durability failed. A live
// follower holds the complete acked history, so a primary with one fences
// itself and lets the lease expiry promote it: accepting writes here would
// fork history. Without followers, degraded service is the lesser evil.
func (r *replication) standDown(name string) {
	if r.feed.HasFollower(r.window) && r.role.CompareAndSwap(RolePrimary, RoleFenced) {
		r.mRole.Set(int64(RoleFenced))
		log.Printf("serve: %s: durability lost with a live follower attached; self-fencing so the follower can take over", name)
	}
	r.feed.Close()
}

// writeAllowed gates state-changing commands by role.
func (s *Scheduler) writeAllowed() error {
	switch s.rep.role.Load() {
	case RoleFollower:
		return ErrFollower
	case RoleFenced:
		s.rep.mFenced.Inc()
		log.Printf("serve: %s: fenced: write refused (generation %d is stale)", s.cfg.Name, s.WALGen())
		return ErrFenced
	}
	return nil
}

// Fence demotes this replica to the fenced role: peerGen at peer exceeds the
// local generation, meaning a follower was promoted while this daemon was
// primary (or down). All subsequent writes are refused with ErrFenced and
// counted in rlbf_fenced_total; reads keep working so operators can inspect
// the zombie's final state.
func (s *Scheduler) Fence(peer string, peerGen uint64) {
	if s.rep.role.Swap(RoleFenced) == RoleFenced {
		return
	}
	if peer != "" {
		s.rep.leaderHint.Store(peer)
	}
	s.rep.mRole.Set(int64(RoleFenced))
	log.Printf("serve: %s: fenced: peer %s holds generation %d > local %d; refusing writes",
		s.cfg.Name, peer, peerGen, s.WALGen())
}

// HistoryFrames serves the first `to` history-log records for a follower
// bootstrap (replica.HistorySource). It reads the file rather than run-
// goroutine state: the bootstrap snapshot is only published after its
// history prefix was synced, so the file always holds at least `to` intact
// records by the time anyone asks.
func (s *Scheduler) HistoryFrames(to int) ([][]byte, error) {
	res, err := wal.Replay(s.dur.fs, s.dur.histPath())
	if err != nil {
		return nil, err
	}
	if len(res.Records) < to {
		return nil, fmt.Errorf("serve: history holds %d records, bootstrap needs %d", len(res.Records), to)
	}
	return res.Records[:to], nil
}

// handleApply mirrors one replication batch (run goroutine, follower role):
// apply each payload through applyCommand, the applier Recover's replay
// uses, and append it verbatim to the local WAL, then compare the derived
// history cursor against the primary's. Divergence is a refusal: the replica
// stops rather than serve (or later promote) a forked history.
func (s *Scheduler) handleApply(b *applyBatch) (int, error) {
	if s.rep.role.Load() != RoleFollower {
		return 0, ErrNotFollower
	}
	for i, p := range b.payloads {
		if err := s.applyCommand(p); err != nil {
			return 0, fmt.Errorf("serve: apply batch record %d: %w", i, err)
		}
		s.logCommand(s.dur.append(p))
	}
	s.syncRecords()
	s.degradeOn(s.dur.sync()) // the ack we send upstream must not outrun our own disk
	if s.degraded.Load() {
		return 0, fmt.Errorf("serve: follower degraded: %s", s.DegradedReason())
	}
	// The continuous byte-verification: our re-derived record stream must
	// carry the primary's exact digest at every batch boundary.
	if count, digest := s.dur.cursor(); count != b.histCount || digest != b.histDigest {
		err := fmt.Errorf("%w: local %d records digest %08x vs primary %d records digest %08x",
			ErrReplicaDivergence, count, digest, b.histCount, b.histDigest)
		log.Printf("serve: %s: %v", s.cfg.Name, err)
		return 0, err
	}
	s.rep.publish(s.dur.cursor()) // keep our own feed current for chained followers / post-promotion rejoins
	s.setGauges()
	if b.rotateTo != 0 && b.rotateTo != s.dur.gen.Load() {
		if err := s.compactTo(b.rotateTo); err != nil {
			return 0, fmt.Errorf("serve: follower rotation: %w", err)
		}
	}
	if !s.dur.on() {
		return 0, errors.New("serve: follower wal closed")
	}
	return int(s.dur.records.Load()), nil
}

// handlePromote (run goroutine) turns a verified follower into the primary.
func (s *Scheduler) handlePromote() error {
	if s.rep.role.Load() != RoleFollower {
		return ErrNotFollower
	}
	// Re-anchor the wall→sim adapter: simulation resumes from the furthest
	// instant the stream proved, counted from this wall moment — the same
	// re-anchoring Recover performs after a crash.
	s.simEpoch = max(s.simEpoch, s.replClock, s.eng.Now())
	s.wallEpoch = s.clock.Now()
	prevGen := s.dur.gen.Load()
	// Bump the generation BEFORE accepting writes: the rotation is the
	// fencing token. A zombie ex-primary restarting at prevGen now probes a
	// higher generation and fences itself.
	if err := s.compact(); err != nil {
		return fmt.Errorf("serve: promote: generation bump failed: %w", err)
	}
	s.rep.setRole(RolePrimary)
	s.rep.mFailovers.Inc()
	s.rep.leaderHint.Store("")
	s.rep.gLeaseAge.Set(0)
	log.Printf("serve: %s: promoted to primary at generation %d (fencing token bumped from %d): recovery verified, %d derived records byte-checked against primary digest %08x, sim clock %d",
		s.cfg.Name, s.dur.gen.Load(), prevGen, s.dur.histCount, s.dur.histDigest, s.eng.Now())
	return nil
}

// --- follower construction and stream loop ---

// FollowConfig parameterizes a Follower beyond its Scheduler Config.
type FollowConfig struct {
	// Peers are candidate primaries (base URLs), tried in order.
	Peers []string
	// Poll is the long-poll wait per stream request; 0 defaults to
	// min(Lease/4, 1s) with a 50ms floor.
	Poll time.Duration
	// HTTP overrides the transport (tests inject replica.FaultTransport).
	HTTP *http.Client
}

// Follower is a warm-standby replica: a read-only Scheduler plus the stream
// loop that keeps it in lockstep with the primary and promotes it when the
// primary's lease expires.
type Follower struct {
	s    *Scheduler
	fc   FollowConfig
	cl   *replica.Client
	stop chan struct{}
	done chan struct{}
	err  atomic.Value // error: divergence or unrecoverable stream state
}

// NewFollower builds a follower replica. With no usable local state it
// bootstraps synchronously from the first reachable peer (snapshot + history
// + verification); with local durability files it recovers in place —
// WITHOUT the generation bump a primary recovery performs — and resumes the
// stream at its local position, unless a reachable primary's position proves
// the local tail stale (then it re-bootstraps). Call Start to begin
// following.
func NewFollower(cfg Config, fc FollowConfig) (*Follower, error) {
	if cfg.WALPath == "" {
		return nil, errors.New("serve: follower requires Config.WALPath")
	}
	if len(fc.Peers) == 0 {
		return nil, errors.New("serve: follower requires at least one peer")
	}
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	applyWALDefaults(&cfg)

	// One probe finds the primary: a local lineage it does not extend (we
	// missed a failover, or our last appends were never replicated and
	// acked) cannot be trusted, so the follower bootstraps fresh from it.
	peer, h := findPrimary(fc)
	local, localGen, localSeq := localPosition(cfg)
	if local && h != nil && (h.Gen != localGen || h.Applied < int64(localSeq)) {
		log.Printf("serve: %s: local wal (gen %d, %d records) does not extend primary %s (gen %d, %d records); re-bootstrapping",
			cfg.Name, localGen, localSeq, peer, h.Gen, h.Applied)
		local = false
	}
	var s *Scheduler
	var err error
	switch {
	case local:
		s, _, err = recoverInternal(cfg, false)
		// Seed our own feed at the resumed mid-generation position so its
		// sequence numbers stay absolute; it cannot serve bootstraps until
		// the next rotation (the mid-generation state is not a rotation
		// snapshot), which Seed encodes by leaving the snapshot nil.
		if err == nil {
			count, digest := s.dur.cursor()
			s.rep.feed.Seed(s.WALGen(), int(s.WALApplied()), count, digest)
		}
	case peer == "":
		err = fmt.Errorf("serve: follower bootstrap: no reachable primary among %v", fc.Peers)
	default:
		s, err = bootstrapFollower(cfg, &replica.Client{Base: peer, Session: cfg.Name, HTTP: fc.HTTP})
	}
	if err != nil {
		return nil, err
	}
	s.rep.setRole(RoleFollower)
	if peer == "" {
		peer = fc.Peers[0]
	}
	s.rep.leaderHint.Store(peer)
	f := &Follower{
		s: s, fc: fc,
		cl:   &replica.Client{Base: peer, Session: cfg.Name, HTTP: fc.HTTP},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	log.Printf("serve: %s: following %s from generation %d, record %d", cfg.Name, peer, s.WALGen(), s.WALApplied())
	return f, nil
}

// localPosition peeks at the on-disk durability files without recovering.
func localPosition(cfg Config) (exists bool, gen uint64, seq int) {
	st, err := readStateFS(cfg.FS, cfg.SnapshotPath)
	if err != nil {
		return false, 0, 0
	}
	gen = st.WALGen
	if res, err := wal.Replay(cfg.FS, cfg.WALPath); err == nil && res.Gen == gen {
		seq = len(res.Records)
	}
	return true, gen, seq
}

// findPrimary probes the peers for one answering /healthz as primary.
func findPrimary(fc FollowConfig) (string, *replica.Health) {
	for _, p := range fc.Peers {
		h, err := (&replica.Client{Base: p, HTTP: fc.HTTP}).Health()
		if err == nil && h.Role == "primary" {
			return p, h
		}
	}
	return "", nil
}

// bootstrapData is one verified primary bootstrap: the rotation snapshot, its
// parsed state, and the history prefix whose digest matched the primary's.
type bootstrapData struct {
	gen    uint64
	state  []byte // raw snapshot JSON (persisted and fed to the local feed)
	st     *State
	frames [][]byte // encoded history payloads, for the local history log
	prior  []metrics.Record
}

// fetchBootstrap pulls the primary's rotation snapshot and history prefix and
// byte-verifies the derived record stream against the primary's digest.
func fetchBootstrap(cl *replica.Client) (*bootstrapData, error) {
	sn, err := cl.Snapshot()
	if err != nil {
		return nil, err
	}
	st, err := parseState(sn.State)
	if err != nil {
		return nil, err
	}
	frames, err := cl.History(sn.HistCount)
	if err != nil {
		return nil, err
	}
	if len(frames) < sn.HistCount {
		return nil, fmt.Errorf("serve: follower bootstrap: primary served %d of %d history records", len(frames), sn.HistCount)
	}
	frames = frames[:sn.HistCount]
	prior, err := decodeHistory(frames)
	if err != nil {
		return nil, fmt.Errorf("serve: follower bootstrap: %w", err)
	}
	if digest := historyDigest(frames); digest != sn.HistDigest {
		return nil, fmt.Errorf("%w: bootstrap history digest %08x vs primary %08x", ErrReplicaDivergence, digest, sn.HistDigest)
	}
	return &bootstrapData{
		gen: sn.Gen, state: sn.State, st: st, frames: frames,
		prior: prior,
	}, nil
}

// installBootstrap persists the bootstrap's durability triple (a history log
// holding its verified prefix, then its snapshot and an empty WAL at the
// snapshot generation through rotate) and points the history cursor at it.
// Any previously open logs must be closed by the caller.
func (s *Scheduler) installBootstrap(b *bootstrapData) error {
	if err := s.dur.createHistory(b.frames); err != nil {
		return fmt.Errorf("serve: follower bootstrap: %w", err)
	}
	if err := s.rotate(b.gen, b.state); err != nil {
		return fmt.Errorf("serve: follower bootstrap: %w", err)
	}
	return nil
}

// bootstrapFollower pulls the primary's rotation snapshot and verified
// history prefix, persists a fresh local durability triple from them, and
// returns a scheduler positioned at (snapshot generation, record 0).
func bootstrapFollower(cfg Config, cl *replica.Client) (*Scheduler, error) {
	b, err := fetchBootstrap(cl)
	if err != nil {
		return nil, err
	}
	s, err := newEmpty(cfg)
	if err == nil {
		err = s.loadState(b.st, b.prior)
	}
	if err == nil {
		// Persist the local triple so a follower restart resumes in place.
		err = s.installBootstrap(b)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// handleReseed (run goroutine) replaces a follower's state with a fresh
// verified bootstrap, for a follower that lagged out of the primary's feed
// retention: NewFollower's bootstrap applied in place, so HTTP bindings,
// metrics and the command channel survive. The state loads before the old
// logs close, so a bootstrap that does not load leaves the follower as it was.
func (s *Scheduler) handleReseed(b *bootstrapData) error {
	if s.rep.role.Load() != RoleFollower {
		return ErrNotFollower
	}
	if s.degraded.Load() {
		return fmt.Errorf("serve: reseed: degraded: %s", s.DegradedReason())
	}
	if err := s.loadState(b.st, b.prior); err != nil {
		return fmt.Errorf("serve: reseed: %w", err)
	}
	s.dur.closeLogs()
	if err := s.installBootstrap(b); err != nil {
		// The old logs are gone and the new triple is incomplete: durability
		// is lost until an operator intervenes, exactly like a failed rotation.
		return s.degradeOn(fmt.Errorf("reseed: %w", err))
	}
	s.rep.mReseeds.Inc()
	count, digest := s.dur.cursor()
	log.Printf("serve: %s: re-bootstrapped in place at generation %d (%d history records, digest %08x)",
		s.cfg.Name, b.gen, count, digest)
	return nil
}

// Scheduler exposes the follower's read-only scheduler for serving.
func (f *Follower) Scheduler() *Scheduler { return f.s }

// Err returns the terminal stream error, if the loop stopped on one
// (divergence, unrecoverable position). A promoted or stopped follower
// without error returns nil.
func (f *Follower) Err() error {
	if e, ok := f.err.Load().(error); ok {
		return e
	}
	return nil
}

// Start launches the scheduler loop and the stream loop.
func (f *Follower) Start() {
	f.s.Start()
	go f.loop()
}

// Stop halts the stream loop (the scheduler keeps serving reads; drain it
// separately). Safe to call after promotion.
func (f *Follower) Stop() {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	<-f.done
}

func (f *Follower) fail(err error) {
	f.err.Store(err)
	log.Printf("serve: %s: follower stream stopped: %v", f.s.cfg.Name, err)
}

func (f *Follower) poll() time.Duration {
	if f.fc.Poll > 0 {
		return f.fc.Poll
	}
	return min(max(f.s.cfg.Lease/4, 50*time.Millisecond), time.Second)
}

// loop is the follower's stream loop: long-poll the primary, apply batches,
// monitor the lease, and on expiry run the election. It exits when the
// follower is stopped, promoted, or hits a terminal error.
func (f *Follower) loop() {
	defer close(f.done)
	poll := f.poll()
	last := time.Now() // last successful stream contact
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		if f.s.rep.role.Load() != RoleFollower {
			return
		}
		f.s.rep.gLeaseAge.Set(time.Since(last).Seconds())
		// The stream position is the local WAL's: its generation and the
		// records applied in it.
		gen, seq := f.s.WALGen(), int(f.s.WALApplied())
		b, err := f.cl.Stream(gen, seq, seq, poll)
		if err == nil && b.SnapshotNeeded {
			// Our position fell out of the primary's retention window (more
			// than one compaction behind). The primary is alive — it answered —
			// so re-bootstrap in place from its current snapshot rather than
			// dying: a warm standby must survive arbitrary lag.
			log.Printf("serve: %s: stream position (gen %d, record %d) left the primary's feed; re-bootstrapping in place",
				f.s.cfg.Name, gen, seq)
			bd, ferr := fetchBootstrap(f.cl)
			if ferr == nil {
				if rerr := f.s.reseed(bd); rerr != nil {
					f.fail(rerr) // local install failed: terminal
					return
				}
				last = time.Now()
				backoff = 50 * time.Millisecond
				continue
			}
			if errors.Is(ferr, ErrReplicaDivergence) {
				f.fail(ferr)
				return
			}
			err = ferr // transient fetch failure: the retry/lease path below
		}
		if err != nil {
			if time.Since(last) > f.s.cfg.Lease {
				switch f.election() {
				case electPromote:
					if perr := f.s.Promote(); perr != nil {
						f.fail(perr)
					}
					return
				case electFollowNew, electWait:
					// Either way we granted a fresh lease: a new primary was
					// adopted, or a better-positioned peer gets its chance.
					last = time.Now()
				}
			}
			select {
			case <-time.After(backoff):
			case <-f.stop:
				return
			}
			backoff = min(backoff*2, 500*time.Millisecond)
			continue
		}
		backoff = 50 * time.Millisecond
		last = time.Now()
		f.s.rep.gLeaseAge.Set(0)
		if b.Gen != gen {
			continue // stale response (duplicate delivery across a rotation)
		}
		recs := b.Records
		switch off := seq - b.Seq; {
		case off < 0:
			continue // gap — should not happen; re-request from our position
		case off >= len(recs):
			// Fully duplicate delivery. Unless it also carries the rotation
			// signal for exactly our position, there is nothing to do.
			if b.NextGen == 0 || seq != b.Seq+len(recs) {
				continue
			}
			recs = nil
		default:
			recs = recs[off:] // partial overlap: apply the fresh suffix
		}
		if len(recs) == 0 && b.NextGen == 0 {
			continue // idle long-poll timeout
		}
		if _, err := f.s.ApplyReplica(recs, b.HistCount, b.HistDigest, b.NextGen); err != nil {
			f.fail(err)
			return
		}
	}
}

type electOutcome int

const (
	electWait electOutcome = iota
	electPromote
	electFollowNew
)

// election decides what to do once the primary's lease has expired: adopt a
// reachable primary at our generation or newer, stand down for a
// better-positioned follower (more applied records; name as the
// deterministic tie-break), or promote ourselves.
func (f *Follower) election() electOutcome {
	myGen, myApplied, myName := f.s.WALGen(), f.s.WALApplied(), f.s.cfg.Name
	for _, p := range f.fc.Peers {
		h, err := (&replica.Client{Base: p, HTTP: f.fc.HTTP}).Health()
		if err != nil {
			continue
		}
		switch {
		case h.Role == "primary" && h.Gen >= myGen:
			f.cl = &replica.Client{Base: p, Session: myName, HTTP: f.fc.HTTP}
			f.s.rep.leaderHint.Store(p)
			log.Printf("serve: %s: adopting primary %s at generation %d", myName, p, h.Gen)
			return electFollowNew
		case h.Role == "follower":
			if h.Gen > myGen ||
				(h.Gen == myGen && h.Applied > myApplied) ||
				(h.Gen == myGen && h.Applied == myApplied && h.Name < myName) {
				log.Printf("serve: %s: standing down for better-positioned follower %s (gen %d, %d applied)",
					myName, p, h.Gen, h.Applied)
				return electWait
			}
		}
	}
	return electPromote
}

// --- fencing handshake for restarting primaries ---

// FenceCheck probes peers against the LOCAL ON-DISK generation at path
// before recovery runs (recovery itself compacts, which would bump the local
// generation and mask a tie with a promoted follower). It returns the peer
// and generation that fence us, or ok=false when no reachable peer is ahead.
func FenceCheck(cfg Config, peers []string, hc *http.Client) (peer string, peerGen uint64, fenced bool) {
	applyWALDefaults(&cfg)
	localGen, err := wal.PeekGen(cfg.FS, cfg.WALPath)
	if err != nil {
		if st, serr := readStateFS(cfg.FS, cfg.SnapshotPath); serr == nil {
			localGen = st.WALGen
		} else if errors.Is(err, os.ErrNotExist) {
			localGen = 0 // brand new daemon: any existing peer generation wins
		}
	}
	for _, p := range peers {
		h, herr := (&replica.Client{Base: p, HTTP: hc}).Health()
		if herr != nil {
			continue
		}
		if h.Gen > localGen && h.Gen > peerGen {
			peer, peerGen, fenced = p, h.Gen, true
		}
	}
	return peer, peerGen, fenced
}

// WatchPeers keeps probing peers in the background and fences the scheduler
// the moment any reachable peer reports a newer generation — the runtime
// guard against a zombie primary that was partitioned during a failover.
// Returns a stop function.
func WatchPeers(s *Scheduler, peers []string, every time.Duration, hc *http.Client) (stop func()) {
	if every <= 0 {
		every = time.Second
	}
	stopC := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopC:
				return
			case <-time.After(every):
			}
			if s.rep.role.Load() != RolePrimary {
				continue
			}
			for _, p := range peers {
				h, err := (&replica.Client{Base: p, HTTP: hc}).Health()
				if err != nil {
					continue
				}
				if h.Gen > s.WALGen() {
					s.Fence(p, h.Gen)
					break
				}
			}
		}
	}()
	return func() { close(stopC) }
}
