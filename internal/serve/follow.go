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

// Warm-standby replication, serve side (DESIGN.md §14). The primary's run
// goroutine mirrors every WAL append into the replica.Feed and publishes at
// round boundaries, so batch ends always coincide with history-digest
// samples; a Follower tails the feed, applies each batch through the same
// deterministic kernel, and byte-verifies its derived record stream against
// the primary's digest continuously. Failover is lease-based: a follower
// that cannot make stream progress for Config.Lease holds an election among
// its peers and, if best positioned, promotes — bumping the WAL generation,
// which doubles as the fencing token a restarting zombie primary checks
// before accepting writes.

// --- primary-side hooks (run goroutine only) ---

// publishRepl hands the WAL payloads appended since the last publish to the
// replication feed, stamped with the history cursor as of now. Called at
// round boundaries (end of advanceTo, after a cancel append), so a batch
// always ends at an instant where the digest is well-defined.
func (s *Scheduler) publishRepl() {
	if s.feed == nil || len(s.repPend) == 0 {
		return
	}
	n := len(s.repPend)
	s.feed.Publish(s.repPend, s.histCount, s.histDigest)
	s.repPend = nil
	s.mReplPublished.Add(int64(n))
	w := replLiveWindow(s.cfg)
	s.mReplFollowers.Set(int64(s.feed.Followers(w)))
	s.mReplLag.Set(int64(s.feed.Lag(w)))
}

// replWait is the semi-synchronous ack: after an fsync'd client-visible
// append, the primary waits (bounded) for a live follower to durably apply
// it, so an acked job survives the loss of this host. With no live follower
// the wait is skipped — replication is then async by necessity; a timeout
// degrades this one ack to async and is counted.
func (s *Scheduler) replWait() {
	if s.feed == nil || s.wlog == nil || s.role.Load() != RolePrimary {
		return
	}
	w := replLiveWindow(s.cfg)
	if !s.feed.HasFollower(w) {
		return
	}
	if !s.feed.WaitApplied(s.walGen, s.wlog.Records(), s.cfg.ReplAckTimeout, w) {
		s.mReplAckTimeouts.Inc()
		log.Printf("serve: %s: semi-sync replication ack timed out after %v; this ack degrades to async",
			s.cfg.Name, s.cfg.ReplAckTimeout)
	}
}

// HistoryFrames serves the first `to` history-log records for a follower
// bootstrap (replica.HistorySource). It reads the file rather than run-
// goroutine state: the bootstrap snapshot is only published after its
// history prefix was synced, so the file always holds at least `to` intact
// records by the time anyone asks.
func (s *Scheduler) HistoryFrames(to int) ([][]byte, error) {
	res, err := wal.Replay(s.fs, historyPath(s.cfg))
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
	if s.role.Load() != RoleFollower {
		return 0, ErrNotFollower
	}
	if s.degraded.Load() {
		return 0, fmt.Errorf("serve: follower degraded: %s", s.DegradedReason())
	}
	for i, p := range b.payloads {
		if err := s.applyCommand(p); err != nil {
			return 0, fmt.Errorf("serve: apply batch record %d: %w", i, err)
		}
		s.walAppend(p)
	}
	s.syncRecords()
	s.walSync() // the ack we send upstream must not outrun our own disk
	if s.degraded.Load() {
		return 0, fmt.Errorf("serve: follower degraded: %s", s.DegradedReason())
	}
	// The continuous byte-verification: our re-derived record stream must
	// carry the primary's exact digest at every batch boundary.
	if s.histCount != b.histCount || s.histDigest != b.histDigest {
		err := fmt.Errorf("%w: local %d records digest %08x vs primary %d records digest %08x",
			ErrReplicaDivergence, s.histCount, s.histDigest, b.histCount, b.histDigest)
		log.Printf("serve: %s: %v", s.cfg.Name, err)
		return 0, err
	}
	s.publishRepl() // keep our own feed current for chained followers / post-promotion rejoins
	s.mQueue.Set(int64(s.eng.QueueLen()))
	s.mFree.Set(int64(s.eng.FreeProcs()))
	s.mRunning.Set(int64(s.eng.RunningCount()))
	if b.rotateTo != 0 && b.rotateTo != s.walGen {
		s.compactTo(b.rotateTo)
		if s.degraded.Load() {
			return 0, fmt.Errorf("serve: follower rotation: %s", s.DegradedReason())
		}
	}
	if s.wlog == nil {
		return 0, errors.New("serve: follower wal closed")
	}
	return s.wlog.Records(), nil
}

// handlePromote (run goroutine) turns a verified follower into the primary.
func (s *Scheduler) handlePromote() error {
	if s.role.Load() != RoleFollower {
		return ErrNotFollower
	}
	if s.degraded.Load() {
		return fmt.Errorf("serve: promote: degraded: %s", s.DegradedReason())
	}
	// Re-anchor the wall→sim adapter: simulation resumes from the furthest
	// instant the stream proved, counted from this wall moment — the same
	// re-anchoring Recover performs after a crash.
	s.simEpoch = max(s.simEpoch, s.replClock, s.eng.Now())
	s.wallEpoch = s.clock.Now()
	prevGen := s.walGen
	// Bump the generation BEFORE accepting writes: the rotation is the
	// fencing token. A zombie ex-primary restarting at prevGen now probes a
	// higher generation and fences itself.
	s.compact()
	if s.degraded.Load() {
		return fmt.Errorf("serve: promote: generation bump failed: %s", s.DegradedReason())
	}
	s.role.Store(RolePrimary)
	s.mRole.Set(int64(RolePrimary))
	s.mFailovers.Inc()
	s.leaderHint.Store("")
	s.gLeaseAge.Set(0)
	log.Printf("serve: %s: promoted to primary at generation %d (fencing token bumped from %d): recovery verified, %d derived records byte-checked against primary digest %08x, sim clock %d",
		s.cfg.Name, s.walGen, prevGen, s.histCount, s.histDigest, s.eng.Now())
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
	// Session identifies this follower in the primary's durability acks;
	// "" defaults to the scheduler name.
	Session string
}

// Follower is a warm-standby replica: a read-only Scheduler plus the stream
// loop that keeps it in lockstep with the primary and promotes it when the
// primary's lease expires.
type Follower struct {
	s     *Scheduler
	fc    FollowConfig
	lease time.Duration
	cl    *replica.Client
	gen   uint64
	seq   int
	stop  chan struct{}
	done  chan struct{}
	err   atomic.Value // error: divergence or unrecoverable stream state
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
	applyWALDefaults(&cfg)
	if fc.Session == "" {
		fc.Session = cfg.Name
	}

	var s *Scheduler
	var peer string
	local, localGen, localSeq := localPosition(cfg)
	if local {
		p, h := findPrimary(fc)
		if h != nil && (h.Gen != localGen || h.Applied < int64(localSeq)) {
			// The primary is on another generation (we missed a failover) or
			// behind our local tail (our last appends were never replicated
			// and acked): the local lineage cannot be trusted. Bootstrap
			// fresh from the primary's snapshot.
			log.Printf("serve: %s: local wal (gen %d, %d records) does not extend primary %s (gen %d, %d records); re-bootstrapping",
				cfg.Name, localGen, localSeq, p, h.Gen, h.Applied)
			local = false
			peer = p
		} else if h != nil {
			peer = p
		}
	}
	var err error
	if local {
		s, _, err = recoverInternal(cfg, false)
		// Seed our own feed at the resumed mid-generation position so its
		// sequence numbers stay absolute; it cannot serve bootstraps until
		// the next rotation (the mid-generation state is not a rotation
		// snapshot), which Seed encodes by leaving the snapshot nil.
		if err == nil && s.feed != nil {
			s.feed.Seed(s.walGen, int(s.walCount.Load()), s.histCount, s.histDigest)
		}
	} else {
		s, peer, err = bootstrapFollower(cfg, fc)
	}
	if err != nil {
		return nil, err
	}
	s.role.Store(RoleFollower)
	s.mRole.Set(int64(RoleFollower))
	if peer == "" {
		peer = fc.Peers[0]
	}
	s.leaderHint.Store(peer)
	f := &Follower{
		s: s, fc: fc, lease: cfg.Lease,
		cl:   &replica.Client{Base: peer, Session: fc.Session, HTTP: fc.HTTP},
		gen:  s.walGen,
		seq:  int(s.walCount.Load()),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	log.Printf("serve: %s: following %s from generation %d, record %d", cfg.Name, peer, f.gen, f.seq)
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
	gen        uint64
	state      []byte // raw snapshot JSON (persisted and fed to the local feed)
	st         *State
	frames     [][]byte // encoded history payloads, for the local history log
	prior      []metrics.Record
	histCount  int
	histDigest uint32
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
	var digest uint32
	prior := make([]metrics.Record, 0, len(frames))
	for i, p := range frames {
		rec, err := decodeWalRec(p)
		if err != nil || rec.kind != walKindRecord {
			return nil, fmt.Errorf("serve: follower bootstrap: history entry %d: %v", i, err)
		}
		prior = append(prior, metrics.Record{Job: rec.job, Start: rec.start, End: rec.end})
		digest = wal.Digest(digest, p)
	}
	if digest != sn.HistDigest {
		return nil, fmt.Errorf("%w: bootstrap history digest %08x vs primary %08x", ErrReplicaDivergence, digest, sn.HistDigest)
	}
	return &bootstrapData{
		gen: sn.Gen, state: sn.State, st: st, frames: frames,
		prior: prior, histCount: sn.HistCount, histDigest: digest,
	}, nil
}

// installBootstrap persists the bootstrap's durability triple (a history log
// holding its verified prefix, then its snapshot and an empty WAL at the
// snapshot generation through rotate) and points the history cursor at it.
// Any previously open logs must be closed by the caller.
func (s *Scheduler) installBootstrap(b *bootstrapData) error {
	if err := s.createHistory(b.frames); err != nil {
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
func bootstrapFollower(cfg Config, fc FollowConfig) (*Scheduler, string, error) {
	peer, _ := findPrimary(fc)
	if peer == "" {
		return nil, "", fmt.Errorf("serve: follower bootstrap: no reachable primary among %v", fc.Peers)
	}
	cl := &replica.Client{Base: peer, Session: fc.Session, HTTP: fc.HTTP}
	b, err := fetchBootstrap(cl)
	if err != nil {
		return nil, "", err
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
		return nil, "", err
	}
	return s, peer, nil
}

// handleReseed (run goroutine) replaces a follower's entire state with a
// fresh verified bootstrap — the recovery path for a follower whose stream
// position fell out of the primary's feed retention (it lagged more than one
// compaction behind). It is NewFollower's bootstrap applied in place, through
// the same loader and rotation, so the scheduler identity — HTTP bindings,
// metrics registry, command channel — survives the reset. The state loads
// before the old logs close, so a bootstrap that does not load leaves the
// follower as it was.
func (s *Scheduler) handleReseed(b *bootstrapData) error {
	if s.role.Load() != RoleFollower {
		return ErrNotFollower
	}
	if s.degraded.Load() {
		return fmt.Errorf("serve: reseed: degraded: %s", s.DegradedReason())
	}
	if err := s.loadState(b.st, b.prior); err != nil {
		return fmt.Errorf("serve: reseed: %w", err)
	}
	s.closeLogs()
	if err := s.installBootstrap(b); err != nil {
		// The old logs are gone and the new triple is incomplete: durability
		// is lost until an operator intervenes, exactly like a failed rotation.
		s.degrade("reseed", err)
		return err
	}
	s.mReplReseeds.Inc()
	log.Printf("serve: %s: re-bootstrapped in place at generation %d (%d history records, digest %08x)",
		s.cfg.Name, b.gen, b.histCount, b.histDigest)
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

// Promote forces an immediate promotion (tests and operator tooling; the
// loop itself promotes on lease expiry).
func (f *Follower) Promote() error { return f.s.Promote() }

func (f *Follower) fail(err error) {
	f.err.Store(err)
	log.Printf("serve: %s: follower stream stopped: %v", f.s.cfg.Name, err)
}

func (f *Follower) poll() time.Duration {
	if f.fc.Poll > 0 {
		return f.fc.Poll
	}
	return min(max(f.lease/4, 50*time.Millisecond), time.Second)
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
		if f.s.role.Load() != RoleFollower {
			return
		}
		f.s.gLeaseAge.Set(time.Since(last).Seconds())
		b, err := f.cl.Stream(f.gen, f.seq, f.seq, poll)
		if err == nil && b.SnapshotNeeded {
			// Our position fell out of the primary's retention window (more
			// than one compaction behind). The primary is alive — it answered —
			// so re-bootstrap in place from its current snapshot rather than
			// dying: a warm standby must survive arbitrary lag.
			log.Printf("serve: %s: stream position (gen %d, record %d) left the primary's feed; re-bootstrapping in place",
				f.s.cfg.Name, f.gen, f.seq)
			bd, ferr := fetchBootstrap(f.cl)
			if ferr == nil {
				if rerr := f.s.Reseed(bd); rerr != nil {
					f.fail(rerr) // local install failed: terminal
					return
				}
				f.gen, f.seq = bd.gen, 0
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
			if time.Since(last) > f.lease {
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
		f.s.gLeaseAge.Set(0)
		if b.Gen != f.gen {
			continue // stale response (duplicate delivery across a rotation)
		}
		recs := b.Records
		switch off := f.seq - b.Seq; {
		case off < 0:
			continue // gap — should not happen; re-request from our position
		case off >= len(recs):
			// Fully duplicate delivery. Unless it also carries the rotation
			// signal for exactly our position, there is nothing to do.
			if b.NextGen == 0 || f.seq != b.Seq+len(recs) {
				continue
			}
			recs = nil
		default:
			recs = recs[off:] // partial overlap: apply the fresh suffix
		}
		if len(recs) == 0 && b.NextGen == 0 {
			continue // idle long-poll timeout
		}
		seq, aerr := f.s.ApplyReplica(recs, b.HistCount, b.HistDigest, b.NextGen)
		if aerr != nil {
			f.fail(aerr)
			return
		}
		if b.NextGen != 0 {
			f.gen = b.NextGen
		}
		f.seq = seq
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
			f.cl = &replica.Client{Base: p, Session: f.fc.Session, HTTP: f.fc.HTTP}
			f.s.leaderHint.Store(p)
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
			if s.role.Load() != RolePrimary {
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
