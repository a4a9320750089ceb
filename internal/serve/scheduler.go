// Package serve turns the batch scheduling simulator into a long-lived
// scheduler service: a single authoritative sim.Engine driven in real or
// scaled time by streaming job submissions, cancellations and status queries
// from many concurrent clients (DESIGN.md §12).
//
// The concurrency model is single-writer: every engine mutation happens on
// one goroutine (run), which consumes commands from an unbuffered channel.
// HTTP handlers — bounded by the shared internal/pool semaphore — only ever
// send commands and wait for replies, so the scheduling kernel needs no
// locks and stays exactly the deterministic batch kernel. The clock adapter
// maps wall time to simulation seconds (simNow = simEpoch + elapsed *
// TimeScale); between commands the goroutine sleeps until the next pending
// engine event's wall deadline. Crash recovery is the write-ahead log of
// DESIGN.md §13: every state-changing command is logged before its ack, the
// log rotates through live-state snapshots, and Recover replays snapshot plus
// log tail into a byte-identical schedule.
package serve

import (
	"errors"
	"fmt"
	"log"
	"maps"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/backfill"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Config assembles a scheduler daemon.
type Config struct {
	// Name labels the deployment (snapshot files, logs).
	Name string
	// Procs and Mem size the machine (Mem 0 disables the memory dimension).
	Procs, Mem int
	// Policy is the base scheduling policy; required.
	Policy sched.Policy
	// Backfiller runs when the head job cannot start; nil disables
	// backfilling.
	Backfiller backfill.Backfiller
	// Scenario layers priority tiers / starvation bounds onto the policy.
	Scenario sched.Scenario
	// Estimator predicts runtimes for reservations and predicted-start
	// answers; nil defaults to RequestTime (plain EASY semantics).
	Estimator backfill.Estimator
	// TimeScale is simulated seconds per wall-clock second; 0 defaults to 1
	// (real time). 3600 runs an hour of cluster time per second.
	TimeScale float64
	// Clock abstracts wall time; nil defaults to RealClock.
	Clock Clock
	// SnapshotPath receives the live-state JSON snapshots (atomic tmp+rename)
	// the WAL rotates through, plus the drain snapshot. Requires WALPath.
	SnapshotPath string
	// PredictCap bounds the queue depth up to which predicted starts are
	// computed: projecting is O(queue) profile placements, so a deep backlog
	// would turn every status query into a full plan. 0 defaults to 4096;
	// beyond the cap /status reports the job queued without a prediction.
	PredictCap int
	// Registry receives the daemon's metrics; nil creates a private one.
	Registry *metrics.Registry
	// WALPath, when non-empty, enables the durability layer (DESIGN.md §13):
	// every state-changing command is appended to a checksummed write-ahead
	// log and fsync'd before the client sees its acknowledgement, so a crash
	// at any instant loses no accepted work. Requires SnapshotPath.
	WALPath string
	// CompactEvery rotates the durability files once the WAL holds this many
	// records (snapshot + fresh generation), bounding both log growth and
	// recovery replay. 0 defaults to 4096.
	CompactEvery int
	// FS abstracts the filesystem for fault-injection tests; nil = the real
	// one.
	FS wal.FS
	// Lease is the failover lease: a follower that cannot make stream
	// progress against its primary for this long promotes itself. Also
	// advertised via /healthz so operators see the configured window. 0
	// defaults to 3s.
	Lease time.Duration
	// RoundBudget arms the stuck-round watchdog: if one scheduling pass
	// (command handling plus its engine advance) exceeds the budget, the
	// watchdog sets rlbf_round_stalled and logs a full goroutine dump.
	// 0 disables.
	RoundBudget time.Duration
	// ReplAckTimeout bounds the semi-synchronous replication ack: with a
	// live follower attached, submit/cancel acks wait up to this long for
	// the follower to durably apply the record before degrading (for that
	// ack) to asynchronous replication. 0 defaults to 1s.
	ReplAckTimeout time.Duration
}

// checkConfig refuses settings no daemon can run with. The constructors and
// Recover call it before they apply a default or open a file, so 0 keeps
// meaning "default" and a refused daemon touches nothing on disk.
func checkConfig(cfg Config) error {
	switch b := cfg.Scenario.StarvationBound; {
	case cfg.PredictCap < 0:
		return fmt.Errorf("serve: negative PredictCap %d (0 = the default)", cfg.PredictCap)
	case cfg.CompactEvery < 0:
		return fmt.Errorf("serve: negative CompactEvery %d (0 = the default)", cfg.CompactEvery)
	case !(b >= 0) || math.IsInf(b, 1):
		return fmt.Errorf("serve: starvation bound %v is not finite and >= 0", b)
	}
	return nil
}

// applyWALDefaults resolves the durability defaults shared by the
// constructors and Recover.
func applyWALDefaults(cfg *Config) {
	if cfg.FS == nil {
		cfg.FS = wal.OSFS{}
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 4096
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 3 * time.Second
	}
	if cfg.ReplAckTimeout <= 0 {
		cfg.ReplAckTimeout = time.Second
	}
}

// Errors the command API returns.
var (
	// ErrDraining rejects submissions once drain has begun.
	ErrDraining = errors.New("serve: draining, not accepting submissions")
	// ErrStopped rejects every command after the scheduler loop has exited.
	ErrStopped = errors.New("serve: scheduler stopped")
	// ErrFollower rejects writes on a replica that is following a primary.
	ErrFollower = errors.New("serve: not primary (following)")
	// ErrFenced rejects writes on a fenced ex-primary: a peer holds a
	// newer WAL generation, so accepting anything here would fork history.
	ErrFenced = errors.New("serve: fenced: a newer primary generation exists")
	// ErrNotFollower rejects Promote on a scheduler that is not following.
	ErrNotFollower = errors.New("serve: promote: not a follower")
	// ErrReplicaDivergence reports that applying the primary's stream
	// produced a derived record stream whose digest differs from the
	// primary's — determinism is broken and the replica must not be
	// trusted (and in particular must never promote itself).
	ErrReplicaDivergence = errors.New("serve: replica diverges from primary history digest")
)

// Replica roles. A scheduler is born a primary; NewFollower constructs
// followers; Fence demotes a zombie primary.
const (
	RolePrimary int32 = iota
	RoleFollower
	RoleFenced
)

func roleName(r int32) string {
	switch r {
	case RoleFollower:
		return "follower"
	case RoleFenced:
		return "fenced"
	default:
		return "primary"
	}
}

// JobRequest is a client submission.
type JobRequest struct {
	Procs    int   `json:"procs"`
	Mem      int   `json:"mem,omitempty"`
	Runtime  int64 `json:"runtime"`
	Request  int64 `json:"request,omitempty"`
	Priority int   `json:"priority,omitempty"`
	// IdemKey, when non-empty, deduplicates retries: a key already seen
	// returns the original job's acknowledgement (Duplicate set) instead of
	// enqueueing a second copy. Carried by the Idempotency-Key HTTP header,
	// persisted through snapshots and the WAL.
	IdemKey string `json:"-"`
}

// SubmitResult acknowledges a submission.
type SubmitResult struct {
	ID             int   `json:"id"`
	Submit         int64 `json:"submit"`
	Started        bool  `json:"started"`
	PredictedStart int64 `json:"predicted_start"` // -1 when unavailable
	// Duplicate marks a replayed acknowledgement for an idempotency key that
	// was already accepted.
	Duplicate bool `json:"duplicate,omitempty"`
}

// JobStatus answers "when will my job start?".
type JobStatus struct {
	ID             int    `json:"id"`
	State          string `json:"state"` // queued, running, finished, canceled, unknown
	Submit         int64  `json:"submit,omitempty"`
	PredictedStart int64  `json:"predicted_start,omitempty"` // -1 when unavailable
	Start          int64  `json:"start,omitempty"`
	End            int64  `json:"end,omitempty"`
	Wait           int64  `json:"wait,omitempty"`
}

// Stats is the daemon's live accounting (the /statz endpoint).
type Stats struct {
	Name            string  `json:"name"`
	SimClock        int64   `json:"sim_clock"`
	TimeScale       float64 `json:"time_scale"`
	Procs           int     `json:"procs"`
	FreeProcs       int     `json:"free_procs"`
	QueueDepth      int     `json:"queue_depth"`
	PendingArrivals int     `json:"pending_arrivals"`
	Running         int     `json:"running"`
	Accepted        int64   `json:"accepted"`
	Canceled        int64   `json:"canceled"`
	Started         int64   `json:"started"`
	Finished        int64   `json:"finished"`
	Decisions       int64   `json:"decisions"`
	DecisionP50Ms   float64 `json:"decision_p50_ms"`
	DecisionP99Ms   float64 `json:"decision_p99_ms"`
	DecisionMaxMs   float64 `json:"decision_max_ms"`
	SubmitP50Ms     float64 `json:"submit_p50_ms"`
	SubmitP99Ms     float64 `json:"submit_p99_ms"`
	SubmitMaxMs     float64 `json:"submit_max_ms"`
	Draining        bool    `json:"draining"`
	WALGen          uint64  `json:"wal_gen,omitempty"`
	WALRecords      int64   `json:"wal_records_total,omitempty"`
	WALBytes        int64   `json:"wal_bytes,omitempty"`
	Compactions     int64   `json:"wal_compactions,omitempty"`
	WALSyncP99Ms    float64 `json:"wal_sync_p99_ms,omitempty"`
	Shed            int64   `json:"shed,omitempty"`
	Degraded        bool    `json:"degraded,omitempty"`
	Role            string  `json:"role,omitempty"`
	ReplFollowers   int     `json:"repl_followers,omitempty"`
	ReplLag         int     `json:"repl_lag_records,omitempty"`
	ReplAckTimeouts int64   `json:"repl_ack_timeouts,omitempty"`
	FencedWrites    int64   `json:"fenced_writes,omitempty"`
	Failovers       int64   `json:"failovers,omitempty"`
	RoundStalls     int64   `json:"round_stalls,omitempty"`
}

type cmdKind int

const (
	cmdSubmit cmdKind = iota
	cmdCancel
	cmdStatus
	cmdStats
	cmdSync
	cmdDrain
	cmdApply
	cmdPromote
	cmdReseed
)

type command struct {
	kind   cmdKind
	req    JobRequest
	id     int
	batch  *applyBatch
	reseed *bootstrapData
	reply  chan reply
}

// applyBatch is one replication batch handed to the run goroutine: WAL
// payloads to mirror and apply, the primary's history cursor at the batch
// end, and an optional rotation to mirror afterwards.
type applyBatch struct {
	payloads   [][]byte
	histCount  int
	histDigest uint32
	rotateTo   uint64
}

type reply struct {
	sub    SubmitResult
	status JobStatus
	ok     bool
	stats  Stats
	state  *State
	seq    int // follower position after a cmdApply
	err    error
}

// Scheduler owns the live engine. Construct with New, Recover or NewFollower,
// call Start, and issue commands through the exported methods; every method is
// safe for concurrent use (they serialize on the command channel).
type Scheduler struct {
	cfg   Config
	clock Clock
	scale float64
	est   backfill.Estimator

	wallEpoch time.Time
	simEpoch  int64

	cmds     chan command
	done     chan struct{}
	killC    chan struct{}
	draining atomic.Bool

	// Degraded mode: flipped (never cleared) by the run goroutine when the
	// durability layer fails; read by /healthz and Stats.
	degraded       atomic.Bool
	degradedReason atomic.Value // string

	// Replication. role is written by the run goroutine (promote) and by
	// Fence; feed is the primary-side stream buffer (nil without a WAL).
	// walGenA/walCount shadow the run-goroutine walGen/wlog.Records() for
	// lock-free reads from /healthz and the fencing probes. roundT0 is the
	// watchdog's start-of-round stamp (0 = idle).
	role       atomic.Int32
	leaderHint atomic.Value // string: primary base URL, set on followers
	feed       *replica.Feed
	walGenA    atomic.Uint64
	walCount   atomic.Int64
	roundT0    atomic.Int64
	testSlow   func() // test hook: injected delay inside a round

	// Everything below is owned by the run goroutine.
	fs         wal.FS
	wlog       *wal.Log // command write-ahead log; nil = WAL off or degraded
	hlog       *wal.Log // append-only completed-record history
	walGen     uint64
	histCount  int
	histDigest uint32   // chained CRC32C over history payloads
	repPend    [][]byte // WAL payloads appended since the last feed publish
	replClock  int64    // furthest instant seen in applied batches (follower)
	encBuf     []byte
	idem       map[string]int // idempotency key -> assigned job ID

	eng       *sim.Engine
	pred      backfill.Predictor
	qbuf      []*trace.Job
	planBuf   []backfill.PlannedStart
	predCache map[int]int64
	predStamp int64 // decisions count the cache was built at
	predClock int64 // sim clock the cache was built at

	nextID      int
	submitted   map[int]*trace.Job
	canceledIDs map[int]bool
	started     map[int]metrics.Record
	recSeen     int
	prior       []metrics.Record // records carried over from a resumed state

	reg        *metrics.Registry
	mSubmits   *metrics.Counter
	mCancels   *metrics.Counter
	mStatus    *metrics.Counter
	mDecisions *metrics.Counter
	mStarted   *metrics.Counter
	mQueue     *metrics.Gauge
	mFree      *metrics.Gauge
	mRunning   *metrics.Gauge
	hDecision  *metrics.Histogram
	hSubmit    *metrics.Histogram

	mShed        *metrics.Counter
	mWALRecords  *metrics.Counter
	mWALBytes    *metrics.Gauge
	mCompactions *metrics.Counter
	mDegraded    *metrics.Gauge
	hWALSync     *metrics.Histogram

	mRole            *metrics.Gauge
	mFenced          *metrics.Counter
	mFailovers       *metrics.Counter
	mReplFollowers   *metrics.Gauge
	mReplLag         *metrics.Gauge
	mReplPublished   *metrics.Counter
	mReplAckTimeouts *metrics.Counter
	mReplReseeds     *metrics.Counter
	gLeaseAge        *metrics.FGauge
	mRoundStalled    *metrics.Gauge
	mRoundStalls     *metrics.Counter
}

// New prepares a scheduler over an empty cluster, initializing the
// durability files when WALPath is configured. Call Start to begin serving.
func New(cfg Config) (*Scheduler, error) {
	s, err := newEmpty(cfg)
	if err != nil {
		return nil, err
	}
	if s.cfg.WALPath != "" {
		if err := s.initFreshWAL(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newEmpty builds the in-memory scheduler over an empty cluster without
// touching the durability files (Recover attaches them itself).
func newEmpty(cfg Config) (*Scheduler, error) {
	s, err := newScheduler(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := sim.NewLiveEngine(cfg.Name, cfg.Procs, cfg.Mem, s.simConfig())
	if err != nil {
		return nil, err
	}
	s.eng = eng
	s.nextID = 1
	return s, nil
}

// loadState replaces the engine and the daemon bookkeeping with st, whose
// record history is prior (from the history log or a replication bootstrap):
// the one state loader behind recovery, follower bootstrap and in-place
// reseed. The engine is built first, so a state that does not load leaves
// the scheduler untouched. Simulation time re-anchors at the snapshot clock,
// and rlbf_jobs_started_total only moves forward, to the prior count. Call it
// before the history cursor moves to the new state.
func (s *Scheduler) loadState(st *State, prior []metrics.Record) error {
	if st.Procs != s.cfg.Procs || st.Mem != s.cfg.Mem {
		return fmt.Errorf("serve: state machine %d procs/%d mem does not match config %d/%d",
			st.Procs, st.Mem, s.cfg.Procs, s.cfg.Mem)
	}
	rest := &trace.Trace{Name: s.cfg.Name, Procs: s.cfg.Procs, Mem: s.cfg.Mem, Jobs: st.Pending}
	snap := sim.Snapshot{Clock: st.SimClock, Queued: st.Queued, Running: st.Running}
	eng, err := sim.NewEngineFromSnapshot(rest, s.simConfig(), snap)
	if err != nil {
		return fmt.Errorf("serve: load state: %w", err)
	}
	if d := len(prior) - s.histCount; d > 0 {
		s.mStarted.Add(int64(d))
	}
	s.eng = eng
	s.simEpoch = st.SimClock
	s.wallEpoch = s.clock.Now()
	s.replClock = st.SimClock
	s.nextID = st.NextID
	s.prior = prior
	s.recSeen = 0
	s.repPend = nil
	s.predStamp = -1
	clear(s.submitted)
	clear(s.started)
	clear(s.canceledIDs)
	clear(s.idem)
	for _, r := range prior {
		s.started[r.Job.ID] = r
		s.submitted[r.Job.ID] = r.Job
	}
	for _, j := range st.Queued {
		s.submitted[j.ID] = j
	}
	for _, j := range st.Pending {
		s.submitted[j.ID] = j
	}
	for _, id := range st.Canceled {
		s.canceledIDs[id] = true
	}
	maps.Copy(s.idem, st.Idem)
	s.mQueue.Set(int64(eng.QueueLen()))
	s.mFree.Set(int64(eng.FreeProcs()))
	s.mRunning.Set(int64(eng.RunningCount()))
	return nil
}

func newScheduler(cfg Config) (*Scheduler, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		return nil, errors.New("serve: config needs a base scheduling policy")
	}
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("serve: non-positive machine size %d", cfg.Procs)
	}
	if cfg.TimeScale < 0 {
		return nil, fmt.Errorf("serve: negative time scale %g", cfg.TimeScale)
	}
	if cfg.WALPath != "" && cfg.SnapshotPath == "" {
		return nil, errors.New("serve: WALPath requires SnapshotPath (compaction writes snapshots)")
	}
	if cfg.SnapshotPath != "" && cfg.WALPath == "" {
		return nil, errors.New("serve: SnapshotPath requires WALPath (a snapshot is only recoverable with the WAL it extends)")
	}
	applyWALDefaults(&cfg)
	s := &Scheduler{
		cfg:         cfg,
		clock:       cfg.Clock,
		scale:       cfg.TimeScale,
		est:         cfg.Estimator,
		fs:          cfg.FS,
		cmds:        make(chan command),
		done:        make(chan struct{}),
		killC:       make(chan struct{}),
		submitted:   make(map[int]*trace.Job),
		canceledIDs: make(map[int]bool),
		started:     make(map[int]metrics.Record),
		idem:        make(map[string]int),
		predCache:   make(map[int]int64),
		predStamp:   -1,
		reg:         cfg.Registry,
	}
	if s.clock == nil {
		s.clock = RealClock{}
	}
	if s.scale == 0 {
		s.scale = 1
	}
	if s.est == nil {
		s.est = backfill.RequestTime{}
	}
	if s.cfg.PredictCap == 0 {
		s.cfg.PredictCap = 4096
	}
	if s.reg == nil {
		s.reg = metrics.NewRegistry()
	}
	s.wallEpoch = s.clock.Now()
	s.mSubmits = s.reg.NewCounter("rlbf_submissions_total", "Accepted job submissions.")
	s.mCancels = s.reg.NewCounter("rlbf_cancellations_total", "Successful job cancellations.")
	s.mStatus = s.reg.NewCounter("rlbf_status_queries_total", "Status queries served.")
	s.mDecisions = s.reg.NewCounter("rlbf_decisions_total", "Scheduling rounds (engine event batches).")
	s.mStarted = s.reg.NewCounter("rlbf_jobs_started_total", "Jobs dispatched to the cluster.")
	s.mQueue = s.reg.NewGauge("rlbf_queue_depth", "Waiting jobs.")
	s.mFree = s.reg.NewGauge("rlbf_free_procs", "Idle processors.")
	s.mRunning = s.reg.NewGauge("rlbf_running_jobs", "Executing jobs.")
	s.hDecision = s.reg.NewHistogram("rlbf_decision_latency_seconds",
		"Wall time of one scheduling round (engine event batch).", nil)
	s.hSubmit = s.reg.NewHistogram("rlbf_submit_latency_seconds",
		"Wall time to admit a submission and run its scheduling round.", nil)
	s.mShed = s.reg.NewCounter("rlbf_shed_total", "Submissions rejected by admission-queue load shedding.")
	s.mWALRecords = s.reg.NewCounter("rlbf_wal_records_total", "Records appended to the write-ahead log.")
	s.mWALBytes = s.reg.NewGauge("rlbf_wal_bytes", "Size of the current write-ahead log generation.")
	s.mCompactions = s.reg.NewCounter("rlbf_wal_compactions_total", "WAL compaction rotations.")
	s.mDegraded = s.reg.NewGauge("rlbf_degraded", "1 when durability has failed and scheduling continues in-memory.")
	s.hWALSync = s.reg.NewHistogram("rlbf_wal_sync_seconds", "Wall time of one WAL fsync.", nil)
	s.mRole = s.reg.NewGauge("rlbf_role", "Replica role: 0 primary, 1 follower, 2 fenced.")
	s.mFenced = s.reg.NewCounter("rlbf_fenced_total", "Writes refused because this replica is fenced (a newer primary generation exists).")
	s.mFailovers = s.reg.NewCounter("rlbf_failovers_total", "Promotions of this replica from follower to primary.")
	s.mReplFollowers = s.reg.NewGauge("rlbf_repl_followers", "Follower sessions heard from within the liveness window.")
	s.mReplLag = s.reg.NewGauge("rlbf_repl_lag_records", "Published WAL records not yet applied by the most advanced live follower.")
	s.mReplPublished = s.reg.NewCounter("rlbf_repl_published_total", "WAL records published to the replication feed.")
	s.mReplAckTimeouts = s.reg.NewCounter("rlbf_repl_ack_timeouts_total", "Semi-sync replication acks that timed out and degraded to async.")
	s.mReplReseeds = s.reg.NewCounter("rlbf_repl_rebootstraps_total", "Follower in-place re-bootstraps after falling out of the primary's feed retention window.")
	s.gLeaseAge = s.reg.NewFGauge("rlbf_lease_age_seconds", "Follower only: seconds since the last successful stream contact with the primary.")
	s.mRoundStalled = s.reg.NewGauge("rlbf_round_stalled", "1 while a scheduling round has exceeded its watchdog budget.")
	s.mRoundStalls = s.reg.NewCounter("rlbf_round_stalls_total", "Scheduling rounds that exceeded the watchdog budget.")
	if cfg.WALPath != "" {
		s.feed = replica.NewFeed()
	}
	return s, nil
}

func (s *Scheduler) simConfig() sim.Config {
	return sim.Config{Policy: s.cfg.Policy, Backfiller: s.cfg.Backfiller, Scenario: s.cfg.Scenario}
}

// Registry returns the metrics registry the daemon reports into.
func (s *Scheduler) Registry() *metrics.Registry { return s.reg }

// Feed returns the replication feed (nil without a WAL). The HTTP layer
// mounts replica.NewHandler over it.
func (s *Scheduler) Feed() *replica.Feed { return s.feed }

// Role returns the replica role as a string (primary, follower, fenced).
func (s *Scheduler) Role() string { return roleName(s.role.Load()) }

// WALGen returns the current WAL generation — the fencing token. Safe for
// concurrent use (it reads an atomic shadow of the run goroutine's state).
func (s *Scheduler) WALGen() uint64 { return s.walGenA.Load() }

// WALApplied returns the number of WAL records in the current generation,
// for peer election comparisons. Safe for concurrent use.
func (s *Scheduler) WALApplied() int64 { return s.walCount.Load() }

// LeaderHint returns the primary's base URL as known to a follower, or "".
func (s *Scheduler) LeaderHint() string {
	if v, ok := s.leaderHint.Load().(string); ok {
		return v
	}
	return ""
}

// Fence demotes this replica to the fenced role: peerGen at peer exceeds the
// local generation, meaning a follower was promoted while this daemon was
// primary (or down). All subsequent writes are refused with ErrFenced and
// counted in rlbf_fenced_total; reads keep working so operators can inspect
// the zombie's final state.
func (s *Scheduler) Fence(peer string, peerGen uint64) {
	if s.role.Swap(RoleFenced) == RoleFenced {
		return
	}
	if peer != "" {
		s.leaderHint.Store(peer)
	}
	s.mRole.Set(int64(RoleFenced))
	log.Printf("serve: %s: fenced: peer %s holds generation %d > local %d; refusing writes",
		s.cfg.Name, peer, peerGen, s.WALGen())
}

// Start launches the engine goroutine and, when RoundBudget is set, the
// stuck-round watchdog.
func (s *Scheduler) Start() {
	go s.run()
	if s.cfg.RoundBudget > 0 {
		go s.watchdog()
	}
}

// beginRound stamps the start of one scheduling pass for the watchdog;
// endRound clears it.
func (s *Scheduler) beginRound() { s.roundT0.Store(time.Now().UnixNano()) }
func (s *Scheduler) endRound()   { s.roundT0.Store(0) }

// watchdog polls the current round's age and raises rlbf_round_stalled — with
// a full goroutine dump in the log, so the stuck frame is captured while it
// is stuck — when one scheduling pass exceeds RoundBudget. The gauge clears
// when the round finally completes; each stalled round is reported once.
func (s *Scheduler) watchdog() {
	budget := s.cfg.RoundBudget
	tick := max(budget/8, 5*time.Millisecond)
	var reported int64
	for {
		select {
		case <-s.done:
			return
		case <-time.After(tick):
		}
		t0 := s.roundT0.Load()
		if t0 == 0 || t0 != reported {
			s.mRoundStalled.Set(0)
		}
		if t0 == 0 || t0 == reported {
			continue
		}
		if age := time.Duration(time.Now().UnixNano() - t0); age > budget {
			reported = t0
			s.mRoundStalled.Set(1)
			s.mRoundStalls.Inc()
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			log.Printf("serve: %s: scheduling round stalled: %v elapsed, budget %v; goroutine dump:\n%s",
				s.cfg.Name, age.Round(time.Millisecond), budget, buf[:n])
		}
	}
}

// StartDraining flips the daemon into drain mode: subsequent submissions are
// rejected with ErrDraining while cancellations and status queries keep
// working. Call Drain to stop the loop and collect the final state.
func (s *Scheduler) StartDraining() { s.draining.Store(true) }

// Draining reports whether drain mode is active.
func (s *Scheduler) Draining() bool { return s.draining.Load() }

// Submit admits one job at the current simulation time and runs its
// scheduling round. The reply carries the assigned ID and, when the queue is
// shallow enough (PredictCap), the job's projected start time.
func (s *Scheduler) Submit(req JobRequest) (SubmitResult, error) {
	r, err := s.do(command{kind: cmdSubmit, req: req})
	return r.sub, err
}

// CancelJob removes a waiting job. It reports false for jobs already
// started, finished or never seen.
func (s *Scheduler) CancelJob(id int) (bool, error) {
	r, err := s.do(command{kind: cmdCancel, id: id})
	return r.ok, err
}

// Status reports a job's state and projected start.
func (s *Scheduler) Status(id int) (JobStatus, error) {
	r, err := s.do(command{kind: cmdStatus, id: id})
	return r.status, err
}

// Stats returns the live accounting snapshot.
func (s *Scheduler) Stats() (Stats, error) {
	r, err := s.do(command{kind: cmdStats})
	return r.stats, err
}

// Sync advances the engine to the current simulation time and returns once
// every due event has been processed — the deterministic heartbeat manual
// clocks rely on.
func (s *Scheduler) Sync() error {
	_, err := s.do(command{kind: cmdSync})
	return err
}

// ApplyReplica mirrors one replication batch: the payloads are appended
// verbatim to the local WAL, applied to the engine (re-deriving the same
// schedule the primary computed), and the resulting history digest is
// compared against the primary's. rotateTo, when non-zero, rotates the local
// WAL to that generation afterwards, mirroring a primary compaction. It
// returns the local record count of the current generation — the follower's
// resumable stream position. Only meaningful on a follower.
func (s *Scheduler) ApplyReplica(payloads [][]byte, histCount int, histDigest uint32, rotateTo uint64) (int, error) {
	r, err := s.do(command{kind: cmdApply, batch: &applyBatch{
		payloads: payloads, histCount: histCount, histDigest: histDigest, rotateTo: rotateTo,
	}})
	return r.seq, err
}

// Reseed replaces a follower's state with a fresh verified bootstrap from the
// primary — the stream loop calls it when its position fell out of the
// primary's feed retention window. Only meaningful on a follower.
func (s *Scheduler) Reseed(b *bootstrapData) error {
	_, err := s.do(command{kind: cmdReseed, reseed: b})
	return err
}

// Promote turns a follower into the primary: the simulation clock re-anchors
// at the furthest applied instant, the WAL generation is bumped (the fencing
// token — a zombie ex-primary now probes a higher generation than its own
// and fences itself), and writes are accepted from here on.
func (s *Scheduler) Promote() error {
	_, err := s.do(command{kind: cmdPromote})
	return err
}

// Drain stops the scheduler loop: intake is closed, a final state snapshot
// is captured (and written to SnapshotPath while the WAL is up), and every
// subsequent command fails with ErrStopped. The returned state holds the
// complete record history for reporting.
func (s *Scheduler) Drain() (*State, error) {
	r, err := s.do(command{kind: cmdDrain})
	return r.state, err
}

// do sends one command to the engine goroutine and waits for its reply.
func (s *Scheduler) do(c command) (reply, error) {
	c.reply = make(chan reply, 1)
	select {
	case s.cmds <- c:
	case <-s.done:
		return reply{}, ErrStopped
	}
	r := <-c.reply
	return r, r.err
}

// run is the single-writer engine loop.
func (s *Scheduler) run() {
	defer close(s.done)
	for {
		var timerC <-chan time.Time
		// Only a primary self-advances: followers and fenced zombies move
		// their engines exclusively through applied stream batches, so their
		// schedules stay byte-aligned with the primary's.
		if s.role.Load() == RolePrimary {
			if t, ok := s.eng.NextEventTime(); ok {
				if d := s.wallUntil(t); d <= 0 {
					s.beginRound()
					s.advanceTo(s.simNow())
					s.endRound()
					continue
				} else {
					timerC = s.clock.After(d)
				}
			}
		}
		select {
		case c := <-s.cmds:
			s.beginRound()
			stop := s.handle(c)
			s.endRound()
			if stop {
				return
			}
			s.maybeCompact()
		case <-timerC:
			s.beginRound()
			s.advanceTo(s.simNow())
			s.endRound()
			s.maybeCompact()
		case <-s.killC:
			// Test hook: die in place, like SIGKILL — no sync, no close, no
			// final snapshot.
			return
		}
	}
}

// crash terminates the run goroutine immediately without syncing or closing
// the durability files — the in-process stand-in for SIGKILL used by the
// crash-recovery tests.
func (s *Scheduler) crash() {
	close(s.killC)
	<-s.done
}

// simNow maps the wall clock to simulation seconds. The engine clock is a
// floor: simulation time never runs backwards even if the wall clock does.
func (s *Scheduler) simNow() int64 {
	elapsed := s.clock.Now().Sub(s.wallEpoch)
	now := s.simEpoch + int64(elapsed.Seconds()*s.scale)
	if ec := s.eng.Now(); now < ec {
		now = ec
	}
	return now
}

// wallUntil returns the wall-clock delay until simulation instant t.
func (s *Scheduler) wallUntil(t int64) time.Duration {
	deadline := s.wallEpoch.Add(time.Duration(float64(t-s.simEpoch) / s.scale * float64(time.Second)))
	return deadline.Sub(s.clock.Now())
}

// advanceNow advances a primary to the current simulation instant and
// returns it. On a follower or fenced replica the engine only moves via the
// replication stream, so reads are answered at the engine's own clock.
func (s *Scheduler) advanceNow() int64 {
	if s.role.Load() != RolePrimary {
		return s.eng.Now()
	}
	now := s.simNow()
	s.advanceTo(now)
	return now
}

// advanceTo processes every engine event due at or before simulation instant
// `now`, timing each event batch as one scheduling decision. When the
// advance will fire events, it is logged to the WAL first, so replay reaches
// the same instant before re-deriving the same events; idle advances write
// nothing.
func (s *Scheduler) advanceTo(now int64) {
	if t, ok := s.eng.NextEventTime(); ok && t <= now {
		s.walAdvance(now)
	}
	for {
		t, ok := s.eng.NextEventTime()
		if !ok || t > now {
			break
		}
		t0 := time.Now()
		s.eng.Step()
		s.hDecision.Observe(time.Since(t0).Seconds())
		s.mDecisions.Inc()
	}
	s.syncRecords()
	s.publishRepl()
	s.mQueue.Set(int64(s.eng.QueueLen()))
	s.mFree.Set(int64(s.eng.FreeProcs()))
	s.mRunning.Set(int64(s.eng.RunningCount()))
}

// syncRecords ingests newly appended engine records into the status map and
// the history log.
func (s *Scheduler) syncRecords() {
	recs := s.eng.Records()
	for ; s.recSeen < len(recs); s.recSeen++ {
		r := recs[s.recSeen]
		s.started[r.Job.ID] = r
		s.mStarted.Inc()
		s.walHistory(r)
	}
}

// handle executes one command; it reports true when the loop must exit.
func (s *Scheduler) handle(c command) bool {
	if s.testSlow != nil {
		s.testSlow()
	}
	switch c.kind {
	case cmdSubmit:
		sub, err := s.handleSubmit(c.req)
		c.reply <- reply{sub: sub, err: err}
	case cmdCancel:
		if err := s.writeAllowed(); err != nil {
			c.reply <- reply{err: err}
			return false
		}
		now := s.advanceNow()
		ok := false
		if !s.canceledIDs[c.id] {
			if _, startedAlready := s.started[c.id]; !startedAlready {
				ok = s.eng.Cancel(c.id)
			}
		}
		if ok {
			s.canceledIDs[c.id] = true
			s.predStamp = -1 // the plan changed without a counted round
			s.mCancels.Inc()
			if s.wlog != nil {
				s.encBuf = encodeCancel(s.encBuf[:0], c.id, now)
				s.walAppend(s.encBuf)
				s.walSync()
				s.publishRepl()
				s.replWait()
			}
		}
		c.reply <- reply{ok: ok}
	case cmdStatus:
		s.mStatus.Inc()
		now := s.advanceNow()
		c.reply <- reply{status: s.statusOf(c.id, now)}
	case cmdStats:
		s.advanceNow()
		c.reply <- reply{stats: s.statsLocked()}
	case cmdSync:
		s.advanceNow()
		c.reply <- reply{}
	case cmdApply:
		seq, err := s.handleApply(c.batch)
		c.reply <- reply{seq: seq, err: err}
	case cmdPromote:
		c.reply <- reply{err: s.handlePromote()}
	case cmdReseed:
		c.reply <- reply{err: s.handleReseed(c.reseed)}
	case cmdDrain:
		s.draining.Store(true)
		s.advanceNow()
		st, err := s.captureState()
		if err == nil {
			err = s.writeSnapshot(st)
		}
		s.closeWAL()
		if s.feed != nil {
			s.feed.Close()
		}
		c.reply <- reply{state: st, err: err}
		return true
	}
	return false
}

// writeAllowed gates state-changing commands by role.
func (s *Scheduler) writeAllowed() error {
	switch s.role.Load() {
	case RoleFollower:
		return ErrFollower
	case RoleFenced:
		s.mFenced.Inc()
		log.Printf("serve: %s: fenced: write refused (generation %d is stale)", s.cfg.Name, s.WALGen())
		return ErrFenced
	}
	return nil
}

// handleSubmit admits one job at the current simulation instant. Events
// strictly before the submit time are processed first, then the arrival is
// injected and the engine advances through the submit instant — completions
// at that exact second are batched with the arrival into one scheduling
// round, matching the batch replay semantics (see sim.Engine.Step).
func (s *Scheduler) handleSubmit(req JobRequest) (SubmitResult, error) {
	if s.draining.Load() {
		return SubmitResult{}, ErrDraining
	}
	if err := s.writeAllowed(); err != nil {
		return SubmitResult{}, err
	}
	// Defense in depth: the HTTP layer validates before decoding reaches
	// here, but direct API users get the same contract.
	if err := req.Validate(); err != nil {
		return SubmitResult{}, err
	}
	if err := req.fitsMachine(s.cfg.Procs, s.cfg.Mem); err != nil {
		return SubmitResult{}, err
	}
	if req.IdemKey != "" {
		if id, ok := s.idem[req.IdemKey]; ok {
			return s.duplicateAck(id), nil
		}
	}
	t0 := time.Now()
	now := s.simNow()
	s.advanceTo(now - 1)
	j := &trace.Job{
		ID:       s.nextID,
		Submit:   now,
		Runtime:  req.Runtime,
		Request:  req.Request,
		Procs:    req.Procs,
		Mem:      req.Mem,
		Priority: int32(req.Priority),
	}
	if j.Request <= 0 {
		j.Request = j.Runtime // convenience: perfect user estimate
	}
	if err := s.eng.Inject(j); err != nil {
		return SubmitResult{}, err
	}
	s.nextID++
	s.submitted[j.ID] = j
	if req.IdemKey != "" {
		s.idem[req.IdemKey] = j.ID
	}
	if s.wlog != nil {
		s.encBuf = encodeSubmit(s.encBuf[:0], j, req.IdemKey)
		s.walAppend(s.encBuf)
	}
	s.advanceTo(now)
	s.walSync() // the ack below must not outrun the disk
	s.replWait()
	s.mSubmits.Inc()
	res := SubmitResult{ID: j.ID, Submit: now, PredictedStart: -1}
	if rec, ok := s.started[j.ID]; ok {
		res.Started = true
		res.PredictedStart = rec.Start
	} else if p, ok := s.predictedStart(j.ID, now); ok {
		res.PredictedStart = p
	}
	s.hSubmit.Observe(time.Since(t0).Seconds())
	return res, nil
}

// duplicateAck re-acknowledges a submission whose idempotency key was
// already accepted: the client retried after losing the original reply, so
// it gets the original job's identity back instead of a second enqueue. The
// engine advances to now first, as for a status query, and a job still
// queued gets its predicted start from the same plan /status answers from.
func (s *Scheduler) duplicateAck(id int) SubmitResult {
	now := s.advanceNow()
	res := SubmitResult{ID: id, Duplicate: true, PredictedStart: -1}
	if j, ok := s.submitted[id]; ok {
		res.Submit = j.Submit
	}
	if rec, ok := s.started[id]; ok {
		res.Started = true
		res.PredictedStart = rec.Start
	} else if p, ok := s.predictedStart(id, now); ok {
		res.PredictedStart = p
	}
	return res
}

// statusOf classifies a job after the engine has advanced to `now`.
func (s *Scheduler) statusOf(id int, now int64) JobStatus {
	if s.canceledIDs[id] {
		return JobStatus{ID: id, State: "canceled"}
	}
	if rec, ok := s.started[id]; ok {
		st := JobStatus{ID: id, Submit: rec.Job.Submit, Start: rec.Start, End: rec.End, Wait: rec.Wait()}
		if rec.End > now {
			st.State = "running"
		} else {
			st.State = "finished"
		}
		return st
	}
	j, ok := s.submitted[id]
	if !ok {
		return JobStatus{ID: id, State: "unknown"}
	}
	st := JobStatus{ID: id, State: "queued", Submit: j.Submit, PredictedStart: -1}
	if p, ok := s.predictedStart(id, now); ok {
		st.PredictedStart = p
		st.Wait = p - j.Submit
	}
	return st
}

// predictedStart answers from the reservation profile via the shared
// planner (backfill.Predictor), caching the full plan per engine state so a
// burst of status queries costs one projection. The cache is keyed on the
// decision count and the clock; an engine mutation outside a counted round (a
// cancel, an applied command, a loaded state) drops it by resetting
// predStamp. Queues beyond PredictCap are
// not projected (ok=false) — a deep backlog would make every query O(queue).
func (s *Scheduler) predictedStart(id int, now int64) (int64, bool) {
	decs := s.mDecisions.Value()
	if s.predStamp != decs || s.predClock != now {
		if s.eng.QueueLen() > s.cfg.PredictCap {
			return 0, false
		}
		s.qbuf = s.eng.AppendQueued(s.qbuf[:0])
		s.planBuf = s.pred.Project(s.eng, s.est, s.qbuf, s.planBuf[:0])
		clear(s.predCache)
		for _, p := range s.planBuf {
			s.predCache[p.Job.ID] = p.Start
		}
		s.predStamp = decs
		s.predClock = now
	}
	p, ok := s.predCache[id]
	return p, ok
}

// statsLocked assembles the Stats snapshot (run-goroutine only).
func (s *Scheduler) statsLocked() Stats {
	started := s.mStarted.Value()
	return Stats{
		Name:            s.cfg.Name,
		SimClock:        s.eng.Now(),
		TimeScale:       s.scale,
		Procs:           s.cfg.Procs,
		FreeProcs:       s.eng.FreeProcs(),
		QueueDepth:      s.eng.QueueLen(),
		PendingArrivals: s.eng.PendingArrivals(),
		Running:         s.eng.RunningCount(),
		Accepted:        s.mSubmits.Value(),
		Canceled:        s.mCancels.Value(),
		Started:         started,
		Finished:        started - int64(s.eng.RunningCount()),
		Decisions:       s.mDecisions.Value(),
		DecisionP50Ms:   s.hDecision.Quantile(0.5) * 1000,
		DecisionP99Ms:   s.hDecision.Quantile(0.99) * 1000,
		DecisionMaxMs:   s.hDecision.Max() * 1000,
		SubmitP50Ms:     s.hSubmit.Quantile(0.5) * 1000,
		SubmitP99Ms:     s.hSubmit.Quantile(0.99) * 1000,
		SubmitMaxMs:     s.hSubmit.Max() * 1000,
		Draining:        s.draining.Load(),
		WALGen:          s.walGen,
		WALRecords:      s.mWALRecords.Value(),
		WALBytes:        s.mWALBytes.Value(),
		Compactions:     s.mCompactions.Value(),
		WALSyncP99Ms:    s.hWALSync.Quantile(0.99) * 1000,
		Shed:            s.mShed.Value(),
		Degraded:        s.degraded.Load(),
		Role:            s.Role(),
		ReplFollowers:   int(s.mReplFollowers.Value()),
		ReplLag:         int(s.mReplLag.Value()),
		ReplAckTimeouts: s.mReplAckTimeouts.Value(),
		FencedWrites:    s.mFenced.Value(),
		Failovers:       s.mFailovers.Value(),
		RoundStalls:     s.mRoundStalls.Value(),
	}
}

// liveState snapshots the engine plus daemon bookkeeping into the live-state
// form of State: everything but the record history, at a cost that does not
// grow with it. Called on the run goroutine after advanceTo, so the snapshot
// is at a quiescent instant: every event at or before the current simulation
// time has been fully processed. Idem aliases the scheduler's own map, so the
// result must be marshalled and dropped before the run goroutine moves on.
func (s *Scheduler) liveState() *State {
	snap := s.eng.Snapshot()
	st := &State{
		Version:      stateVersion,
		Name:         s.cfg.Name,
		Procs:        s.cfg.Procs,
		Mem:          s.cfg.Mem,
		SimClock:     snap.Clock,
		NextID:       s.nextID,
		Queued:       snap.Queued,
		Running:      snap.Running,
		Pending:      s.eng.AppendPending(nil),
		HistoryCount: s.histCount,
	}
	for id := range s.canceledIDs {
		st.Canceled = append(st.Canceled, id)
	}
	sort.Ints(st.Canceled)
	if len(s.idem) > 0 {
		st.Idem = s.idem
	}
	return st
}

// captureState is liveState made self-contained for a caller on another
// goroutine (snapshot and drain replies): it adds a copy of the whole record
// history and clones the idempotency map.
func (s *Scheduler) captureState() (*State, error) {
	st := s.liveState()
	st.Records = append(append([]metrics.Record(nil), s.prior...), s.eng.Records()...)
	st.Idem = maps.Clone(st.Idem)
	return st, nil
}
