package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/backfill"
	"repro/internal/core"
	"repro/internal/lublin"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Workloads generates the paper's four evaluation traces (Table 2) at the
// given size: SDSC-SP2 and HPC2N surrogates plus Lublin-1 and Lublin-2.
func Workloads(n int, seed uint64) []*trace.Trace {
	return []*trace.Trace{
		trace.SyntheticSDSCSP2(n, seed+1),
		trace.SyntheticHPC2N(n, seed+2),
		lublin.Generate1(n, seed+3),
		lublin.Generate2(n, seed+4),
	}
}

// hugeSeedOff is the seed offset of the huge composition, continuing the
// per-workload offsets ResolveTrace assigns (sdsc-sp2 +1 ... lublin-2 +4).
const hugeSeedOff = 5

// ResolveTrace returns a workload by built-in name ("sdsc-sp2", "hpc2n",
// "lublin-1", "lublin-2", "huge", case-insensitive) generated with n jobs,
// or parses the argument as an SWF file path.
func ResolveTrace(nameOrPath string, n int, seed uint64) (*trace.Trace, error) {
	switch strings.ToLower(nameOrPath) {
	case "sdsc-sp2", "sdsc":
		return trace.SyntheticSDSCSP2(n, seed+1), nil
	case "hpc2n":
		return trace.SyntheticHPC2N(n, seed+2), nil
	case "lublin-1", "lublin1":
		return lublin.Generate1(n, seed+3), nil
	case "lublin-2", "lublin2":
		return lublin.Generate2(n, seed+4), nil
	case "huge", "lublin-huge":
		return HugeTrace(lublin.Huge(0, 0, 0), n, seed), nil
	}
	t, err := trace.LoadSWFFile(nameOrPath)
	if err != nil {
		return nil, fmt.Errorf("experiments: %q is neither a built-in workload nor a readable SWF file: %w", nameOrPath, err)
	}
	if n > 0 {
		t = t.Head(n)
	}
	return t, nil
}

// TraceStream is the streaming form of a built-in workload: the machine
// header plus a generator that hands jobs to yield in submit order, so CLI
// tools can write or summarize million-job workloads with flat RSS.
type TraceStream struct {
	Name  string
	Procs int
	Run   func(yield func(*trace.Job) error) error
}

// ResolveStream returns the streaming form of a built-in workload, using the
// same per-name seed offsets as ResolveTrace so the streamed jobs are
// byte-identical to the materialized ones. SWF paths (and unknown names)
// report ok=false; callers fall back to ResolveTrace.
func ResolveStream(name string, n int, seed uint64) (TraceStream, bool) {
	switch strings.ToLower(name) {
	case "sdsc-sp2", "sdsc":
		s := trace.SDSCSP2Spec()
		return synthStream(s, n, seed+1), true
	case "hpc2n":
		s := trace.HPC2NSpec()
		return synthStream(s, n, seed+2), true
	case "lublin-1", "lublin1":
		return lublinStream(lublin.Lublin1(), n, seed+3), true
	case "lublin-2", "lublin2":
		return lublinStream(lublin.Lublin2(), n, seed+4), true
	case "huge", "lublin-huge":
		return HugeStream(lublin.Huge(0, 0, 0), n, seed), true
	}
	return TraceStream{}, false
}

func synthStream(s trace.SynthSpec, n int, seed uint64) TraceStream {
	return TraceStream{Name: s.Name, Procs: s.Procs, Run: func(yield func(*trace.Job) error) error {
		return s.Stream(n, seed, yield)
	}}
}

func lublinStream(p lublin.Params, n int, seed uint64) TraceStream {
	return TraceStream{Name: p.Name, Procs: p.Procs, Run: func(yield func(*trace.Job) error) error {
		return p.Stream(n, seed, yield)
	}}
}

// HugeStream is the streaming form of a huge composition with explicit
// geometry (tracegen's -nodes/-streams/-load); it applies the same seed
// offset as ResolveTrace's "huge" case, so default-geometry output matches.
func HugeStream(spec lublin.HugeSpec, n int, seed uint64) TraceStream {
	return TraceStream{Name: spec.Name(), Procs: spec.Nodes, Run: func(yield func(*trace.Job) error) error {
		return spec.Stream(n, seed+hugeSeedOff, yield)
	}}
}

// HugeTrace materializes a huge composition under the same seed offset.
func HugeTrace(spec lublin.HugeSpec, n int, seed uint64) *trace.Trace {
	return spec.Generate(n, seed+hugeSeedOff)
}

// Estimator returns the reservation estimator appropriate for the workload
// (exported for the CLI tools).
func Estimator(t *trace.Trace) backfill.Estimator { return estimatorFor(t) }

// estimatorFor returns the reservation estimator for a workload: request
// time for real-trace surrogates, actual runtime for the Lublin traces
// (which carry no user estimates, §4.1.2).
func estimatorFor(t *trace.Trace) backfill.Estimator {
	if isSynthetic(t) {
		return backfill.ActualRuntime{}
	}
	return backfill.RequestTime{}
}

func isSynthetic(t *trace.Trace) bool {
	return t.Name == "Lublin-1" || t.Name == "Lublin-2" || t.Name == "Lublin-Huge"
}

// Zoo holds trained RLBackfilling models keyed by "<policy>/<trace>",
// shared by Table 4, Table 5 and Figure 4 (the paper trains one model per
// base policy and trace). It is a mutex-guarded cache whose entries each
// train once, so concurrent Get calls for one key run one training and the
// lock is never held while a model trains. A training error is kept too —
// retrying the identical deterministic training would fail identically.
type Zoo struct {
	mu      sync.Mutex
	entries map[string]*zooEntry
}

type zooEntry struct {
	once  sync.Once
	agent *core.Agent
	curve []core.EpochStats
	err   error
}

// NewZoo returns an empty model zoo.
func NewZoo() *Zoo {
	return &Zoo{entries: make(map[string]*zooEntry)}
}

func zooKey(policy sched.Policy, tr *trace.Trace) string {
	return policy.Name() + "/" + tr.Name
}

// normPolicy maps the requested base policy to the one actually trained:
// when the scale disables per-policy models, training always uses FCFS and
// the resulting agent is shared across base policies (the transfer the
// paper reports in §1/§4.4).
func (sc Scale) normPolicy(policy sched.Policy) sched.Policy {
	if !sc.PerPolicyModels {
		return sched.FCFS{}
	}
	return policy
}

// Get returns the model for (policy, trace), training it on first use.
func (z *Zoo) Get(policy sched.Policy, tr *trace.Trace, sc Scale, log io.Writer) (*core.Agent, []core.EpochStats, error) {
	policy = sc.normPolicy(policy)
	key := zooKey(policy, tr)
	z.mu.Lock()
	e := z.entries[key]
	if e == nil {
		e = &zooEntry{}
		z.entries[key] = e
	}
	z.mu.Unlock()
	e.once.Do(func() { e.agent, e.curve, e.err = train(policy, tr, sc, log) })
	return e.agent, e.curve, e.err
}

// Prefetch trains every (policy, trace) model the caller will evaluate, one
// at a time and each on all the scale's workers, before the evaluation grid
// runs, so grid cells only ever hit the cache. It stops at and returns the
// first error.
func (z *Zoo) Prefetch(sc Scale, log io.Writer, policies []sched.Policy, traces []*trace.Trace) error {
	for _, tr := range traces {
		for _, pol := range policies {
			if _, _, err := z.Get(pol, tr, sc, log); err != nil {
				return err
			}
		}
	}
	return nil
}

// train runs one model's training.
func train(policy sched.Policy, tr *trace.Trace, sc Scale, log io.Writer) (*core.Agent, []core.EpochStats, error) {
	cfg := sc.TrainConfig(policy, estimatorFor(tr))
	trainer, err := core.NewTrainer(tr, cfg)
	if err != nil {
		return nil, nil, err
	}
	if log != nil {
		fmt.Fprintf(log, "training RL-%s (base %s): %d epochs x %d traj x %d jobs\n",
			tr.Name, policy.Name(), sc.Epochs, sc.TrajPerEpoch, sc.EpisodeLen)
	}
	curve, err := trainer.Train(sc.Epochs, func(st core.EpochStats) {
		if log != nil {
			fmt.Fprintf(log, "  epoch %2d: bsld=%.2f baseline=%.2f reward=%+.3f steps=%d violations=%d\n",
				st.Epoch, st.MeanBSLD, st.BaselineBSLD, st.MeanReward, st.Steps, st.Violations)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return trainer.Agent(), curve, nil
}
