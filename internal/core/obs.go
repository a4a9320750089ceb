// Package core implements RLBackfilling, the paper's contribution (§3): a
// PPO-trained agent that directly decides which waiting jobs to backfill
// when the head of the queue cannot start, learning the trade-off between
// runtime-prediction accuracy and backfilling opportunity end-to-end instead
// of relying on a heuristic over predicted runtimes.
package core

import (
	"math"
	"sort"

	"repro/internal/backfill"
	"repro/internal/trace"
)

// JobFeatures is the length of each per-job observation vector (§3.2): job
// attributes plus the appended resource availability, so every row carries
// the machine state the kernel network needs. The last three slots encode
// the scenario dimensions (memory, priority tier, aging progress); they read
// zero on classic procs-only traces, so the wider encoding subsumes the old
// one behind the same fixed-width layout.
const JobFeatures = 13

// Feature vector layout.
const (
	featWait     = iota // log-normalised waiting time
	featEstimate        // log-normalised estimated runtime
	featProcs           // requested processors / machine size
	featFitNow          // 1 if the job fits the free resources
	featSafe            // 1 if backfilling it cannot delay the head (EASY-safe)
	featExtraFit        // 1 if the job fits in the head's extra resources
	featWindow          // estimated runtime / head's backfill window (capped at 1)
	featFree            // free processors / machine size (availability, appended per §3.2)
	featRJob            // 1 for the relative job (present but masked, §3.2)
	featSkip            // 1 for the skip slot (its safe/free slots carry queue aggregates)
	featMem             // requested memory / machine memory (0 when the dimension is off)
	featPriority        // priority tier squashed to [0, 1): p/(p+1)
	featAge             // wait / starvation bound (clamped; 0 when aging is off)
)

// ObsConfig shapes the observation.
type ObsConfig struct {
	// MaxObs is MAX_OBSV_SIZE (§3.3.2): at most this many jobs are observed;
	// longer queues are cut after FCFS sorting, and the critic reads shorter
	// ones as zero-padded. Default 128 (the paper's value).
	MaxObs int
	// SkipAction appends an always-valid all-zero action row that ends the
	// backfill round; the kernel network's biases act as a learned "do
	// nothing" threshold. See DESIGN.md (the paper leaves this implicit).
	SkipAction bool
}

// DefaultObsConfig returns the paper's observation settings.
func DefaultObsConfig() ObsConfig {
	return ObsConfig{MaxObs: 128, SkipAction: true}
}

func (c ObsConfig) withDefaults() ObsConfig {
	if c.MaxObs <= 0 {
		c.MaxObs = 128
	}
	return c
}

// Rows returns the most action slots an observation has: MaxObs job rows
// plus the skip slot (always present so model shapes do not depend on the
// flag).
func (c ObsConfig) Rows() int { return c.withDefaults().MaxObs + 1 }

// FlatDim returns the value network's input width: Rows() rows, the
// unobserved ones zero.
func (c ObsConfig) FlatDim() int { return c.Rows() * JobFeatures }

// Observation is one decision point's encoded state: the head, the observed
// queue and the skip slot, one row of JobFeatures cells each. The padding up
// to MaxObs that the critic's fixed-width input implies is never laid out —
// nn.Live places the rows in that input (DESIGN.md §8). Observations may be
// freshly built (BuildObservation) or reused across decisions
// (BuildObservationInto), which makes the per-decision encode allocation-free
// on the simulator's hottest RL path.
type Observation struct {
	// Cells holds the rows back to back: the head in row 0, the observed
	// queue after it, the skip slot last.
	Cells []float64
	// Mask marks selectable rows: waiting jobs that fit the free processors,
	// plus the skip slot when enabled. The head job is masked.
	Mask []bool
	// Jobs maps row index to the job it encodes (nil for the skip slot).
	Jobs []*trace.Job
	// Skip is the index of the skip slot, the last row; the head and the
	// observed queue fill the rows before it.
	Skip int
	// Selectable counts the selectable job rows (excluding the skip slot);
	// when it is zero no backfill decision is needed.
	Selectable int

	// sortBuf is the scratch for the FCFS cut; the pointer-receiver sorter
	// keeps sort.Stable allocation-free (a closure-based sort.SliceStable
	// escapes per call).
	sortBuf jobsBySubmit
}

// Row returns row i's feature vector, a view into Cells.
func (o *Observation) Row(i int) []float64 { return o.Cells[i*JobFeatures : (i+1)*JobFeatures] }

// jobsBySubmit sorts by (Submit, ID): FCFS order for the MaxObs cut.
type jobsBySubmit []*trace.Job

func (s *jobsBySubmit) Len() int      { return len(*s) }
func (s *jobsBySubmit) Swap(i, j int) { (*s)[i], (*s)[j] = (*s)[j], (*s)[i] }
func (s *jobsBySubmit) Less(i, j int) bool {
	a, b := (*s)[i], (*s)[j]
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
}

// NewObservation allocates an observation shaped for cfg, ready for
// BuildObservationInto.
func NewObservation(cfg ObsConfig) *Observation {
	cfg = cfg.withDefaults()
	return &Observation{
		Cells: make([]float64, 0, cfg.FlatDim()),
		Mask:  make([]bool, 0, cfg.Rows()),
		Jobs:  make([]*trace.Job, 0, cfg.Rows()),
	}
}

// BuildObservation encodes the backfilling state per §3.2-3.3: head plus
// waiting jobs sorted by submission time (head forced in, longest-waiting
// kept when cutting to MaxObs), one feature vector per job with the free
// resource fraction appended, and a mask that excludes the head job and jobs
// that cannot start now. The state's scenario normalises featAge by its
// starvation bound; the zero scenario zeroes it.
func BuildObservation(cfg ObsConfig, st backfill.State, head *trace.Job, queue []*trace.Job,
	est backfill.Estimator, res backfill.Reservation) *Observation {
	return BuildObservationInto(cfg, st, head, queue, est, res, NewObservation(cfg))
}

// BuildObservationInto is BuildObservation writing into a reused observation
// (from NewObservation with the same config), producing identical encodings
// with zero allocations per decision.
func BuildObservationInto(cfg ObsConfig, st backfill.State, head *trace.Job, queue []*trace.Job,
	est backfill.Estimator, res backfill.Reservation, o *Observation) *Observation {

	cfg = cfg.withDefaults()
	if cap(o.Mask) != cfg.Rows() {
		panic("core: observation shape does not match the config")
	}
	now := st.Now()
	free := st.FreeProcs()
	total := st.TotalProcs()
	freeFrac := float64(free) / float64(total)
	memFree, memTotal := backfill.MemOf(st)
	scn := st.Scenario()
	aging := scn.Aging()

	// queue sorted by submit (FCFS order for cutting, §3.3.2); the head is
	// always retained in row 0.
	o.sortBuf = append(o.sortBuf[:0], queue...)
	sort.Stable(&o.sortBuf)
	jobs := []*trace.Job(o.sortBuf)
	if len(jobs) > cfg.MaxObs-1 {
		jobs = jobs[:cfg.MaxObs-1]
	}

	// size the reused buffers to this decision's rows and clear them
	o.Skip = len(jobs) + 1
	rows := o.Skip + 1
	o.Cells = o.Cells[:rows*JobFeatures]
	o.Mask = o.Mask[:rows]
	o.Jobs = o.Jobs[:rows]
	clear(o.Cells)
	clear(o.Mask)
	o.Jobs[o.Skip] = nil
	o.Selectable = 0

	window := float64(res.Shadow - now) // the head's backfill window (Figure 2)
	safeCount := 0
	for i := 0; i <= len(jobs); i++ {
		j := head
		if i > 0 {
			j = jobs[i-1]
		}
		row := o.Row(i)
		o.Jobs[i] = j
		wait := float64(now - j.Submit)
		if wait < 0 {
			wait = 0
		}
		e := est.Estimate(j)
		estimate := float64(e)
		row[featWait] = logNorm(wait)
		row[featEstimate] = logNorm(estimate)
		row[featProcs] = clamp01(float64(j.Procs) / float64(total))
		jm := 0
		if memTotal > 0 {
			jm = j.Mem
			row[featMem] = clamp01(float64(jm) / float64(memTotal))
		}
		if p := float64(j.Priority); p > 0 {
			// p/(p+1) in float64: Priority+1 would overflow int32 at its max.
			row[featPriority] = p / (p + 1)
		}
		if aging {
			if sa := scn.StarvesAt(j); sa > j.Submit && sa != math.MaxInt64 {
				row[featAge] = clamp01(wait / float64(sa-j.Submit))
			} else if sa <= j.Submit {
				row[featAge] = 1
			}
		}
		fits := j.Procs <= free && jm <= memFree
		if fits {
			row[featFitNow] = 1
		}
		extraFit := j.Procs <= res.Extra && jm <= res.ExtraMem
		if extraFit {
			row[featExtraFit] = 1
		}
		safe := fits && (now+e <= res.Shadow || extraFit)
		if safe {
			row[featSafe] = 1
		}
		if window > 0 {
			row[featWindow] = clamp01(estimate / window)
		} else {
			row[featWindow] = 1
		}
		row[featFree] = freeFrac
		if i == 0 {
			row[featRJob] = 1 // the relative job: visible, never selectable
		} else if fits {
			o.Mask[i] = true
			o.Selectable++
			if safe {
				safeCount++
			}
		}
	}
	if cfg.SkipAction {
		o.Mask[o.Skip] = true
		// The skip row carries queue-level aggregates so "stop backfilling"
		// can be weighed against the current candidates rather than acting
		// as a fixed bias threshold.
		skip := o.Row(o.Skip)
		skip[featSkip] = 1
		skip[featFree] = freeFrac
		if o.Selectable > 0 {
			skip[featSafe] = float64(safeCount) / float64(o.Selectable)
		}
		skip[featProcs] = clamp01(float64(o.Selectable) / float64(cfg.MaxObs))
	}
	return o
}

// logCap caps the log normalisation of the waiting and estimate features, in
// seconds (about 11.6 days); logCapDenom is its log1p, logNorm's divisor.
const logCap = 1e6

var logCapDenom = math.Log1p(logCap)

// logNorm maps x in [0, logCap] to [0, 1] on a log scale (robust to the
// heavy-tailed wait/runtime distributions of HPC workloads).
func logNorm(x float64) float64 {
	if x < 0 {
		x = 0
	}
	if x > logCap {
		x = logCap
	}
	return math.Log1p(x) / logCapDenom
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
