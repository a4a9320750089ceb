package backfill

import (
	"repro/internal/trace"
)

// Conservative implements conservative backfilling (Mu'alem & Feitelson
// 2001), the classic related-work baseline (§5): every waiting job gets a
// reservation in a future availability profile, and a candidate may be
// backfilled only if starting it now delays no earlier reservation. It is
// stricter than EASY (which protects only the head job) and is used here as
// an ablation baseline rather than a paper table entry.
//
// Scenario semantics come for free: the engine hands the queue over in
// scenario order (starving first, then priority tiers), the base plan
// reserves in that order so higher tiers hold earlier reservations, and
// zero slip already guarantees no reservation — starving or not — ever
// moves later. On memory-carrying machines every reservation spans both
// resource dimensions via the planner's vector profile.
type Conservative struct {
	Est Estimator

	// pl holds the reusable per-round profile and plan scratch.
	pl planner
}

// NewConservative returns conservative backfilling with the given estimator.
func NewConservative(est Estimator) *Conservative { return &Conservative{Est: est} }

// Fresh implements Cloneable: same estimator, own scratch.
func (c *Conservative) Fresh() Backfiller { return &Conservative{Est: c.Est} }

// Name implements Backfiller.
func (c *Conservative) Name() string { return "CONS-" + c.Est.Name() }

// Backfill implements Backfiller. Each round plans reservations for the head
// and every queued job, then starts the first candidate whose immediate
// execution moves nobody's reserved start later (no slip allowed). Rounds
// repeat until no candidate is admissible.
func (c *Conservative) Backfill(st State, head *trace.Job, queue []*trace.Job) {
	for {
		started := c.pl.backfillOne(st, c.Est, st.Now(), head, queue)
		if started == nil {
			return
		}
		queue = removeStarted(queue, started)
	}
}
