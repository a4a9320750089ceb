// Tradeoff reproduces the paper's motivating example (Figure 2 and §1): more
// accurate runtime predictions tighten the head job's reservation — letting
// it start earlier — but shrink the backfilling area, so overall performance
// is NOT monotone in prediction accuracy.
//
// Part 1 replays the exact J0/J1 micro-scenario from Figure 2 and shows the
// reservation and backfill window under each estimator. Part 2 sweeps
// prediction noise on a realistic workload (a miniature Figure 1).
package main

import (
	"fmt"
	"log"

	"repro/internal/backfill"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	part1()
	part2()
}

// microState adapts a hand-built scenario to the backfill.State interface.
// It never changes, so it keeps no journal.
type microState struct {
	now     int64
	free    int
	total   int
	running []backfill.Running
	journal backfill.Journal
}

func (m *microState) Now() int64                  { return m.now }
func (m *microState) FreeProcs() int              { return m.free }
func (m *microState) TotalProcs() int             { return m.total }
func (m *microState) Running() []backfill.Running { return m.running }
func (m *microState) StartJob(*trace.Job)         { panic("read-only scenario") }
func (m *microState) Journal() *backfill.Journal  { return &m.journal }

func part1() {
	fmt.Println("== Figure 2 micro-scenario ==")
	// J0 runs on the whole machine: requested 100s, actually finishes at 60s.
	j0 := &trace.Job{ID: 0, Submit: 0, Runtime: 60, Request: 100, Procs: 8}
	// J1 (the selected job / rjob) waits for the full machine.
	j1 := &trace.Job{ID: 1, Submit: 5, Runtime: 50, Request: 50, Procs: 8}
	st := &microState{now: 10, free: 0, total: 8,
		running: []backfill.Running{{Job: j0, Start: 0}}}

	for _, est := range []backfill.Estimator{
		backfill.RequestTime{},              // coarse upper bound
		backfill.Noisy{Level: 0.4, Seed: 9}, // imperfect prediction
		backfill.ActualRuntime{},            // perfect prediction
	} {
		res := backfill.ComputeReservation(st, j1, est)
		window := res.Shadow - st.Now()
		fmt.Printf("  estimator %-8s J0 predicted end %3d -> J1 reservation %3d, backfill window %3ds\n",
			est.Name(), st.Running()[0].Start+est.Estimate(j0), res.Shadow, window)
	}
	fmt.Println("  -> better predictions move J1's reservation earlier but shrink the window")
	fmt.Println("     a backfill candidate must fit into (Figure 2's 'Backfilling Area').")
	fmt.Println()
}

func part2() {
	fmt.Println("== prediction-accuracy sweep on SDSC-SP2 (miniature Figure 1) ==")
	workload := trace.SyntheticSDSCSP2(3000, 7)
	type point struct {
		name string
		est  backfill.Estimator
	}
	points := []point{
		{"AR (perfect)", backfill.ActualRuntime{}},
		{"+10% noise", backfill.Noisy{Level: 0.1, Seed: 7}},
		{"+40% noise", backfill.Noisy{Level: 0.4, Seed: 7}},
		{"+100% noise", backfill.Noisy{Level: 1.0, Seed: 7}},
		{"request time", backfill.RequestTime{}},
	}
	for _, pol := range []sched.Policy{sched.FCFS{}, sched.SJF{}} {
		fmt.Printf("  base policy %s:\n", pol.Name())
		best, bestName := -1.0, ""
		for _, p := range points {
			res, err := sim.Run(workload.Clone(), sim.Config{Policy: pol, Backfiller: backfill.NewEASY(p.est)})
			if err != nil {
				log.Fatal(err)
			}
			b := res.Summary.MeanBSLD
			fmt.Printf("    %-14s bsld %7.2f\n", p.name, b)
			if best < 0 || b < best {
				best, bestName = b, p.name
			}
		}
		fmt.Printf("    -> best: %s (perfect prediction is not always optimal)\n", bestName)
	}
}
