package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mqpi/internal/core"
	"mqpi/internal/engine"
)

// TestDifferentialPredictionVsMeasured is the seeded cross-check of the two
// layers: for random workloads — mixed priorities, MPL limits, scheduled
// (including mid-quantum) arrivals, and mid-run block/unblock cycles — the
// queue-aware stage-model prediction taken from a live snapshot must match
// the finish times the virtual-time server actually measures, within quantum
// granularity. A bug in either the estimator (wrong stage algebra) or the
// scheduler (unfair sharing, lost service, stale credit) shows up as a
// divergence.
func TestDifferentialPredictionVsMeasured(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	weights := map[int]float64{0: 1, 1: 2, 2: 4}
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		db := engine.Open()
		quantum := []float64{0.25, 0.5, 1}[rng.Intn(3)]
		mpl := []int{0, 0, 2, 3}[rng.Intn(4)]
		srv := New(Config{RateC: 10, Quantum: quantum, MPL: mpl, Weights: weights})
		n := 2 + rng.Intn(4)
		queries := make([]*Query, n)
		for i := range queries {
			pages := 2 + rng.Intn(28)
			r := prepare(t, db, fmt.Sprintf("t%d_%d", trial, i), pages)
			q := srv.NewQuery(fmt.Sprintf("q%d", i), "", rng.Intn(3), r)
			queries[i] = q
			if rng.Intn(4) == 0 {
				// Scheduled arrival, half the time strictly mid-quantum.
				at := float64(1+rng.Intn(3)) * quantum
				if rng.Intn(2) == 0 {
					at += 0.5 * quantum
				}
				srv.ScheduleArrival(at, q)
			} else {
				srv.Submit(q)
			}
		}
		// Run past all arrivals, plus a few warm-up ticks.
		for len(srv.arrivals) > 0 {
			srv.Tick()
		}
		for k := rng.Intn(3); k > 0; k-- {
			srv.Tick()
		}
		// Half the trials stress the block paths: one victim goes through a
		// block→unblock cycle, another may stay blocked across the snapshot.
		if rng.Intn(2) == 0 && len(srv.Running()) > 1 {
			victim := srv.Running()[rng.Intn(len(srv.Running()))]
			if victim.Status == StatusRunning {
				if err := srv.Block(victim.ID); err != nil {
					t.Fatal(err)
				}
				srv.Tick()
				if victim.Status == StatusBlocked { // may have been admitted-over
					if err := srv.Unblock(victim.ID); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if rng.Intn(3) == 0 && len(srv.Running()) > 1 {
			victim := srv.Running()[rng.Intn(len(srv.Running()))]
			if victim.Status == StatusRunning {
				if err := srv.Block(victim.ID); err != nil { // blocked across the snapshot
					t.Fatal(err)
				}
			}
		}
		snapNow := srv.Now()
		in := core.EstimateInput{
			Running: srv.StateRunning(), Queued: srv.StateQueued(), MPL: srv.MPL(), RateC: srv.RateC(),
		}
		pred := make(map[int]float64) // estimates are positional; the scoring below is by id
		for i, e := range core.ComputeEstimates(in).PerQuery {
			pred[in.Query(i).ID] = e.MultiQuery
		}
		srv.RunUntilIdle(1e6)
		for _, q := range queries {
			p, ok := pred[q.ID]
			if !ok || math.IsInf(p, 1) {
				continue // finished before the snapshot, or blocked forever
			}
			if q.Status != StatusFinished {
				t.Errorf("trial %d: Q%d predicted to finish in %.2fs but ended %v", trial, q.ID, p, q.Status)
				continue
			}
			measured := q.FinishTime - snapNow
			// Tolerance: finish times and MPL admissions quantize to quantum
			// boundaries, and refined costs can be off by a page.
			tol := 2*quantum + 0.05*p + 0.5
			if math.Abs(measured-p) > tol {
				t.Errorf("trial %d (quantum=%g mpl=%d): Q%d predicted %.3fs, measured %.3fs (|Δ|=%.3f > tol %.3f)",
					trial, quantum, mpl, q.ID, p, measured, math.Abs(measured-p), tol)
			}
		}
	}
}
