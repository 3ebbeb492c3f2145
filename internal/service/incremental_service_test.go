package service

import (
	"fmt"
	"math"
	"testing"

	"mqpi/internal/core"
	"mqpi/internal/engine"
	"mqpi/internal/sched"
)

// estimates is the stateless oracle: the bundle a fresh estimator — no
// scratch memory, no history of earlier passes — derives from the
// snapshot alone under calibration state st. The bundle the manager publishes
// with the snapshot is tested against it.
func (s *Snapshot) estimates(arrivals *core.ArrivalModel, st core.EnsembleState) core.Estimates {
	est, err := core.NewEstimator(s.Estimator)
	if err != nil {
		panic(err) // published snapshots only ever carry validated modes
	}
	return est.Estimates(s.estimateInput(arrivals), st)
}

func sameEstimate(a, b core.Estimate) bool {
	return math.Float64bits(a.SingleQuery) == math.Float64bits(b.SingleQuery) &&
		math.Float64bits(a.MultiQuery) == math.Float64bits(b.MultiQuery) &&
		math.Float64bits(a.ETALow) == math.Float64bits(b.ETALow) &&
		math.Float64bits(a.ETAHigh) == math.Float64bits(b.ETAHigh)
}

// checkPublishedEstimates compares the bundle published with the current
// snapshot — the owner's one pass through its run-long estimator —
// against the stateless oracle Snapshot.estimates, bit for bit.
func checkPublishedEstimates(t *testing.T, m *Manager, step string) {
	t.Helper()
	snap, err := m.read()
	if err != nil {
		t.Fatal(err)
	}
	want := snap.estimates(m.cfg.Arrivals, core.EnsembleState{})
	got := snap.est
	if math.Float64bits(got.Quiescent) != math.Float64bits(want.Quiescent) {
		t.Fatalf("%s: quiescent = %v, want %v", step, got.Quiescent, want.Quiescent)
	}
	if len(got.PerQuery) != len(want.PerQuery) {
		t.Fatalf("%s: %d estimates, want %d", step, len(got.PerQuery), len(want.PerQuery))
	}
	for i, w := range want.PerQuery { // positional: query i of Sched.Running ++ Sched.Queued
		if g := got.PerQuery[i]; !sameEstimate(g, w) {
			t.Fatalf("%s: position %d estimate = %+v, want %+v", step, i, g, w)
		}
	}
}

// TestIncrementalEstimatesMatchStateless drives a manager through submission
// bursts, queueing, block/unblock, priority changes, a fold toggle, DML, an
// abort, and thirty ticks of drainage, checking after every transition that
// the bundle published with the snapshot is exactly — bitwise — what the
// stateless oracle derives from that snapshot, whether the tick's pass or
// publish's own produced it. This pins the service-layer half of the
// contract that the owner's run-long estimator carries nothing from one pass
// into the next (the core half is TestStageEstimatorReusesQueuePass, the sim
// half invariant I6).
func TestIncrementalEstimatesMatchStateless(t *testing.T) {
	db := engine.Open()
	for i := 0; i < 6; i++ {
		loadTable(t, db, fmt.Sprintf("inc%d", i), 8+4*i)
	}
	m := manual(t, db, sched.Config{
		RateC:   12,
		Quantum: 0.5,
		MPL:     3,
		Weights: map[int]float64{1: 2, 2: 4},
		Fold:    true,
	})

	ids := make([]int, 0, 6)
	for i := 0; i < 6; i++ {
		v, err := m.Submit(SubmitRequest{
			Label:    fmt.Sprintf("q%d", i),
			SQL:      fmt.Sprintf("SELECT SUM(a) FROM inc%d", i),
			Priority: i % 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		// With MPL 3, submissions 4–6 queue up: the non-empty-queue fallback
		// (event-stepped simulation) is exercised alongside the fast path.
		checkPublishedEstimates(t, m, fmt.Sprintf("submit %d", i))
	}

	for step := 0; step < 30; step++ {
		if err := m.Advance(0.5); err != nil {
			t.Fatal(err)
		}
		checkPublishedEstimates(t, m, fmt.Sprintf("tick %d", step))
		switch step {
		case 2:
			if err := m.Block(ids[0]); err != nil {
				t.Fatal(err)
			}
			checkPublishedEstimates(t, m, "block")
		case 4:
			if err := m.SetPriority(ids[1], 2); err != nil {
				t.Fatal(err)
			}
			checkPublishedEstimates(t, m, "priority")
		case 6:
			if err := m.Unblock(ids[0]); err != nil {
				t.Fatal(err)
			}
			checkPublishedEstimates(t, m, "unblock")
		case 8:
			// The target may already have finished depending on the weight
			// mix; either way the post-action snapshot must stay consistent.
			_ = m.Abort(ids[2])
			checkPublishedEstimates(t, m, "abort")
		case 10:
			if _, err := m.Exec("INSERT INTO inc5 VALUES (1)"); err != nil {
				t.Fatal(err)
			}
			checkPublishedEstimates(t, m, "exec")
		}
	}
}

// TestPublishedEstimatesWithArrivals: with a §2.4 arrival model configured the
// owner's estimator runs its pass twice per state — without the model for the
// quiescent ETA, with it for the per-query ETAs — into the same heap and
// finish slice, and the published bundle is still, bit for bit, what a fresh
// estimator derives from the snapshot; the predicted arrivals delay the
// queries but not the quiescent ETA.
func TestPublishedEstimatesWithArrivals(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "arr0", 10)
	loadTable(t, db, "arr1", 14)
	m := New(db, Config{
		Sched:     sched.Config{RateC: 10, Quantum: 0.5, MPL: 2},
		TickEvery: -1,
		Arrivals:  &core.ArrivalModel{Lambda: 0.5, AvgCost: 8, AvgWeight: 1},
	})
	t.Cleanup(m.Close)

	for i, tbl := range []string{"arr0", "arr1"} {
		if _, err := m.Submit(SubmitRequest{
			Label: fmt.Sprintf("a%d", i),
			SQL:   "SELECT SUM(a) FROM " + tbl,
		}); err != nil {
			t.Fatal(err)
		}
		checkPublishedEstimates(t, m, fmt.Sprintf("submit %d", i))
	}
	snap, err := m.read()
	if err != nil {
		t.Fatal(err)
	}
	blind := snap.estimates(nil, core.EnsembleState{})
	if snap.est.Quiescent != blind.Quiescent {
		t.Errorf("quiescent ETA %v with the arrival model, %v without", snap.est.Quiescent, blind.Quiescent)
	}
	for i, b := range blind.PerQuery {
		if g := snap.est.PerQuery[i].MultiQuery; !(g > b.MultiQuery) {
			t.Errorf("position %d: multi-query ETA %v with predicted arrivals, %v without: want later", i, g, b.MultiQuery)
		}
	}
	for step := 0; step < 6; step++ {
		if err := m.Advance(0.5); err != nil {
			t.Fatal(err)
		}
		checkPublishedEstimates(t, m, fmt.Sprintf("tick %d", step))
	}
}

// TestStageProfileMatchesPolledETA: the diagram and the §3 planners read
// core.ComputeProfile over the snapshot's running set, and polls read the
// published estimates. With an empty admission queue both are one stage
// computation, so every running query's profile finish is, bit for bit, the
// MultiETA a poll of that snapshot returns. The weights are not powers of two,
// so a second derivation that sums W_k in another order would show here.
func TestStageProfileMatchesPolledETA(t *testing.T) {
	db := engine.Open()
	for i := 0; i < 7; i++ {
		loadTable(t, db, fmt.Sprintf("ord%d", i), 5+3*i)
	}
	m := manual(t, db, sched.Config{
		RateC:   13,
		Quantum: 0.5,
		MPL:     8,
		Weights: map[int]float64{0: 0.3, 1: 1.7, 2: 2.9},
	})
	for i := 0; i < 7; i++ {
		if _, err := m.Submit(SubmitRequest{SQL: fmt.Sprintf("SELECT SUM(a) FROM ord%d", i), Priority: i % 3}); err != nil {
			t.Fatal(err)
		}
	}
	checked := 0
	for step := 0; step < 6; step++ {
		if err := m.Advance(0.5); err != nil {
			t.Fatal(err)
		}
		snap, err := m.read()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Sched.Queued) != 0 {
			t.Fatalf("step %d: %d queued, want an empty queue", step, len(snap.Sched.Queued))
		}
		prof := core.ComputeProfile(snap.Sched.StatesRunning(), snap.Sched.RateC)
		for _, q := range snap.Sched.Running {
			p, err := m.Progress(q.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := float64(p.MultiETA), prof.Finish[q.ID]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: q%d polled MultiETA %v, profile finish %v (bitwise)", step, q.ID, got, want)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d running queries compared", checked)
	}
}
