package core

import (
	"math"
	"testing"
)

// TestComputeEstimatesMatchesProfiles: the from-scratch bundle is the stage
// model's finish times paired with c/s for every query, in both the
// queue-aware and future-aware configurations — the same math as the
// profile oracles, behind a pure-value interface.
func TestComputeEstimatesMatchesProfiles(t *testing.T) {
	running := []QueryState{
		{ID: 1, Remaining: 100, Weight: 1, Done: 50},
		{ID: 2, Remaining: 300, Weight: 1, Done: 0},
		{ID: 3, Remaining: 80, Weight: 0, Done: 10}, // blocked
	}
	queued := []QueryState{{ID: 4, Remaining: 50, Weight: 1}}
	speeds := map[int]float64{1: 50, 2: 50}

	for _, am := range []*ArrivalModel{nil, {Lambda: 0.5, AvgCost: 100, AvgWeight: 1}} {
		got := ComputeEstimates(EstimateInput{
			Running: running, Queued: queued, MPL: 2, RateC: 100, Speeds: speeds, Arrivals: am,
		})
		finish := SimulateProfile(running, 100, SimOptions{MPL: 2, Queued: queued, Arrivals: am}).Finish
		if len(got.PerQuery) != len(running)+len(queued) {
			t.Fatalf("arrivals=%v: %d estimates, want %d", am, len(got.PerQuery), len(running)+len(queued))
		}
		for _, q := range append(append([]QueryState{}, running...), queued...) {
			g := got.PerQuery[q.ID]
			m := finish[q.ID]
			w := Estimate{SingleQuery: SingleQueryRemainingTime(q.Remaining, speeds[q.ID]), MultiQuery: m, ETALow: m, ETAHigh: m}
			if g != w {
				t.Errorf("arrivals=%v Q%d: got %+v, want %+v", am, q.ID, g, w)
			}
		}
	}
}

// TestComputeEstimatesQuiescent: the quiescent ETA is the last finite finish
// of the queue-aware profile and ignores the hypothetical future arrivals,
// matching the §2.3 definition (and sched.Server.QuiescentEstimate).
func TestComputeEstimatesQuiescent(t *testing.T) {
	running := []QueryState{
		{ID: 1, Remaining: 100, Weight: 1},
		{ID: 2, Remaining: 300, Weight: 1},
	}
	queued := []QueryState{{ID: 3, Remaining: 100, Weight: 1}}
	noArrivals := ComputeEstimates(EstimateInput{Running: running, Queued: queued, MPL: 2, RateC: 100})
	want := 0.0
	for _, f := range SimulateProfile(running, 100, SimOptions{MPL: 2, Queued: queued}).Finish {
		if !math.IsInf(f, 1) && f > want {
			want = f
		}
	}
	if math.Abs(noArrivals.Quiescent-want) > 1e-9 {
		t.Errorf("quiescent = %g, want %g", noArrivals.Quiescent, want)
	}
	withArrivals := ComputeEstimates(EstimateInput{
		Running: running, Queued: queued, MPL: 2, RateC: 100,
		Arrivals: &ArrivalModel{Lambda: 1, AvgCost: 50, AvgWeight: 1},
	})
	if withArrivals.Quiescent != noArrivals.Quiescent {
		t.Errorf("arrivals changed the quiescent ETA: %g vs %g", withArrivals.Quiescent, noArrivals.Quiescent)
	}
	// Blocked-only systems never quiesce... but the quiescent ETA of an empty
	// system is 0, and +Inf finishes are excluded rather than propagated.
	blocked := ComputeEstimates(EstimateInput{Running: []QueryState{{ID: 9, Remaining: 50, Weight: 0}}, RateC: 100})
	if blocked.Quiescent != 0 {
		t.Errorf("blocked-only quiescent = %g, want 0 (Inf excluded)", blocked.Quiescent)
	}
	if !math.IsInf(blocked.PerQuery[9].MultiQuery, 1) {
		t.Errorf("blocked query multi ETA = %g, want +Inf", blocked.PerQuery[9].MultiQuery)
	}
}

// TestWeightlessArrivalModelIsInactive: an arrival model with no weight (here
// AvgWeight left at its zero value) predicts queries that could never run.
// They used to enter as blocked, and the one that took the slot Q1 frees kept
// it for ever: Q2 read MultiQuery = +Inf beside Quiescent = 15 in one bundle.
// Such a model is inactive, like one with no rate or no cost.
func TestWeightlessArrivalModelIsInactive(t *testing.T) {
	in := EstimateInput{
		Running: []QueryState{{ID: 1, Remaining: 100, Weight: 1}},
		Queued:  []QueryState{{ID: 2, Remaining: 50, Weight: 1}},
		MPL:     1, RateC: 10,
	}
	want := ComputeEstimates(in)
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		in.Arrivals = &ArrivalModel{Lambda: 1, AvgCost: 5, AvgWeight: w}
		got := ComputeEstimates(in)
		if got.Quiescent != 15 {
			t.Errorf("AvgWeight %v: quiescent = %v, want 15", w, got.Quiescent)
		}
		for id, e := range want.PerQuery {
			if g := got.PerQuery[id].MultiQuery; g != e.MultiQuery {
				t.Errorf("AvgWeight %v: Q%d multi-query ETA = %v, want %v as without the model", w, id, g, e.MultiQuery)
			}
		}
	}
}
