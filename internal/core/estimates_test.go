package core

import (
	"math"
	"math/rand"
	"slices"
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
		in := EstimateInput{Running: running, Queued: queued, MPL: 2, RateC: 100, Speeds: speeds, Arrivals: am}
		got := ComputeEstimates(in)
		finish := SimulateProfile(running, 100, SimOptions{MPL: 2, Queued: queued, Arrivals: am}).Finish
		if len(got.PerQuery) != len(running)+len(queued) {
			t.Fatalf("arrivals=%v: %d estimates, want %d", am, len(got.PerQuery), len(running)+len(queued))
		}
		for i, g := range got.PerQuery { // position i is query i of running ++ queued
			q := in.Query(i)
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
// matching the §2.3 definition.
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
	if !math.IsInf(blocked.PerQuery[0].MultiQuery, 1) {
		t.Errorf("blocked query multi ETA = %g, want +Inf", blocked.PerQuery[0].MultiQuery)
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
		for i, e := range want.PerQuery {
			if g := got.PerQuery[i].MultiQuery; g != e.MultiQuery {
				t.Errorf("AvgWeight %v: Q%d multi-query ETA = %v, want %v as without the model", w, in.Query(i).ID, g, e.MultiQuery)
			}
		}
	}
}

// TestEstimatesArePositional is the contract of a bundle: in every estimator
// mode, over random running/queued/blocked mixes (ids shuffled against
// positions) with and without an arrival model, PerQuery[i] is the estimate of
// in.Query(i). There is one estimate per query; its single-query ETA is c/s of
// that query's own cost and speed; the stage point — the bundle's own in stage
// mode, the stage member's in the others — is that query's finish in the
// event-stepped oracle, looked up by id; and when the same running set is
// handed over in reverse, every query's whole estimate follows it to its new
// position, to rounding (the sums reassociate).
func TestEstimatesArePositional(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	same := func(a, b Estimate) bool {
		return sameFinish(a.SingleQuery, b.SingleQuery) && sameFinish(a.MultiQuery, b.MultiQuery) &&
			sameFinish(a.ETALow, b.ETALow) && sameFinish(a.ETAHigh, b.ETAHigh)
	}
	for _, mode := range EstimatorModes() {
		est, err := NewEstimator(mode)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(22))
		withModel, withQueue, blocked := 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			in := randomQueueInput(rng, 40, trial%2 == 1)
			in.Speeds = map[int]float64{}
			st := EnsembleState{SpeedEWMA: map[int]float64{}}
			for _, q := range in.Running {
				if q.Weight <= 0 {
					blocked++
				}
				if rng.Intn(3) > 0 {
					in.Speeds[q.ID] = 1 + 99*rng.Float64()
				}
				if rng.Intn(3) == 0 {
					st.SpeedEWMA[q.ID] = 1 + 99*rng.Float64()
				}
			}
			if in.Arrivals != nil {
				withModel++
			}
			if len(in.Queued) > 0 {
				withQueue++
			}

			got := est.Estimates(in, st)
			if len(got.PerQuery) != len(in.Running)+len(in.Queued) {
				t.Fatalf("%s trial %d: %d estimates for %d running + %d queued", mode, trial, len(got.PerQuery), len(in.Running), len(in.Queued))
			}
			oracle := SimulateProfile(in.Running, in.RateC, SimOptions{MPL: in.MPL, Queued: in.Queued, Arrivals: in.Arrivals}).Finish
			for i, e := range got.PerQuery {
				q := in.Query(i)
				if want := SingleQueryRemainingTime(q.Remaining, in.Speeds[q.ID]); e.SingleQuery != want {
					t.Fatalf("%s trial %d position %d (Q%d): single-query ETA %v, want %v", mode, trial, i, q.ID, e.SingleQuery, want)
				}
				stage := e.MultiQuery
				if mode != EstimatorStage {
					stage = got.members[memberStage][i]
				}
				if !sameFinish(stage, oracle[q.ID]) {
					t.Fatalf("%s trial %d position %d (Q%d): stage point %v, oracle %v", mode, trial, i, q.ID, stage, oracle[q.ID])
				}
			}

			rev := in
			rev.Running = slices.Clone(in.Running)
			slices.Reverse(rev.Running)
			moved := est.Estimates(rev, st).PerQuery
			for i, e := range got.PerQuery {
				j := i // a queued query keeps its place
				if i < len(in.Running) {
					j = len(in.Running) - 1 - i
				}
				if rev.Query(j).ID != in.Query(i).ID || !same(moved[j], e) {
					t.Fatalf("%s trial %d: Q%d at position %d reads %+v, at position %d of the reversed running set %+v",
						mode, trial, in.Query(i).ID, i, e, j, moved[j])
				}
			}
		}
		if withModel == 0 || withModel == trials || withQueue == 0 || withQueue == trials || blocked == 0 {
			t.Fatalf("%s: %d of %d inputs with a model, %d with a queue, %d blocked runners: the mix is one-sided", mode, withModel, trials, withQueue, blocked)
		}
	}
}

// TestStageEstimatesAllocs: a pass of the production stage estimator allocates
// once — the slice it returns, which the service publishes — at the
// benchmark's backlog depth (64 running, 936 queued). The heap and the finish
// slice are the estimator's own and the bundle carries no map.
func TestStageEstimatesAllocs(t *testing.T) {
	states := benchStates(1000)
	in := EstimateInput{Running: states[:64], Queued: states[64:], MPL: 64, RateC: 1000, Speeds: map[int]float64{1: 10}}
	var est stageEstimator
	est.Estimates(in, EnsembleState{}) // sizes the scratch
	if n := testing.AllocsPerRun(20, func() { est.Estimates(in, EnsembleState{}) }); n != 1 {
		t.Errorf("stageEstimator.Estimates allocates %v times per pass at r64/q936, want 1", n)
	}
}
