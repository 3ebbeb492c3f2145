package core

import (
	"math"
	"testing"
)

func TestSingleQueryRemainingTime(t *testing.T) {
	if got := SingleQueryRemainingTime(100, 10); got != 10 {
		t.Errorf("c/s = %g", got)
	}
	if got := SingleQueryRemainingTime(0, 10); got != 0 {
		t.Errorf("zero cost = %g", got)
	}
	if got := SingleQueryRemainingTime(-5, 10); got != 0 {
		t.Errorf("negative cost = %g", got)
	}
	if got := SingleQueryRemainingTime(100, 0); !math.IsInf(got, 1) {
		t.Errorf("zero speed = %g", got)
	}
}

// byID zips a bundle's positions with its input's ids, for the tests that
// name queries by id.
func byID(in EstimateInput, est Estimates) map[int]Estimate {
	out := make(map[int]Estimate, len(est.PerQuery))
	for i, e := range est.PerQuery {
		out[in.Query(i).ID] = e
	}
	return out
}

// stageEstimates asks the production entry point, the stage-mode Estimator,
// for one input's per-query bundle.
func stageEstimates(t *testing.T, in EstimateInput) map[int]Estimate {
	t.Helper()
	est, err := NewEstimator(EstimatorStage)
	if err != nil {
		t.Fatal(err)
	}
	return byID(in, est.Estimates(in, EnsembleState{}))
}

func TestStageEstimatorClosedForm(t *testing.T) {
	states := []QueryState{
		{ID: 1, Remaining: 100, Weight: 1},
		{ID: 2, Remaining: 300, Weight: 1},
	}
	est := stageEstimates(t, EstimateInput{Running: states, RateC: 100})
	// Q1: 100 U at 50 U/s -> 2s. Q2: 200 U left at 100 U/s -> finishes at 4s
	// (work conservation: 400 U total / 100 U/s).
	if est[1].MultiQuery != 2 || est[2].MultiQuery != 4 {
		t.Errorf("estimates: %v", est)
	}
}

func TestStageEstimatorWithQueue(t *testing.T) {
	running := []QueryState{{ID: 1, Remaining: 100, Weight: 1}}
	queued := []QueryState{{ID: 2, Remaining: 100, Weight: 1}}
	est := stageEstimates(t, EstimateInput{Running: running, Queued: queued, MPL: 1, RateC: 100})
	if est[1].MultiQuery != 1 || est[2].MultiQuery != 2 {
		t.Errorf("estimates: %v", est)
	}
}

func TestStageEstimatorWithArrivals(t *testing.T) {
	running := []QueryState{{ID: 1, Remaining: 1000, Weight: 1}}
	am := ArrivalModel{Lambda: 0.1, AvgCost: 100, AvgWeight: 1}
	withF := stageEstimates(t, EstimateInput{Running: running, RateC: 10, Arrivals: &am})
	without := stageEstimates(t, EstimateInput{Running: running, RateC: 10})
	if withF[1].MultiQuery <= without[1].MultiQuery {
		t.Errorf("future arrivals should slow the estimate: %g vs %g", withF[1].MultiQuery, without[1].MultiQuery)
	}
}

func TestSpeedTrackerBasic(t *testing.T) {
	tr := NewSpeedTrackerSized(10, 0)
	if tr.Speed() != 0 {
		t.Error("empty tracker should report 0")
	}
	tr.Observe(0, 0)
	if tr.Speed() != 0 {
		t.Error("single sample should report 0")
	}
	tr.Observe(1, 50)
	tr.Observe(2, 100)
	if got := tr.Speed(); got != 50 {
		t.Errorf("speed = %g, want 50", got)
	}
}

func TestSpeedTrackerWindow(t *testing.T) {
	tr := NewSpeedTrackerSized(10, 0)
	// 0..20s at 10 U/s, then 20..30s at 100 U/s.
	for i := 0; i <= 20; i++ {
		tr.Observe(float64(i), float64(i*10))
	}
	for i := 21; i <= 30; i++ {
		tr.Observe(float64(i), 200+float64(i-20)*100)
	}
	got := tr.Speed()
	if math.Abs(got-100) > 1 {
		t.Errorf("windowed speed = %g, want ~100 (old samples must roll off)", got)
	}
}

// TestSpeedTrackerSparseSamples is the regression test for the window drop
// leaving a single sample behind: when observations are sparser than the
// window, Speed() must still be computed from the newest two samples instead
// of reporting 0 for a steadily running query.
func TestSpeedTrackerSparseSamples(t *testing.T) {
	tr := NewSpeedTrackerSized(1, 0)
	tr.Observe(0, 0)
	tr.Observe(10, 5)
	tr.Observe(20, 10)
	if got := tr.Speed(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("sparse-sample speed = %g, want 0.5 from the newest two samples", got)
	}
	// Still true after enough sparse samples to trigger compaction.
	tr = NewSpeedTrackerSized(1, 0)
	for i := 0; i <= 3000; i++ {
		tr.Observe(float64(i*2), float64(i))
	}
	if got := tr.Speed(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("sparse-sample speed after compaction = %g, want 0.5", got)
	}
}

func TestSpeedTrackerZeroTimeDelta(t *testing.T) {
	tr := NewSpeedTrackerSized(10, 0)
	tr.Observe(5, 10)
	tr.Observe(5, 20)
	if got := tr.Speed(); got != 0 {
		t.Errorf("zero-dt speed = %g", got)
	}
}

func TestSpeedTrackerCompaction(t *testing.T) {
	tr := NewSpeedTrackerSized(5, 0)
	// Force many samples so compaction triggers; speed must stay correct.
	for i := 0; i < 5000; i++ {
		tr.Observe(float64(i), float64(i)*7)
	}
	if got := tr.Speed(); math.Abs(got-7) > 1e-6 {
		t.Errorf("speed after compaction = %g, want 7", got)
	}
}

func TestSpeedTrackerDefaultWindow(t *testing.T) {
	tr := NewSpeedTrackerSized(0, 0) // defaults to 10s
	tr.Observe(0, 0)
	tr.Observe(1, 5)
	if tr.Speed() != 5 {
		t.Errorf("speed = %g", tr.Speed())
	}
}

// TestStageEstimatorQueueAndArrivalsCombined: §2.3 and §2.4 compose — a
// queued query plus predicted arrivals both push the estimate out.
func TestStageEstimatorQueueAndArrivalsCombined(t *testing.T) {
	running := []QueryState{{ID: 1, Remaining: 1000, Weight: 1}}
	queued := []QueryState{{ID: 2, Remaining: 500, Weight: 1}}
	am := ArrivalModel{Lambda: 0.02, AvgCost: 300, AvgWeight: 1}
	plain := stageEstimates(t, EstimateInput{Running: running, RateC: 10})[1].MultiQuery
	withQueue := stageEstimates(t, EstimateInput{Running: running, Queued: queued, MPL: 1, RateC: 10})
	queueOnly := withQueue[1].MultiQuery
	both := stageEstimates(t, EstimateInput{Running: running, Queued: queued, MPL: 1, RateC: 10, Arrivals: &am})[1].MultiQuery
	// Extra load can only delay estimates, never improve them.
	if queueOnly < plain {
		t.Errorf("queue should never speed things up: %g < %g", queueOnly, plain)
	}
	if both < queueOnly {
		t.Errorf("arrivals should never speed things up: %g < %g", both, queueOnly)
	}
	// The queued query's own estimate accounts for waiting.
	if q2 := withQueue[2].MultiQuery; q2 <= queueOnly {
		t.Errorf("queued query finishes after the running one: %g <= %g", q2, queueOnly)
	}
}

// TestStageEstimatorBundle: one pass yields both indicators for every
// admitted and queued query.
func TestStageEstimatorBundle(t *testing.T) {
	running := []QueryState{
		{ID: 1, Remaining: 100, Weight: 1, Done: 50},
		{ID: 2, Remaining: 300, Weight: 1, Done: 0},
		{ID: 3, Remaining: 80, Weight: 0, Done: 10}, // blocked
	}
	queued := []QueryState{{ID: 4, Remaining: 50, Weight: 1}}
	in := EstimateInput{Running: running, Queued: queued, RateC: 100, Speeds: map[int]float64{1: 50, 2: 50}}
	got := stageEstimates(t, in)
	if len(got) != 4 {
		t.Fatalf("estimates for %d queries, want 4", len(got))
	}
	// Single-query: c/s where observed; +Inf where not.
	if got[1].SingleQuery != 2 {
		t.Errorf("Q1 single = %g, want 2", got[1].SingleQuery)
	}
	if !math.IsInf(got[3].SingleQuery, 1) || !math.IsInf(got[4].SingleQuery, 1) {
		t.Errorf("unobserved queries must have +Inf single-query ETA: %v, %v", got[3], got[4])
	}
	// Multi-query is the stateless pass bit for bit, and the event-stepped
	// queue-aware oracle to rounding (the finish-tag pass lands Q4 on 1.5, the
	// oracle's repeated subtraction on 1.5000000000000002).
	want := byID(in, ComputeEstimates(in))
	multi := SimulateProfile(running, 100, SimOptions{Queued: queued}).Finish
	for id, e := range got {
		if math.Float64bits(e.MultiQuery) != math.Float64bits(want[id].MultiQuery) {
			t.Errorf("Q%d multi = %g, ComputeEstimates says %g", id, e.MultiQuery, want[id].MultiQuery)
		}
		if !sameFinish(e.MultiQuery, multi[id]) {
			t.Errorf("Q%d multi = %g, oracle %g", id, e.MultiQuery, multi[id])
		}
	}
	// Future-aware variant slows everything down.
	in.Arrivals = &ArrivalModel{Lambda: 0.5, AvgCost: 100, AvgWeight: 1}
	fut := stageEstimates(t, in)
	if fut[2].MultiQuery <= got[2].MultiQuery {
		t.Errorf("future arrivals must not speed Q2 up: %g vs %g", fut[2].MultiQuery, got[2].MultiQuery)
	}
}
