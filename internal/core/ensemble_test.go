package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func randomEnsembleInput(rng *rand.Rand) EstimateInput {
	in := EstimateInput{RateC: 50 + rng.Float64()*150, Speeds: map[int]float64{}}
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		q := QueryState{
			ID:        i + 1,
			Remaining: rng.Float64() * 500,
			Weight:    float64(rng.Intn(4)), // weight 0 = blocked
			Done:      rng.Float64() * 100,
		}
		in.Running = append(in.Running, q)
		if rng.Intn(2) == 0 {
			in.Speeds[q.ID] = rng.Float64() * 80
		}
	}
	for i := 0; i < rng.Intn(3); i++ {
		in.Queued = append(in.Queued, QueryState{ID: 100 + i, Remaining: rng.Float64() * 200, Weight: 1})
	}
	if len(in.Queued) > 0 {
		in.MPL = n
	}
	return in
}

// TestStageEstimatorBitIdentical: the "stage" mode of the pluggable plane is
// the pre-ensemble pipeline verbatim — across random inputs (including queued
// work, which exercises the simulation fallback) its output must be bitwise
// equal to ComputeEstimates, with degenerate bands and no weights. This is
// the unit-level half of sim invariant I13.
func TestStageEstimatorBitIdentical(t *testing.T) {
	est, err := NewEstimator(EstimatorStage)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		in := randomEnsembleInput(rng)
		got := est.Estimates(in, EnsembleState{})
		want := ComputeEstimates(in)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: stage estimator diverged\n got %+v\nwant %+v", trial, got, want)
		}
		if got.Weights != nil {
			t.Fatalf("trial %d: stage mode reported weights %v", trial, got.Weights)
		}
		for id, e := range byID(in, got) {
			if e.ETALow != e.MultiQuery || e.ETAHigh != e.MultiQuery {
				if !(math.IsInf(e.MultiQuery, 1) && math.IsInf(e.ETALow, 1) && math.IsInf(e.ETAHigh, 1)) {
					t.Fatalf("trial %d Q%d: stage band not degenerate: %+v", trial, id, e)
				}
			}
		}
	}
}

// TestNewEstimatorModes: "" defaults to stage, each named mode reports
// itself, and unknown modes are rejected with a message listing the valid
// ones.
func TestNewEstimatorModes(t *testing.T) {
	def, err := NewEstimator("")
	if err != nil || def.Mode() != EstimatorStage {
		t.Fatalf(`NewEstimator("") = %v, %v; want stage`, def, err)
	}
	for _, mode := range EstimatorModes() {
		e, err := NewEstimator(mode)
		if err != nil {
			t.Fatalf("NewEstimator(%q): %v", mode, err)
		}
		if e.Mode() != mode {
			t.Fatalf("NewEstimator(%q).Mode() = %q", mode, e.Mode())
		}
	}
	if _, err := NewEstimator("oracle"); err == nil {
		t.Fatal("unknown estimator accepted")
	} else {
		for _, mode := range EstimatorModes() {
			if !containsStr(err.Error(), mode) {
				t.Fatalf("error %q does not list valid mode %q", err, mode)
			}
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestEnsembleBandsContainPoint: in every non-stage mode the band must
// bracket the blended point for every query with a finite ETA, the point must
// sit within the raw member range, and weights must be normalized.
func TestEnsembleBandsContainPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, mode := range []string{EstimatorCost, EstimatorSpeed, EstimatorEnsemble} {
		est, err := NewEstimator(mode)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 100; trial++ {
			in := randomEnsembleInput(rng)
			got := est.Estimates(in, EnsembleState{})
			sum := 0.0
			for _, w := range got.Weights {
				if w < 0 {
					t.Fatalf("%s trial %d: negative weight %v", mode, trial, got.Weights)
				}
				sum += w
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%s trial %d: weights %v sum to %g", mode, trial, got.Weights, sum)
			}
			for id, e := range byID(in, got) {
				if math.IsInf(e.MultiQuery, 1) {
					if !math.IsInf(e.ETALow, 1) || !math.IsInf(e.ETAHigh, 1) {
						t.Fatalf("%s trial %d Q%d: infinite point with finite band %+v", mode, trial, id, e)
					}
					continue
				}
				if !(e.ETALow <= e.MultiQuery && e.MultiQuery <= e.ETAHigh) {
					t.Fatalf("%s trial %d Q%d: band [%g,%g] misses point %g",
						mode, trial, id, e.ETALow, e.ETAHigh, e.MultiQuery)
				}
				if e.ETALow < 0 {
					t.Fatalf("%s trial %d Q%d: negative band low %g", mode, trial, id, e.ETALow)
				}
				if e.MultiQuery > 0 && e.ETAHigh-e.ETALow <= 0 {
					t.Fatalf("%s trial %d Q%d: band collapsed for nonzero ETA %+v", mode, trial, id, e)
				}
			}
		}
	}
}

// TestForcedMemberModes: cost/speed modes select a single member (degenerate
// weights) and their point equals that member's raw ETA.
func TestForcedMemberModes(t *testing.T) {
	in := EstimateInput{
		Running: []QueryState{
			{ID: 1, Remaining: 100, Weight: 1},
			{ID: 2, Remaining: 300, Weight: 2},
		},
		RateC:  100,
		Speeds: map[int]float64{1: 20, 2: 80},
	}
	st := EnsembleState{SpeedEWMA: map[int]float64{1: 25, 2: 70}}

	costEst, _ := NewEstimator(EstimatorCost)
	got := costEst.Estimates(in, st)
	if got.Weights[EstimatorCost] != 1 || got.Weights[EstimatorStage] != 0 || got.Weights[EstimatorSpeed] != 0 {
		t.Fatalf("cost mode weights = %v", got.Weights)
	}
	// Q1: share = 100·(1/3) = 33.33, blended with observed 20 → 26.67 U/s.
	wantQ1 := 100 / ((20 + 100.0/3) / 2)
	if math.Abs(byID(in, got)[1].MultiQuery-wantQ1) > 1e-9 {
		t.Fatalf("cost mode Q1 = %g, want %g", byID(in, got)[1].MultiQuery, wantQ1)
	}

	speedEst, _ := NewEstimator(EstimatorSpeed)
	got = speedEst.Estimates(in, st)
	if got.Weights[EstimatorSpeed] != 1 {
		t.Fatalf("speed mode weights = %v", got.Weights)
	}
	if want := 100 / 25.0; math.Abs(byID(in, got)[1].MultiQuery-want) > 1e-9 {
		t.Fatalf("speed mode Q1 = %g, want %g (EWMA speed 25)", byID(in, got)[1].MultiQuery, want)
	}
}

// TestEnsembleBlockedQueryInfinite: a blocked query (weight 0) must report
// +Inf from every member — a stale observed speed must not leak a finite ETA
// for work that cannot progress.
func TestEnsembleBlockedQueryInfinite(t *testing.T) {
	in := EstimateInput{
		Running: []QueryState{
			{ID: 1, Remaining: 100, Weight: 1},
			{ID: 2, Remaining: 100, Weight: 0}, // blocked, but has a stale speed
		},
		RateC:  100,
		Speeds: map[int]float64{2: 50},
	}
	st := EnsembleState{SpeedEWMA: map[int]float64{2: 50}}
	for _, mode := range []string{EstimatorCost, EstimatorSpeed, EstimatorEnsemble} {
		est, _ := NewEstimator(mode)
		got := est.Estimates(in, st)
		if !math.IsInf(byID(in, got)[2].MultiQuery, 1) {
			t.Fatalf("%s: blocked query ETA = %g, want +Inf", mode, byID(in, got)[2].MultiQuery)
		}
	}
}

// TestEnsembleQueuedBacklog: queued queries get the FIFO backlog view —
// runnable remaining work plus the queue ahead, drained at C.
func TestEnsembleQueuedBacklog(t *testing.T) {
	in := EstimateInput{
		Running: []QueryState{
			{ID: 1, Remaining: 100, Weight: 1},
			{ID: 9, Remaining: 70, Weight: 0}, // blocked: excluded from backlog
		},
		Queued: []QueryState{
			{ID: 2, Remaining: 200, Weight: 1},
			{ID: 3, Remaining: 100, Weight: 1},
		},
		MPL:   1,
		RateC: 100,
	}
	est, _ := NewEstimator(EstimatorCost)
	got := est.Estimates(in, EnsembleState{})
	if want := (100 + 200.0) / 100; math.Abs(byID(in, got)[2].MultiQuery-want) > 1e-9 {
		t.Fatalf("queued Q2 = %g, want %g", byID(in, got)[2].MultiQuery, want)
	}
	if want := (100 + 200 + 100.0) / 100; math.Abs(byID(in, got)[3].MultiQuery-want) > 1e-9 {
		t.Fatalf("queued Q3 = %g, want %g", byID(in, got)[3].MultiQuery, want)
	}
}

// TestEnsembleCalibWeights: after residuals land, the blender must weight the
// historically better member higher; before any residual, weights are equal.
func TestEnsembleCalibWeights(t *testing.T) {
	uncal := blendWeights(EstimatorEnsemble, EnsembleState{})
	for i := range uncal {
		if math.Abs(uncal[i]-1.0/numMembers) > 1e-12 {
			t.Fatalf("uncalibrated weights = %v, want equal", uncal)
		}
	}
	st := EnsembleState{
		Samples: 5,
		Errors:  map[string]float64{EstimatorStage: 1.0, EstimatorCost: 10.0, EstimatorSpeed: 10.0},
	}
	w := blendWeights(EstimatorEnsemble, st)
	if !(w[memberStage] > w[memberCost] && w[memberStage] > w[memberSpeed]) {
		t.Fatalf("weights %v do not favor the lower-error member", w)
	}
	sum := w[memberStage] + w[memberCost] + w[memberSpeed]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights %v sum to %g", w, sum)
	}
}

// TestEnsembleCalibLifecycle: Observe records member predictions and bands,
// Finish folds residuals into rolling errors and scores band coverage, and
// Forget drops entries without a residual.
func TestEnsembleCalibLifecycle(t *testing.T) {
	est, _ := NewEstimator(EstimatorEnsemble)
	calib := NewEnsembleCalib()
	in := EstimateInput{
		Running: []QueryState{{ID: 1, Remaining: 100, Weight: 1}},
		RateC:   100,
		Speeds:  map[int]float64{1: 100},
	}
	bundle := est.Estimates(in, calib.State())
	calib.Observe(10, in, bundle)

	st := calib.State()
	if st.Samples != 0 || st.Errors != nil {
		t.Fatalf("state before any finish = %+v", st)
	}
	if st.SpeedEWMA[1] != 100 {
		t.Fatalf("speed EWMA seeded to %g, want 100", st.SpeedEWMA[1])
	}

	// All members predict finish at 10+1=11s with a ±10% band ([10.9,11.1]).
	// An actual finish at 11.05s gives every member a 0.05s first-sample
	// error — and lands inside the band.
	calib.Finish(1, 11.05)
	st = calib.State()
	if st.Samples != 1 {
		t.Fatalf("samples = %d, want 1", st.Samples)
	}
	for _, name := range MemberNames {
		if math.Abs(st.Errors[name]-0.05) > 1e-9 {
			t.Fatalf("member %s error = %g, want 0.05", name, st.Errors[name])
		}
	}
	within, finishes := calib.Coverage()
	if finishes != 1 || within != 1 {
		t.Fatalf("coverage = %d/%d, want 1/1", within, finishes)
	}

	// A second query observed then forgotten (abort) must not add a residual.
	in2 := EstimateInput{Running: []QueryState{{ID: 2, Remaining: 50, Weight: 1}}, RateC: 100}
	calib.Observe(20, in2, est.Estimates(in2, calib.State()))
	calib.Forget(2)
	calib.Finish(2, 99) // no recorded prediction → no-op
	st = calib.State()
	if st.Samples != 1 {
		t.Fatalf("forgotten query added a residual: samples = %d", st.Samples)
	}
	if _, ok := st.SpeedEWMA[2]; ok {
		t.Fatal("Forget left the speed EWMA entry behind")
	}

	// A finish far outside the band increments finishes but not within.
	in3 := EstimateInput{Running: []QueryState{{ID: 3, Remaining: 100, Weight: 1}}, RateC: 100, Speeds: map[int]float64{3: 100}}
	calib.Observe(30, in3, est.Estimates(in3, calib.State()))
	calib.Finish(3, 300)
	within, finishes = calib.Coverage()
	if finishes != 2 || within != 1 {
		t.Fatalf("coverage after miss = %d/%d, want 1/2", within, finishes)
	}
}

// TestEnsembleStateIsolated: State() returns copies — mutating the calib
// afterwards must not reach through into a previously published state.
func TestEnsembleStateIsolated(t *testing.T) {
	calib := NewEnsembleCalib()
	in := EstimateInput{Running: []QueryState{{ID: 1, Remaining: 10, Weight: 1}}, RateC: 10, Speeds: map[int]float64{1: 5}}
	calib.Observe(0, in, Estimates{})
	st := calib.State()
	calib.Observe(1, EstimateInput{Running: in.Running, Speeds: map[int]float64{1: 50}, RateC: 10}, Estimates{})
	if st.SpeedEWMA[1] != 5 {
		t.Fatalf("published state mutated: EWMA = %g, want 5", st.SpeedEWMA[1])
	}
}
