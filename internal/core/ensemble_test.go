package core

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
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

// TestStageEstimatorBitIdentical: the "stage" mode of the estimate plane is
// ComputeEstimates verbatim — across random inputs (including queued work)
// its output must be bitwise equal to it, with degenerate bands. The sim's
// I6 holds the published bundle to the same.
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
// itself, and unknown modes — the retired member and blend modes among them —
// are rejected with a message listing the valid ones.
func TestNewEstimatorModes(t *testing.T) {
	def, err := NewEstimator("")
	if err != nil || def.Mode() != EstimatorStage {
		t.Fatalf(`NewEstimator("") = %v, %v; want stage`, def, err)
	}
	if got := EstimatorModes(); !reflect.DeepEqual(got, []string{EstimatorStage, EstimatorCalibrated}) {
		t.Fatalf("EstimatorModes() = %q", got)
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
	for _, bad := range []string{"oracle", "ensemble", "cost", "speed"} {
		_, err := NewEstimator(bad)
		if err == nil {
			t.Fatalf("unknown estimator %q accepted", bad)
		}
		for _, mode := range EstimatorModes() {
			if !strings.Contains(err.Error(), mode) {
				t.Fatalf("error %q does not list valid mode %q", err, mode)
			}
		}
	}
}

// sameBits is bitwise float equality (NaN equals the same NaN).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestEnsembleBandsContainPoint is the calibrated mode's property test. Over
// random inputs — admission queues, arrival models, blocked runners and
// non-finite weights — and random calibration states, the calibrated bundle's
// multi-query point, single-query ETA and quiescent ETA are bitwise those of
// ComputeEstimates; every finite point p has the band
// [max(0, p − Err − 0.1·p), p + Err + 0.1·p], so 0 ≤ ETALow ≤ p ≤ ETAHigh;
// and a non-finite point has a band equal to the point.
func TestEnsembleBandsContainPoint(t *testing.T) {
	est, err := NewEstimator(EstimatorCalibrated)
	if err != nil {
		t.Fatal(err)
	}
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}
	rng := rand.New(rand.NewSource(17))
	finite, infinite, poisoned := 0, 0, 0
	for trial := 0; trial < 600; trial++ {
		in := randomQueueInput(rng, 40, trial%2 == 1)
		in.Speeds = map[int]float64{}
		for _, qs := range [][]QueryState{in.Running, in.Queued} {
			for i := range qs {
				if rng.Intn(10) == 0 {
					qs[i].Weight = poison[rng.Intn(len(poison))]
					poisoned++
				}
				if rng.Intn(2) == 0 {
					in.Speeds[qs[i].ID] = 100 * rng.Float64()
				}
			}
		}
		var st EnsembleState
		if rng.Intn(4) > 0 {
			st = EnsembleState{Err: 50 * rng.Float64() * rng.Float64(), Samples: 1 + rng.Intn(100)}
		}

		got, want := est.Estimates(in, st), ComputeEstimates(in)
		if !sameBits(got.Quiescent, want.Quiescent) || len(got.PerQuery) != len(want.PerQuery) {
			t.Fatalf("trial %d: quiescent %v with %d estimates, want %v with %d",
				trial, got.Quiescent, len(got.PerQuery), want.Quiescent, len(want.PerQuery))
		}
		for i, e := range got.PerQuery {
			w := want.PerQuery[i]
			if !sameBits(e.MultiQuery, w.MultiQuery) || !sameBits(e.SingleQuery, w.SingleQuery) {
				t.Fatalf("trial %d position %d: point %v / single %v, stage says %v / %v",
					trial, i, e.MultiQuery, e.SingleQuery, w.MultiQuery, w.SingleQuery)
			}
			p := e.MultiQuery
			if math.IsInf(p, 0) || math.IsNaN(p) {
				infinite++
				if !sameBits(e.ETALow, p) || !sameBits(e.ETAHigh, p) {
					t.Fatalf("trial %d position %d: non-finite point %v with band [%v, %v]", trial, i, p, e.ETALow, e.ETAHigh)
				}
				continue
			}
			finite++
			half := st.Err + bandRelFloor*p
			if !(0 <= e.ETALow && e.ETALow <= p && p <= e.ETAHigh) ||
				!sameBits(e.ETALow, math.Max(0, p-half)) || !sameBits(e.ETAHigh, p+half) {
				t.Fatalf("trial %d position %d: band [%v, %v] around %v with Err %v", trial, i, e.ETALow, e.ETAHigh, p, st.Err)
			}
		}
	}
	if finite < 1000 || infinite < 100 || poisoned < 100 {
		t.Fatalf("one-sided mix: %d finite points, %d non-finite, %d poisoned weights", finite, infinite, poisoned)
	}
}

// TestEnsembleBlockedQueryInfinite: a blocked query (weight 0) reports +Inf
// with a +Inf band in calibrated mode, whatever its stale observed speed and
// the rolling error — no finite band for work that cannot progress.
func TestEnsembleBlockedQueryInfinite(t *testing.T) {
	in := EstimateInput{
		Running: []QueryState{
			{ID: 1, Remaining: 100, Weight: 1},
			{ID: 2, Remaining: 100, Weight: 0}, // blocked, but has a stale speed
		},
		RateC:  100,
		Speeds: map[int]float64{2: 50},
	}
	est, _ := NewEstimator(EstimatorCalibrated)
	e := byID(in, est.Estimates(in, EnsembleState{Err: 3, Samples: 4}))[2]
	if !math.IsInf(e.MultiQuery, 1) || !math.IsInf(e.ETALow, 1) || !math.IsInf(e.ETAHigh, 1) {
		t.Fatalf("blocked query estimate = %+v, want +Inf point and band", e)
	}
}

// TestEnsembleCalibLifecycle: Observe records the stage point's predicted
// finish and the band, Finish folds the residual into the rolling error
// (seeded by the first, then an errAlpha EWMA) and scores band coverage, and
// Forget drops entries without a residual.
func TestEnsembleCalibLifecycle(t *testing.T) {
	est, _ := NewEstimator(EstimatorCalibrated)
	calib := NewEnsembleCalib()
	in := EstimateInput{
		Running: []QueryState{{ID: 1, Remaining: 100, Weight: 1}},
		RateC:   100,
		Speeds:  map[int]float64{1: 100},
	}
	calib.Observe(10, in, est.Estimates(in, calib.State()))
	if st := calib.State(); st != (EnsembleState{}) {
		t.Fatalf("state before any finish = %+v", st)
	}

	// The point predicts a finish at 10+1=11s with a ±10% band ([10.9,11.1]).
	// An actual finish at 11.05s seeds the error at 0.05s — and lands inside
	// the band.
	calib.Finish(1, 11.05)
	if st := calib.State(); st.Samples != 1 || math.Abs(st.Err-0.05) > 1e-9 {
		t.Fatalf("state after one finish = %+v, want Err 0.05 from 1 sample", st)
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
	if st := calib.State(); st.Samples != 1 {
		t.Fatalf("forgotten query added a residual: samples = %d", st.Samples)
	}

	// A finish far outside the band increments finishes but not within, and
	// its 269s residual enters the EWMA at weight errAlpha.
	in3 := EstimateInput{Running: []QueryState{{ID: 3, Remaining: 100, Weight: 1}}, RateC: 100, Speeds: map[int]float64{3: 100}}
	calib.Observe(30, in3, est.Estimates(in3, calib.State()))
	calib.Finish(3, 300)
	within, finishes = calib.Coverage()
	if finishes != 2 || within != 1 {
		t.Fatalf("coverage after miss = %d/%d, want 1/2", within, finishes)
	}
	if st, want := calib.State(), errAlpha*269+(1-errAlpha)*0.05; st.Samples != 2 || math.Abs(st.Err-want) > 1e-9 {
		t.Fatalf("state after the miss = %+v, want Err %g from 2 samples", st, want)
	}

	// A later pass where the query cannot progress drops its prediction: its
	// finish scores nothing.
	blocked := EstimateInput{Running: []QueryState{{ID: 4, Remaining: 100, Weight: 1}}, RateC: 100}
	calib.Observe(40, blocked, est.Estimates(blocked, calib.State()))
	blocked.Running[0].Weight = 0
	calib.Observe(41, blocked, est.Estimates(blocked, calib.State()))
	calib.Finish(4, 50)
	if st := calib.State(); st.Samples != 2 {
		t.Fatalf("a non-finite last point added a residual: samples = %d", st.Samples)
	}
	if _, finishes := calib.Coverage(); finishes != 2 {
		t.Fatalf("a non-finite last band was scored: finishes = %d", finishes)
	}
}

// TestEnsembleStateIsolated: State() is a value — later finishes must not
// reach into a previously published state.
func TestEnsembleStateIsolated(t *testing.T) {
	est, _ := NewEstimator(EstimatorCalibrated)
	calib := NewEnsembleCalib()
	in := EstimateInput{Running: []QueryState{{ID: 1, Remaining: 10, Weight: 1}}, RateC: 10}
	calib.Observe(0, in, est.Estimates(in, calib.State()))
	st := calib.State()
	calib.Finish(1, 5)
	if st != (EnsembleState{}) || calib.State().Samples != 1 {
		t.Fatalf("published state %+v moved with the calib (now %+v)", st, calib.State())
	}
}
