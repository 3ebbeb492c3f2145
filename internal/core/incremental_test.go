package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bitEqualProfiles fails the test unless got and want are bit-identical:
// same finish order, same stage-duration and stage-weight bits, same
// finish-time bits.
func bitEqualProfiles(t *testing.T, got, want Profile, label string) {
	t.Helper()
	if len(got.Order) != len(want.Order) {
		t.Fatalf("%s: order length %d, want %d (got %v want %v)",
			label, len(got.Order), len(want.Order), got.Order, want.Order)
	}
	for i := range want.Order {
		if got.Order[i] != want.Order[i] {
			t.Fatalf("%s: order[%d] = q%d, want q%d (got %v want %v)",
				label, i, got.Order[i], want.Order[i], got.Order, want.Order)
		}
		if math.Float64bits(got.StageDur[i]) != math.Float64bits(want.StageDur[i]) {
			t.Fatalf("%s: stage %d duration %v (bits %x), want %v (bits %x)",
				label, i, got.StageDur[i], math.Float64bits(got.StageDur[i]),
				want.StageDur[i], math.Float64bits(want.StageDur[i]))
		}
		if math.Float64bits(got.StageW[i]) != math.Float64bits(want.StageW[i]) {
			t.Fatalf("%s: stage %d weight %v, want %v (bitwise)", label, i, got.StageW[i], want.StageW[i])
		}
	}
	if len(got.Finish) != len(want.Finish) {
		t.Fatalf("%s: finish map size %d, want %d", label, len(got.Finish), len(want.Finish))
	}
	for id, w := range want.Finish {
		g, ok := got.Finish[id]
		if !ok {
			t.Fatalf("%s: finish map missing q%d", label, id)
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: q%d finish %v (bits %x), want %v (bits %x)",
				label, id, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	if len(got.Shared) != len(want.Shared) {
		t.Fatalf("%s: shared stages %v, want %v", label, got.Shared, want.Shared)
	}
	for i := range want.Shared {
		if got.Shared[i].Fold != want.Shared[i].Fold {
			t.Fatalf("%s: shared[%d] fold %d, want %d", label, i, got.Shared[i].Fold, want.Shared[i].Fold)
		}
		if len(got.Shared[i].IDs) != len(want.Shared[i].IDs) {
			t.Fatalf("%s: shared[%d] members %v, want %v", label, i, got.Shared[i].IDs, want.Shared[i].IDs)
		}
		for j := range want.Shared[i].IDs {
			if got.Shared[i].IDs[j] != want.Shared[i].IDs[j] {
				t.Fatalf("%s: shared[%d] members %v, want %v", label, i, got.Shared[i].IDs, want.Shared[i].IDs)
			}
		}
	}
}

func statesOf(m map[int]QueryState) []QueryState {
	out := make([]QueryState, 0, len(m))
	for _, q := range m {
		out = append(out, q)
	}
	// closedFormProfile's result is input-order independent (the (ratio, ID)
	// comparator is a total order over unique IDs); shuffle-resistance is part
	// of what the differential test exercises, so any order works.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// randomState draws a query state, including pathological values, so the
// incremental structure proves it sanitizes exactly like closedFormProfile.
func randomState(rng *rand.Rand, id int) QueryState {
	q := QueryState{ID: id}
	switch rng.Intn(12) {
	case 0:
		q.Remaining = 0
	case 1:
		q.Remaining = math.Inf(1)
	case 2:
		q.Remaining = math.NaN()
	case 3:
		q.Remaining = -rng.Float64() * 100
	default:
		q.Remaining = rng.Float64() * 1000
	}
	switch rng.Intn(12) {
	case 0:
		q.Weight = 0
	case 1:
		q.Weight = -1
	case 2:
		q.Weight = math.NaN()
	case 3:
		q.Weight = math.Inf(1)
	case 4:
		q.Weight = 1e300 // clamped to 1e12
	default:
		q.Weight = []float64{1, 1, 1, 2, 4, 0.5}[rng.Intn(6)]
	}
	if rng.Intn(3) == 0 {
		q.Fold = 1 + rng.Intn(3) // arrives already folded
	}
	return q
}

// TestIncrementalProfileEventSequences is the lockstep differential test of
// the tentpole: random event sequences — arrival, finish, priority change,
// block, unblock, cost refinement, plus poisoned inputs — applied to
// IncrementalProfile one event at a time, with the materialized profile
// compared bit-for-bit against the closedFormProfile oracle after every event.
func TestIncrementalProfileEventSequences(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inc := NewIncrementalProfile()
		model := map[int]QueryState{}
		nextID := 1
		C := []float64{10, 100, 1000, 0, -5, math.Inf(1)}[rng.Intn(6)]
		ids := func() []int {
			out := make([]int, 0, len(model))
			for id := range model {
				out = append(out, id)
			}
			sort.Ints(out)
			return out
		}
		pick := func() (int, bool) {
			all := ids()
			if len(all) == 0 {
				return 0, false
			}
			return all[rng.Intn(len(all))], true
		}
		for step := 0; step < 150; step++ {
			switch rng.Intn(12) {
			case 0, 1, 2: // arrival
				q := randomState(rng, nextID)
				nextID++
				model[q.ID] = q
				inc.Upsert(q)
			case 3: // finish / abort
				if id, ok := pick(); ok {
					delete(model, id)
					if !inc.Remove(id) {
						t.Fatalf("seed %d step %d: Remove(%d) found nothing", seed, step, id)
					}
				}
			case 4: // priority change
				if id, ok := pick(); ok {
					q := model[id]
					q.Weight = []float64{1, 2, 4, 8, 0.25}[rng.Intn(5)]
					model[id] = q
					inc.Upsert(q)
				}
			case 5: // block
				if id, ok := pick(); ok {
					q := model[id]
					q.Weight = 0
					model[id] = q
					inc.Upsert(q)
				}
			case 6: // unblock
				if id, ok := pick(); ok {
					q := model[id]
					q.Weight = 1 + rng.Float64()*3
					model[id] = q
					inc.Upsert(q)
				}
			case 7, 8: // cost refinement
				if id, ok := pick(); ok {
					q := model[id]
					q.Remaining = math.Max(0, q.Remaining*(0.5+rng.Float64()))
					model[id] = q
					inc.Upsert(q)
				}
			case 9: // poisoned re-key
				if id, ok := pick(); ok {
					q := randomState(rng, id)
					model[id] = q
					inc.Upsert(q)
				}
			case 10: // fold attach — the shared-scan tag flips with no key change
				if id, ok := pick(); ok {
					q := model[id]
					q.Fold = 1 + rng.Intn(3)
					model[id] = q
					inc.Upsert(q)
				}
			case 11: // fold detach
				if id, ok := pick(); ok {
					q := model[id]
					q.Fold = 0
					model[id] = q
					inc.Upsert(q)
				}
			}
			states := statesOf(model)
			want := closedFormProfile(states, C)
			got := inc.Profile(C)
			bitEqualProfiles(t, got, want, "event sequence")
			if inc.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len=%d, model has %d", seed, step, inc.Len(), len(model))
			}
			// FinishOf's closed form agrees with the staged sum to rounding.
			// The tolerance is wider than almostEq: the staged sum clamps
			// jitter-negative stage durations to 0 while the closed form
			// reassociates, and this suite's poisoned inputs (1e12 weights,
			// clamped-Inf costs) amplify the difference.
			if id, ok := pick(); ok {
				r, tracked := inc.FinishOf(id, C)
				if !tracked {
					t.Fatalf("seed %d step %d: FinishOf(%d) untracked", seed, step, id)
				}
				w := want.Finish[id]
				if !(math.IsInf(r, 1) && math.IsInf(w, 1)) && math.Abs(r-w) > 1e-3*(1+math.Abs(r)+math.Abs(w)) {
					t.Fatalf("seed %d step %d: FinishOf(%d) = %v, staged sum %v", seed, step, id, r, w)
				}
			}
		}
	}
}

// TestIncrementalProfileSync reconciles whole random state slices — the
// per-epoch refill path the service uses — against the oracle.
func TestIncrementalProfileSync(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		inc := NewIncrementalProfile()
		var prev []QueryState
		for round := 0; round < 60; round++ {
			// Mutate the previous slice: drop some, tweak some, add some —
			// the shape of consecutive scheduler epochs.
			next := make([]QueryState, 0, len(prev)+4)
			for _, q := range prev {
				switch rng.Intn(6) {
				case 0: // finished
				case 1:
					q.Remaining = math.Max(0, q.Remaining-rng.Float64()*50)
					next = append(next, q)
				case 2:
					q.Weight = []float64{0, 1, 2, 4}[rng.Intn(4)]
					next = append(next, q)
				default:
					next = append(next, q)
				}
			}
			for k := rng.Intn(4); k > 0; k-- {
				next = append(next, randomState(rng, 1000*int(seed)+round*10+k))
			}
			prev = next
			inc.Sync(next)
			C := []float64{100, 7, 0}[rng.Intn(3)]
			bitEqualProfiles(t, inc.Profile(C), closedFormProfile(next, C), "sync")
		}
	}
}

// TestIncrementalSyncNoChange pins the cheap path: re-syncing an identical
// slice reports zero changes and leaves the profile identical.
func TestIncrementalSyncNoChange(t *testing.T) {
	states := []QueryState{
		{ID: 1, Remaining: 100, Weight: 1},
		{ID: 2, Remaining: 50, Weight: 2},
		{ID: 3, Remaining: 80, Weight: 0}, // blocked
	}
	inc := NewIncrementalProfile()
	if changed := inc.Sync(states); changed != 3 {
		t.Fatalf("initial sync changed %d, want 3", changed)
	}
	if changed := inc.Sync(states); changed != 0 {
		t.Fatalf("no-op sync changed %d, want 0", changed)
	}
	bitEqualProfiles(t, inc.Profile(10), closedFormProfile(states, 10), "no-change")
	if inc.RunnableLen() != 2 {
		t.Fatalf("RunnableLen = %d, want 2", inc.RunnableLen())
	}
}

// TestIncrementalProfileMatchesSimulate ties the maintained structure to the
// event-stepped generalization: with no queue and no arrivals the two models
// agree (to simulation rounding), so estimates may switch between them freely.
func TestIncrementalProfileMatchesSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inc := NewIncrementalProfile()
	states := make([]QueryState, 0, 12)
	for i := 1; i <= 12; i++ {
		states = append(states, QueryState{ID: i, Remaining: rng.Float64() * 500, Weight: []float64{1, 2, 4}[rng.Intn(3)]})
	}
	inc.Sync(states)
	got := inc.Profile(100)
	sim := SimulateProfile(states, 100, SimOptions{})
	for id, w := range sim.Finish {
		if !almostEq(got.Finish[id], w) {
			t.Errorf("q%d: incremental %v, simulated %v", id, got.Finish[id], w)
		}
	}
}

// TestIncrementalProfileEdges covers the degenerate corners the oracle
// defines behaviour for.
func TestIncrementalProfileEdges(t *testing.T) {
	inc := NewIncrementalProfile()
	// Empty.
	bitEqualProfiles(t, inc.Profile(10), closedFormProfile(nil, 10), "empty")
	if _, ok := inc.FinishOf(1, 10); ok {
		t.Error("FinishOf on empty structure reported tracked")
	}
	// All blocked.
	blocked := []QueryState{{ID: 1, Remaining: 10, Weight: 0}, {ID: 2, Remaining: 5, Weight: -3}}
	inc.Sync(blocked)
	bitEqualProfiles(t, inc.Profile(10), closedFormProfile(blocked, 10), "all blocked")
	if r, ok := inc.FinishOf(1, 10); !ok || !math.IsInf(r, 1) {
		t.Errorf("blocked FinishOf = %v, %v", r, ok)
	}
	// C <= 0 and C = +Inf.
	mixed := []QueryState{{ID: 1, Remaining: 10, Weight: 1}, {ID: 2, Remaining: 5, Weight: 0}}
	inc.Sync(mixed)
	for _, C := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		bitEqualProfiles(t, inc.Profile(C), closedFormProfile(mixed, C), "degenerate C")
	}
	// Removing everything returns to empty.
	inc.Remove(1)
	inc.Remove(2)
	if inc.Len() != 0 || inc.RunnableLen() != 0 {
		t.Fatalf("Len=%d RunnableLen=%d after removing all", inc.Len(), inc.RunnableLen())
	}
	bitEqualProfiles(t, inc.Profile(10), closedFormProfile(nil, 10), "emptied")
	// Upsert is idempotent and the zero value is usable.
	var zero IncrementalProfile
	q := QueryState{ID: 9, Remaining: 42, Weight: 2}
	if !zero.Upsert(q) {
		t.Error("first Upsert reported no change")
	}
	if zero.Upsert(q) {
		t.Error("identical Upsert reported a change")
	}
	bitEqualProfiles(t, zero.Profile(10), closedFormProfile([]QueryState{q}, 10), "zero value")
}

// TestIncrementalEstimatorMatchesComputeEstimates pins the estimator wrapper:
// bit-identical bundles on the fast path, verbatim fallback with a queue or
// an arrival model, interleaved so the maintained structure survives being
// bypassed.
func TestIncrementalEstimatorMatchesComputeEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var est stageEstimator
	running := []QueryState{}
	for i := 1; i <= 8; i++ {
		running = append(running, QueryState{ID: i, Remaining: rng.Float64() * 400, Weight: []float64{1, 2, 4, 0}[rng.Intn(4)]})
	}
	speeds := map[int]float64{1: 10, 2: 25, 3: 0}
	queued := []QueryState{{ID: 100, Remaining: 50, Weight: 1}}
	am := &ArrivalModel{Lambda: 0.2, AvgCost: 80, AvgWeight: 1}
	inputs := []EstimateInput{
		{Running: running, RateC: 100, Speeds: speeds},
		{Running: running, Queued: queued, MPL: 4, RateC: 100, Speeds: speeds},
		{Running: running[:5], RateC: 100, Speeds: speeds},
		{Running: running, RateC: 100, Speeds: speeds, Arrivals: am},
		{Running: running[2:], RateC: 0, Speeds: speeds},
		{Running: running, RateC: 100, Speeds: speeds},
	}
	for step, in := range inputs {
		got := est.Estimates(in, EnsembleState{})
		want := ComputeEstimates(in)
		if math.Float64bits(got.Quiescent) != math.Float64bits(want.Quiescent) {
			t.Fatalf("step %d: quiescent %v, want %v", step, got.Quiescent, want.Quiescent)
		}
		if len(got.PerQuery) != len(want.PerQuery) {
			t.Fatalf("step %d: %d estimates, want %d", step, len(got.PerQuery), len(want.PerQuery))
		}
		for i, w := range want.PerQuery {
			g, id := got.PerQuery[i], in.Query(i).ID
			if math.Float64bits(g.MultiQuery) != math.Float64bits(w.MultiQuery) ||
				math.Float64bits(g.SingleQuery) != math.Float64bits(w.SingleQuery) {
				t.Fatalf("step %d q%d: got %+v, want %+v", step, id, g, w)
			}
		}
	}
}
