package wm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mqpi/internal/core"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

// simulatedBenefit computes the actual shortening of targetID's remaining
// time when `victims` are blocked at time 0, via the stage model with the
// victims' weights zeroed.
func simulatedBenefit(states []core.QueryState, C float64, targetID int, victims map[int]bool) float64 {
	before := core.ComputeProfile(states, C).Finish[targetID]
	blocked := make([]core.QueryState, len(states))
	copy(blocked, states)
	for i := range blocked {
		if victims[blocked[i].ID] {
			blocked[i].Weight = 0
		}
	}
	after := core.ComputeProfile(blocked, C).Finish[targetID]
	return before - after
}

// TestSpeedUpBenefitFormulas: the closed-form benefits of §3.1 must match
// direct simulation, for both victim classes.
func TestSpeedUpBenefitFormulas(t *testing.T) {
	states := []core.QueryState{
		{ID: 1, Remaining: 100, Weight: 1},
		{ID: 2, Remaining: 250, Weight: 2}, // ratio 125
		{ID: 3, Remaining: 300, Weight: 1}, // target, ratio 300
		{ID: 4, Remaining: 700, Weight: 1},
		{ID: 5, Remaining: 2000, Weight: 2}, // ratio 1000
	}
	C := 10.0
	victims, err := SpeedUpSingle(states, C, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 4 {
		t.Fatalf("got %d victims", len(victims))
	}
	for _, v := range victims {
		sim := simulatedBenefit(states, C, 3, map[int]bool{v.ID: true})
		if !almostEq(v.Benefit, sim) {
			t.Errorf("victim %d: formula %g, simulation %g", v.ID, v.Benefit, sim)
		}
	}
	// Victims must come out in decreasing benefit order.
	for i := 1; i < len(victims); i++ {
		if victims[i].Benefit > victims[i-1].Benefit+1e-9 {
			t.Errorf("victims unsorted: %+v", victims)
		}
	}
}

// TestSpeedUpOptimalityQuick: for random instances, the chosen single victim
// is at least as good as every alternative (checked by simulation).
func TestSpeedUpOptimalityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		states := make([]core.QueryState, n)
		for i := range states {
			states[i] = core.QueryState{
				ID:        i + 1,
				Remaining: 10 + rng.Float64()*1000,
				Weight:    []float64{1, 2, 4}[rng.Intn(3)],
			}
		}
		C := 10.0
		target := 1 + rng.Intn(n)
		best, err := SpeedUpSingle(states, C, target, 1)
		if err != nil || len(best) != 1 {
			return false
		}
		bestSim := simulatedBenefit(states, C, target, map[int]bool{best[0].ID: true})
		for _, q := range states {
			if q.ID == target {
				continue
			}
			alt := simulatedBenefit(states, C, target, map[int]bool{q.ID: true})
			if alt > bestSim+1e-6 {
				t.Logf("seed %d: victim %d (%.4f) beaten by %d (%.4f)", seed, best[0].ID, bestSim, q.ID, alt)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSpeedUpAdditivity: the benefit of blocking h victims equals the sum of
// their individual benefits (the paper's observation justifying the greedy).
func TestSpeedUpAdditivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		states := make([]core.QueryState, n)
		for i := range states {
			states[i] = core.QueryState{
				ID:        i + 1,
				Remaining: 10 + rng.Float64()*1000,
				Weight:    1, // additivity in the paper's derivation assumes the standard schedule
			}
		}
		C := 10.0
		target := 1 + rng.Intn(n)
		h := 2
		victims, err := SpeedUpSingle(states, C, target, h)
		if err != nil || len(victims) != h {
			return false
		}
		sum := 0.0
		set := map[int]bool{}
		for _, v := range victims {
			sum += simulatedBenefit(states, C, target, map[int]bool{v.ID: true})
			set[v.ID] = true
		}
		joint := simulatedBenefit(states, C, target, set)
		return almostEq(sum, joint)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// speedUpSingleEqualPriority is the O(n) closed form of §3.1 for the case
// where every query has the same priority, the oracle SpeedUpSingle is held
// against there: any query with remaining
// cost at least the target's is optimal; otherwise the query with the
// largest remaining cost is. A single scan suffices — no sorting, no stage
// computation. Like SpeedUpSingle it reads every state through
// core.Sanitize, so a NaN or ±Inf weight is a weight of 0: no runnable
// target, and never a victim.
func speedUpSingleEqualPriority(states []core.QueryState, targetID int) (Victim, error) {
	var target core.QueryState // weight 0, not runnable, unless found
	for _, q := range states {
		if q.ID == targetID {
			target = core.Sanitize(q)
			break
		}
	}
	if target.Weight <= 0 {
		return Victim{}, fmt.Errorf("wm: target query %d is not a runnable query", targetID)
	}
	best, ok := Victim{}, false
	for _, q := range states {
		q = core.Sanitize(q)
		if q.ID == targetID || q.Weight <= 0 {
			continue
		}
		if q.Remaining >= target.Remaining {
			return Victim{ID: q.ID, Benefit: q.Remaining}, nil
		}
		if !ok || q.Remaining > best.Benefit {
			best, ok = Victim{ID: q.ID, Benefit: q.Remaining}, true
		}
	}
	if !ok {
		return Victim{}, fmt.Errorf("wm: no candidate victims")
	}
	return best, nil
}

// BenchmarkSpeedUpSingleEqualPriorityFastPath times the closed form at
// depth 1000, for comparison with the general algorithm's cost.
func BenchmarkSpeedUpSingleEqualPriorityFastPath(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	states := make([]core.QueryState, 1000)
	for i := range states {
		states[i] = core.QueryState{ID: i + 1, Remaining: rng.Float64() * 1e6, Weight: 1, Done: rng.Float64() * 1e6}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := speedUpSingleEqualPriority(states, 500); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSpeedUpEqualPriorityFastPath(t *testing.T) {
	states := []core.QueryState{
		{ID: 1, Remaining: 100, Weight: 1},
		{ID: 2, Remaining: 300, Weight: 1},
		{ID: 3, Remaining: 500, Weight: 1},
	}
	// Target not last: any query with c >= c_target works; ours must pick one.
	v, err := speedUpSingleEqualPriority(states, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 3 {
		t.Errorf("victim = %d, want 3", v.ID)
	}
	// Target is last: the optimal victim is the second largest.
	v, err = speedUpSingleEqualPriority(states, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 2 {
		t.Errorf("victim = %d, want 2 (Q_{n-1})", v.ID)
	}
	// The fast path agrees with the general algorithm on benefit.
	general, err := SpeedUpSingle(states, 10, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if general[0].ID != v.ID {
		t.Errorf("fast path %d vs general %d", v.ID, general[0].ID)
	}
}

// TestSpeedUpEqualPriorityNonFiniteWeights: the fast path reads weights
// through core.Sanitize, as SpeedUpSingle does. A NaN-weight target slips
// past a raw Weight <= 0 test, and a NaN- or ±Inf-weight candidate (the one
// with the most remaining work, so a raw scan would pick it) is not runnable
// and must never be the victim.
func TestSpeedUpEqualPriorityNonFiniteWeights(t *testing.T) {
	nan := []core.QueryState{{ID: 1, Remaining: 100, Weight: math.NaN()}, {ID: 2, Remaining: 200, Weight: 1}}
	if v, err := speedUpSingleEqualPriority(nan, 1); err == nil {
		t.Errorf("NaN-weight target accepted, victim %+v", v)
	}
	if _, err := SpeedUpSingle(nan, 10, 1, 1); err == nil {
		t.Error("NaN-weight target accepted by SpeedUpSingle")
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		states := []core.QueryState{
			{ID: 1, Remaining: 100, Weight: 1},
			{ID: 2, Remaining: 50, Weight: 1},
			{ID: 3, Remaining: 900, Weight: w},
		}
		v, err := speedUpSingleEqualPriority(states, 1)
		if err != nil {
			t.Fatalf("weight %g: %v", w, err)
		}
		if v.ID != 2 {
			t.Errorf("weight %g: victim %+v, want query 2 (query 3 is not runnable)", w, v)
		}
		if _, err := speedUpSingleEqualPriority([]core.QueryState{states[0], states[2]}, 1); err == nil {
			t.Errorf("weight %g: the only candidate is not runnable, yet a victim came back", w)
		}
	}
}

// TestFastPathMatchesGeneralQuick: for equal priorities, the O(n) fast path
// and the general algorithm pick victims of identical simulated benefit.
func TestFastPathMatchesGeneralQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		states := make([]core.QueryState, n)
		for i := range states {
			states[i] = core.QueryState{ID: i + 1, Remaining: 10 + rng.Float64()*1000, Weight: 1}
		}
		target := 1 + rng.Intn(n)
		fast, err1 := speedUpSingleEqualPriority(states, target)
		general, err2 := SpeedUpSingle(states, 10, target, 1)
		if err1 != nil || err2 != nil {
			return false
		}
		a := simulatedBenefit(states, 10, target, map[int]bool{fast.ID: true})
		b := simulatedBenefit(states, 10, target, map[int]bool{general[0].ID: true})
		return almostEq(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSpeedUpErrors(t *testing.T) {
	states := []core.QueryState{
		{ID: 1, Remaining: 100, Weight: 1},
		{ID: 2, Remaining: 200, Weight: 1},
	}
	if _, err := SpeedUpSingle(states, 0, 1, 1); err == nil {
		t.Error("C=0 should fail")
	}
	if _, err := SpeedUpSingle(states, 10, 1, 0); err == nil {
		t.Error("h=0 should fail")
	}
	if _, err := SpeedUpSingle(states, 10, 99, 1); err == nil {
		t.Error("unknown target should fail")
	}
	if _, err := SpeedUpSingle([]core.QueryState{{ID: 1, Remaining: 1, Weight: 1}}, 10, 1, 1); err == nil {
		t.Error("no candidates should fail")
	}
	blocked := []core.QueryState{{ID: 1, Remaining: 1, Weight: 0}, {ID: 2, Remaining: 1, Weight: 1}}
	if _, err := SpeedUpSingle(blocked, 10, 1, 1); err == nil {
		t.Error("blocked target should fail")
	}
	if _, err := speedUpSingleEqualPriority(states, 99); err == nil {
		t.Error("unknown target (fast path) should fail")
	}
	if _, err := speedUpSingleEqualPriority([]core.QueryState{{ID: 1, Remaining: 1, Weight: 1}}, 1); err == nil {
		t.Error("no candidates (fast path) should fail")
	}
}

// totalResponseTime sums the finish times of all queries except the victim.
func totalResponseTime(states []core.QueryState, C float64, victim int) float64 {
	mod := make([]core.QueryState, len(states))
	copy(mod, states)
	for i := range mod {
		if mod[i].ID == victim {
			mod[i].Weight = 0
		}
	}
	p := core.ComputeProfile(mod, C)
	sum := 0.0
	for _, q := range mod {
		if q.ID != victim {
			sum += p.Finish[q.ID]
		}
	}
	return sum
}

// TestSpeedUpOthersFormula: R_m must match the simulated improvement of
// total response time, and the chosen victim must be optimal.
func TestSpeedUpOthersFormula(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		states := make([]core.QueryState, n)
		for i := range states {
			states[i] = core.QueryState{
				ID:        i + 1,
				Remaining: 10 + rng.Float64()*1000,
				Weight:    []float64{1, 2}[rng.Intn(2)],
			}
		}
		C := 10.0
		v, err := SpeedUpOthers(states, C)
		if err != nil {
			return false
		}
		baseProfile := core.ComputeProfile(states, C)
		baseTotal := 0.0
		for _, q := range states {
			baseTotal += baseProfile.Finish[q.ID]
		}
		// Simulated improvement when blocking v (victim's own time excluded
		// from both sides, as in the paper: the other n−1 queries).
		simImpr := (baseTotal - baseProfile.Finish[v.ID]) - totalResponseTime(states, C, v.ID)
		if !almostEq(simImpr, v.Benefit) {
			t.Logf("seed %d: formula %g, sim %g", seed, v.Benefit, simImpr)
			return false
		}
		// Optimality over all alternatives.
		for _, q := range states {
			alt := (baseTotal - baseProfile.Finish[q.ID]) - totalResponseTime(states, C, q.ID)
			if alt > v.Benefit+1e-6 {
				t.Logf("seed %d: victim %d (%.4f) beaten by %d (%.4f)", seed, v.ID, v.Benefit, q.ID, alt)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSpeedUpOthersErrors(t *testing.T) {
	if _, err := SpeedUpOthers(nil, 10); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := SpeedUpOthers([]core.QueryState{{ID: 1, Remaining: 1, Weight: 1}}, 10); err == nil {
		t.Error("single query should fail")
	}
	if _, err := SpeedUpOthers([]core.QueryState{
		{ID: 1, Remaining: 1, Weight: 1}, {ID: 2, Remaining: 1, Weight: 1},
	}, 0); err == nil {
		t.Error("C=0 should fail")
	}
}

// TestPlannersSanitizeNonFiniteWeights: a +Inf weight sanitizes to 0, so that
// query is blocked — it holds no share of C, no other query's benefit may be
// NaN because of it, and blocking it again is no remedy either planner may
// offer.
func TestPlannersSanitizeNonFiniteWeights(t *testing.T) {
	states := []core.QueryState{
		{ID: 1, Remaining: 10, Weight: 1},
		{ID: 2, Remaining: 20, Weight: math.Inf(1)},
		{ID: 3, Remaining: 30, Weight: 1},
	}
	victims, err := SpeedUpSingle(states, 10, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 1 || victims[0].ID != 3 {
		t.Errorf("SpeedUpSingle victims %+v, want only q3", victims)
	}
	for _, v := range victims {
		if math.IsNaN(v.Benefit) || math.IsInf(v.Benefit, 0) {
			t.Errorf("SpeedUpSingle: q%d benefit %v, want finite", v.ID, v.Benefit)
		}
	}
	// Blocking q3 lets q1 run alone from t=0: 10 U at C=10 instead of half
	// of C, so it finishes 1 s sooner.
	if len(victims) == 1 && !almostEq(victims[0].Benefit, 1) {
		t.Errorf("SpeedUpSingle: q3 benefit %v, want 1", victims[0].Benefit)
	}

	v, err := SpeedUpOthers(states, 10)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == 2 || (v.ID != 1 && v.ID != 3) {
		t.Errorf("SpeedUpOthers victim q%d, want q1 or q3", v.ID)
	}
	if math.IsNaN(v.Benefit) || math.IsInf(v.Benefit, 0) {
		t.Errorf("SpeedUpOthers: q%d benefit %v, want finite", v.ID, v.Benefit)
	}
}
