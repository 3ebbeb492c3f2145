package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// closedFormProfile is the paper's §2.2 formula as written, the oracle
// ComputeProfile (the finish-tag pass) and the incremental treap are held
// against: sort the sanitized runnable queries by (c_i/w_i, ID), then
//
//	t_k = (c_k/w_k − c_{k−1}/w_{k−1}) × W_k / C,  W_k = Σ_{j≥k} w_j,
//
// with W_k summed from the last stage back and r_k = Σ_{j≤k} t_j.
func closedFormProfile(states []QueryState, C float64) Profile {
	prof := Profile{Finish: make(map[int]float64, len(states))}
	var active []QueryState
	for _, q := range states {
		q = Sanitize(q)
		if q.Weight <= 0 {
			prof.Finish[q.ID] = math.Inf(1)
			continue
		}
		active = append(active, q)
	}
	C = sanitizeRate(C)
	if C <= 0 {
		for _, q := range active {
			prof.Finish[q.ID] = math.Inf(1)
		}
		return prof
	}
	sort.SliceStable(active, func(i, j int) bool {
		ri := active[i].Remaining / active[i].Weight
		rj := active[j].Remaining / active[j].Weight
		if ri != rj {
			return ri < rj
		}
		return active[i].ID < active[j].ID
	})
	suffixW := make([]float64, len(active)+1)
	for i := len(active) - 1; i >= 0; i-- {
		suffixW[i] = suffixW[i+1] + active[i].Weight
	}
	prevRatio := 0.0
	elapsed := 0.0
	for k, q := range active {
		ratio := q.Remaining / q.Weight
		t := (ratio - prevRatio) * suffixW[k] / C
		if math.IsNaN(t) || t < 0 {
			t = 0 // floating-point jitter, or Inf-Inf from degenerate inputs
		}
		elapsed += t
		prof.StageDur = append(prof.StageDur, t)
		prof.StageW = append(prof.StageW, suffixW[k])
		prof.Order = append(prof.Order, q.ID)
		prof.Finish[q.ID] = elapsed
		prevRatio = ratio
		if q.Fold != 0 {
			prof.Shared = appendFoldStage(prof.Shared, q.Fold, q.ID)
		}
	}
	sortFoldStages(prof.Shared)
	return prof
}

// TestComputeProfileMatchesClosedForm holds the pass-built profile against
// the formula on random mixes with exact c/w ties, blocked, zero-cost and
// fold-tagged queries, extreme c/w (tiny costs, a weight of 1e-300 that
// sends c/w to +Inf, the +Inf cost Sanitize clamps) and pathological rates C:
// Order and Shared are identical; StageDur, StageW and Finish agree within
// 1e-9·max(1, |closed form|), +Inf for +Inf.
func TestComputeProfileMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	rates := []float64{0, -1, math.NaN(), math.Inf(1), 1e-300}
	var ties, blocked, extreme, folded, stalled int
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(16)
		states := make([]QueryState, n)
		for i := range states {
			q := QueryState{ID: i + 1, Remaining: 1000 * rng.Float64(), Weight: []float64{1, 2, 4, 0.5}[rng.Intn(4)]}
			if trial%2 == 1 {
				q.Weight = 0.1 + 9.9*rng.Float64()
			}
			switch rng.Intn(16) {
			case 0:
				q.Remaining = 0
			case 1:
				q.Remaining = []float64{1e-300, 1e250, math.Inf(1), math.NaN(), -5}[rng.Intn(5)]
				extreme++
			case 2:
				q.Weight = 1e-300
				extreme++
			case 3:
				q.Weight = []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(5)]
				blocked++
			case 4:
				if i > 0 { // an exact tie with the previous query's c/w
					prev := states[i-1]
					q.Remaining, q.Weight = 2*prev.Remaining, 2*prev.Weight
					ties++
				}
			}
			if rng.Intn(4) == 0 {
				q.Fold = 1 + rng.Intn(3)
				folded++
			}
			states[i] = q
		}
		rng.Shuffle(n, func(i, j int) { states[i].ID, states[j].ID = states[j].ID, states[i].ID })
		C := 1 + 999*rng.Float64()
		if trial%10 == 0 {
			C = rates[rng.Intn(len(rates))]
			stalled++
		}
		got, want := ComputeProfile(states, C), closedFormProfile(states, C)
		label := fmt.Sprintf("trial %d (n=%d C=%g)", trial, n, C)
		if len(got.Order) != len(want.Order) || len(got.StageDur) != len(want.Order) || len(got.StageW) != len(want.Order) {
			t.Fatalf("%s: %d/%d/%d stages, closed form %d", label, len(got.Order), len(got.StageDur), len(got.StageW), len(want.Order))
		}
		for k, id := range want.Order {
			if got.Order[k] != id {
				t.Fatalf("%s: order %v, closed form %v", label, got.Order, want.Order)
			}
			if !sameFinish(got.StageDur[k], want.StageDur[k]) || !sameFinish(got.StageW[k], want.StageW[k]) {
				t.Fatalf("%s: stage %d (t, W) = (%v, %v), closed form (%v, %v)",
					label, k, got.StageDur[k], got.StageW[k], want.StageDur[k], want.StageW[k])
			}
		}
		if len(got.Finish) != len(want.Finish) {
			t.Fatalf("%s: %d finishes, closed form %d", label, len(got.Finish), len(want.Finish))
		}
		for id, w := range want.Finish {
			if g, ok := got.Finish[id]; !ok || !sameFinish(g, w) {
				t.Fatalf("%s: q%d finish %v, closed form %v", label, id, g, w)
			}
		}
		if fmt.Sprint(got.Shared) != fmt.Sprint(want.Shared) {
			t.Fatalf("%s: shared %v, closed form %v", label, got.Shared, want.Shared)
		}
	}
	if ties < 100 || blocked < 100 || extreme < 100 || folded < 100 || stalled < 100 {
		t.Fatalf("corners under-drawn: %d ties, %d blocked, %d extreme, %d folded, %d bad rates", ties, blocked, extreme, folded, stalled)
	}
}

func almostEq(a, b float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

// TestProfileFigure1 reproduces the paper's Figure 1 setting: n equal-
// priority queries finish in ascending remaining-cost order, one per stage.
func TestProfileFigure1(t *testing.T) {
	states := []QueryState{
		{ID: 1, Remaining: 100, Weight: 1},
		{ID: 2, Remaining: 200, Weight: 1},
		{ID: 3, Remaining: 300, Weight: 1},
		{ID: 4, Remaining: 400, Weight: 1},
	}
	C := 100.0
	p := ComputeProfile(states, C)
	if len(p.Order) != 4 {
		t.Fatalf("order: %v", p.Order)
	}
	for i, id := range []int{1, 2, 3, 4} {
		if p.Order[i] != id {
			t.Fatalf("finish order: %v", p.Order)
		}
	}
	// Stage 1: Q1 runs at C/4=25: t1 = 100/25 = 4.
	// Stage 2: Q2 has 200-100=100 left at C/3: t2 = 3.
	// Stage 3: Q3 has 300-200=100 left at C/2: t3 = 2.
	// Stage 4: Q4 has 400-300=100 left at C:   t4 = 1.
	wantDur := []float64{4, 3, 2, 1}
	for i, w := range wantDur {
		if !almostEq(p.StageDur[i], w) {
			t.Errorf("t%d = %g, want %g", i+1, p.StageDur[i], w)
		}
	}
	wantFinish := map[int]float64{1: 4, 2: 7, 3: 9, 4: 10}
	for id, w := range wantFinish {
		if !almostEq(p.Finish[id], w) {
			t.Errorf("r%d = %g, want %g", id, p.Finish[id], w)
		}
	}
	// Work conservation: quiescent time = total work / C.
	if !almostEq(p.QuiescentTime(), 10) {
		t.Errorf("quiescent = %g", p.QuiescentTime())
	}
}

// TestProfileWeights checks Assumption 3: speed proportional to weight.
func TestProfileWeights(t *testing.T) {
	states := []QueryState{
		{ID: 1, Remaining: 100, Weight: 3}, // ratio 33.3
		{ID: 2, Remaining: 100, Weight: 1}, // ratio 100
	}
	C := 4.0
	p := ComputeProfile(states, C)
	// Q1 runs at 3 U/s: finishes at 33.33s. Then Q2 (66.67 left) at 4 U/s:
	// finishes at 33.33 + 16.67 = 50.
	if !almostEq(p.Finish[1], 100.0/3) {
		t.Errorf("r1 = %g", p.Finish[1])
	}
	if !almostEq(p.Finish[2], 50) {
		t.Errorf("r2 = %g", p.Finish[2])
	}
}

func TestProfileEdgeCases(t *testing.T) {
	// Zero C: everything unfinishable.
	p := ComputeProfile([]QueryState{{ID: 1, Remaining: 10, Weight: 1}}, 0)
	if !math.IsInf(p.Finish[1], 1) {
		t.Errorf("C=0 finish = %g", p.Finish[1])
	}
	// Blocked query (weight 0) never finishes; others unaffected by it.
	p = ComputeProfile([]QueryState{
		{ID: 1, Remaining: 10, Weight: 0},
		{ID: 2, Remaining: 10, Weight: 1},
	}, 10)
	if !math.IsInf(p.Finish[1], 1) {
		t.Errorf("blocked query finish = %g", p.Finish[1])
	}
	if !almostEq(p.Finish[2], 1) {
		t.Errorf("runnable query finish = %g", p.Finish[2])
	}
	// Zero-remaining query finishes immediately.
	p = ComputeProfile([]QueryState{
		{ID: 1, Remaining: 0, Weight: 1},
		{ID: 2, Remaining: 10, Weight: 1},
	}, 10)
	if !almostEq(p.Finish[1], 0) {
		t.Errorf("empty query finish = %g", p.Finish[1])
	}
	if !almostEq(p.Finish[2], 1) {
		t.Errorf("r2 = %g (empty peer should cost no time)", p.Finish[2])
	}
	// Negative remaining is clamped.
	p = ComputeProfile([]QueryState{{ID: 1, Remaining: -5, Weight: 1}}, 10)
	if !almostEq(p.Finish[1], 0) {
		t.Errorf("negative remaining: %g", p.Finish[1])
	}
	// Empty input.
	p = ComputeProfile(nil, 10)
	if len(p.Order) != 0 || p.QuiescentTime() != 0 {
		t.Errorf("empty profile: %+v", p)
	}
}

// TestSimulationMatchesClosedForm is the central cross-check: the event
// simulation with no queue and no arrivals must agree with the closed-form
// stage algorithm on random inputs.
func TestSimulationMatchesClosedForm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		states := make([]QueryState, n)
		for i := range states {
			states[i] = QueryState{
				ID:        i + 1,
				Remaining: rng.Float64() * 1000,
				Weight:    0.5 + 2*rng.Float64(),
			}
		}
		C := 10 + 100*rng.Float64()
		closed := closedFormProfile(states, C)
		sim := SimulateProfile(states, C, SimOptions{})
		for id, want := range closed.Finish {
			if !almostEq(sim.Finish[id], want) {
				t.Logf("seed %d id %d: sim %g, closed %g", seed, id, sim.Finish[id], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSimulateWithQueue reproduces the NAQ setting analytically: MPL 2,
// three queries with costs 50k, 10k, 20k (NAQ's N-proportional costs).
func TestSimulateWithQueue(t *testing.T) {
	C := 70.0
	running := []QueryState{
		{ID: 1, Remaining: 5000, Weight: 1},
		{ID: 2, Remaining: 1000, Weight: 1},
	}
	queued := []QueryState{{ID: 3, Remaining: 2000, Weight: 1}}
	p := SimulateProfile(running, C, SimOptions{MPL: 2, Queued: queued})
	// Q2 finishes at 2×1000/70 = 28.57. Q3 admitted, finishes 28.57 + 2×2000/70
	// = 85.71. Q1: work conservation → 8000/70 = 114.29.
	if !almostEq(p.Finish[2], 2000.0/70) {
		t.Errorf("r2 = %g", p.Finish[2])
	}
	if !almostEq(p.Finish[3], 2000.0/70+4000.0/70) {
		t.Errorf("r3 = %g", p.Finish[3])
	}
	if !almostEq(p.Finish[1], 8000.0/70) {
		t.Errorf("r1 = %g", p.Finish[1])
	}
}

// TestQueueAwareBeatsQueueBlind: when the queue is non-empty, the queue-aware
// profile must predict a later finish for the long-running query than the
// queue-blind profile (which misses the extra load) — the Figure 5 effect.
func TestQueueAwareBeatsQueueBlind(t *testing.T) {
	C := 70.0
	running := []QueryState{
		{ID: 1, Remaining: 5000, Weight: 1},
		{ID: 2, Remaining: 1000, Weight: 1},
	}
	queued := []QueryState{{ID: 3, Remaining: 2000, Weight: 1}}
	blind := ComputeProfile(running, C)
	aware := SimulateProfile(running, C, SimOptions{MPL: 2, Queued: queued})
	if aware.Finish[1] <= blind.Finish[1] {
		t.Errorf("queue-aware %g should exceed queue-blind %g", aware.Finish[1], blind.Finish[1])
	}
	// Exactly the queued query's drain time longer (work conservation).
	if !almostEq(aware.Finish[1]-blind.Finish[1], 2000.0/70) {
		t.Errorf("delta = %g", aware.Finish[1]-blind.Finish[1])
	}
}

// TestQueueUnlimitedMPLAdmitsImmediately: MPL 0 means no admission limit.
func TestQueueUnlimitedMPLAdmitsImmediately(t *testing.T) {
	running := []QueryState{{ID: 1, Remaining: 100, Weight: 1}}
	queued := []QueryState{{ID: 2, Remaining: 100, Weight: 1}}
	p := SimulateProfile(running, 10, SimOptions{Queued: queued})
	// Both share from t=0: both finish at 20.
	if !almostEq(p.Finish[1], 20) || !almostEq(p.Finish[2], 20) {
		t.Errorf("finish: %g, %g", p.Finish[1], p.Finish[2])
	}
}

// TestFutureArrivalsSlowDown: predicted arrivals must strictly increase the
// estimate for queries that finish after the first arrival, and the effect
// must grow with λ'.
func TestFutureArrivalsSlowDown(t *testing.T) {
	states := []QueryState{
		{ID: 1, Remaining: 100, Weight: 1},
		{ID: 2, Remaining: 2000, Weight: 1},
	}
	C := 10.0
	base := ComputeProfile(states, C).Finish[2]
	prev := base
	for _, lambda := range []float64{0.005, 0.01, 0.02} {
		am := ArrivalModel{Lambda: lambda, AvgCost: 200, AvgWeight: 1}
		got := SimulateProfile(states, C, SimOptions{Arrivals: &am}).Finish[2]
		if got <= prev {
			t.Errorf("λ=%g: finish %g should exceed %g", lambda, got, prev)
		}
		prev = got
	}
}

// TestFutureArrivalsRespectWindow: arrivals beyond the window are ignored,
// keeping the estimate finite even for absurd λ'.
func TestFutureArrivalsRespectWindow(t *testing.T) {
	states := []QueryState{{ID: 1, Remaining: 1000, Weight: 1}}
	C := 10.0
	am := ArrivalModel{Lambda: 10, AvgCost: 1000, AvgWeight: 1} // 100× overload
	p := SimulateProfile(states, C, SimOptions{Arrivals: &am})
	got := p.Finish[1]
	if math.IsInf(got, 1) || math.IsNaN(got) {
		t.Fatalf("estimate must stay finite, got %g", got)
	}
	if got <= 100 {
		t.Errorf("arrivals ignored entirely: %g", got)
	}
	// With an explicit tiny window, only ~window×λ arrivals are injected.
	small := SimulateProfile(states, C, SimOptions{
		Arrivals:      &ArrivalModel{Lambda: 10, AvgCost: 1000, AvgWeight: 1},
		ArrivalWindow: 0.05, // before the first 0.1s arrival
	})
	if !almostEq(small.Finish[1], 100) {
		t.Errorf("window=0.05 should see no arrivals: %g", small.Finish[1])
	}
}

// TestArrivalsZeroLambdaIsNoop: a zero-rate arrival model changes nothing.
func TestArrivalsZeroLambdaIsNoop(t *testing.T) {
	states := []QueryState{{ID: 1, Remaining: 500, Weight: 1}}
	am := ArrivalModel{Lambda: 0, AvgCost: 100, AvgWeight: 1}
	got := SimulateProfile(states, 10, SimOptions{Arrivals: &am}).Finish[1]
	if !almostEq(got, 50) {
		t.Errorf("finish = %g, want 50", got)
	}
}

// TestSimulateAllBlocked: if every admitted query is blocked, nothing
// finishes and queued queries never start.
func TestSimulateAllBlocked(t *testing.T) {
	running := []QueryState{{ID: 1, Remaining: 10, Weight: 0}}
	queued := []QueryState{{ID: 2, Remaining: 10, Weight: 1}}
	p := SimulateProfile(running, 10, SimOptions{MPL: 1, Queued: queued})
	if !math.IsInf(p.Finish[1], 1) || !math.IsInf(p.Finish[2], 1) {
		t.Errorf("finish: %v", p.Finish)
	}
}

// TestWorkConservation: for any instance, the quiescent time equals total
// work / C regardless of weights (weighted fair sharing is work-conserving).
func TestWorkConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		total := 0.0
		states := make([]QueryState, n)
		for i := range states {
			c := rng.Float64() * 500
			total += c
			states[i] = QueryState{ID: i + 1, Remaining: c, Weight: 0.1 + rng.Float64()}
		}
		C := 5 + 50*rng.Float64()
		p := ComputeProfile(states, C)
		return almostEq(p.QuiescentTime(), total/C)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFinishOrderMatchesRatio: finish order is ascending c/w (paper's
// equation 1), for any weights.
func TestFinishOrderMatchesRatio(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		states := make([]QueryState, n)
		for i := range states {
			states[i] = QueryState{ID: i + 1, Remaining: 1 + rng.Float64()*500, Weight: 0.1 + rng.Float64()}
		}
		C := 10.0
		p := ComputeProfile(states, C)
		byID := make(map[int]QueryState, n)
		for _, q := range states {
			byID[q.ID] = q
		}
		for i := 1; i < len(p.Order); i++ {
			a, b := byID[p.Order[i-1]], byID[p.Order[i]]
			if a.Remaining/a.Weight > b.Remaining/b.Weight+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStageDiagram(t *testing.T) {
	states := []QueryState{
		{ID: 1, Remaining: 100, Weight: 1},
		{ID: 2, Remaining: 200, Weight: 1},
		{ID: 3, Remaining: 300, Weight: 1},
		{ID: 4, Remaining: 400, Weight: 1},
	}
	out := StageDiagram(states, 100, 40)
	for _, frag := range []string{"Q1", "Q4", "finishes at 4.0s", "finishes at 10.0s"} {
		if !strings.Contains(out, frag) {
			t.Errorf("diagram missing %q:\n%s", frag, out)
		}
	}
	// A blocked query renders as a flat line (the Figure 2 case).
	blocked := append([]QueryState{{ID: 5, Remaining: 500, Weight: 0}}, states...)
	out = StageDiagram(blocked, 100, 40)
	if !strings.Contains(out, "blocked") {
		t.Errorf("blocked row missing:\n%s", out)
	}
	// Degenerate inputs.
	if out := StageDiagram(nil, 100, 0); !strings.Contains(out, "no runnable") {
		t.Errorf("empty diagram: %q", out)
	}
	if out := StageDiagram([]QueryState{{ID: 1, Remaining: 0, Weight: 1}}, 100, 10); !strings.Contains(out, "finished") {
		t.Errorf("zero-work diagram: %q", out)
	}
}

// TestAdversarialInputsNeverPanicOrHang: NaN, Inf, and negative states must
// produce finite-time, panic-free results from both algorithms.
func TestAdversarialInputsNeverPanicOrHang(t *testing.T) {
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, 1e308, 5}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(6)
		states := make([]QueryState, n)
		for i := range states {
			states[i] = QueryState{
				ID:        i + 1,
				Remaining: poison[rng.Intn(len(poison))],
				Weight:    poison[rng.Intn(len(poison))],
				Done:      poison[rng.Intn(len(poison))],
			}
		}
		C := poison[rng.Intn(len(poison))]
		p := ComputeProfile(states, C)
		for id, f := range p.Finish {
			if math.IsNaN(f) {
				t.Fatalf("trial %d: NaN finish for %d (states %+v, C=%g)", trial, id, states, C)
			}
		}
		var queued []QueryState
		if n > 1 {
			queued = states[n-1:]
		}
		am := &ArrivalModel{Lambda: rng.Float64() * 0.1, AvgCost: poison[rng.Intn(len(poison))], AvgWeight: 1}
		sp := SimulateProfile(states[:n-len(queued)], C, SimOptions{MPL: rng.Intn(3), Queued: queued, Arrivals: am})
		for id, f := range sp.Finish {
			if math.IsNaN(f) {
				t.Fatalf("trial %d: NaN sim finish for %d", trial, id)
			}
		}
	}
}

// TestSimulateQueuedBehindVirtualArrivals is the regression test for queued
// real queries being marked +Inf when only virtual arrivals occupy the active
// set: virtuals bypass the admission queue (they model load, not admissions)
// but still finish in finite time and free their MPL slots, so a queued real
// query must inherit a finite ETA instead of "never".
//
// Construction: MPL 1, C 10. q1 (10 U) runs alone; one virtual arrival (8 U)
// lands at t=0.5 (λ=2, window 0.6 keeps it to exactly one). From t=0.5 both
// share C: q1 finishes its last 5 U at t=1.5, leaving only the virtual active
// — the state the old code treated as terminal, freezing q2 at +Inf. The
// virtual's remaining 3 U drain by t=1.8, q2 is admitted and finishes at
// t=2.8.
func TestSimulateQueuedBehindVirtualArrivals(t *testing.T) {
	running := []QueryState{{ID: 1, Remaining: 10, Weight: 1}}
	queued := []QueryState{{ID: 2, Remaining: 10, Weight: 1}}
	prof := SimulateProfile(running, 10, SimOptions{
		MPL:           1,
		Queued:        queued,
		Arrivals:      &ArrivalModel{Lambda: 2, AvgCost: 8, AvgWeight: 1},
		ArrivalWindow: 0.6,
	})
	if !almostEq(prof.Finish[1], 1.5) {
		t.Errorf("q1 finish = %v, want 1.5", prof.Finish[1])
	}
	if math.IsInf(prof.Finish[2], 1) {
		t.Fatalf("q2 stuck at +Inf behind a virtual-only active set")
	}
	if !almostEq(prof.Finish[2], 2.8) {
		t.Errorf("q2 finish = %v, want 2.8", prof.Finish[2])
	}
}

// TestSimulateSimultaneousFinishTieOrder pins the canonical tie order:
// queries that finish at the same instant retire in ascending ID order — the
// order ComputeProfile's (ratio, ID) sort produces — not in active-slice
// insertion order, so the two models stay bit-comparable.
func TestSimulateSimultaneousFinishTieOrder(t *testing.T) {
	states := []QueryState{
		{ID: 7, Remaining: 100, Weight: 1},
		{ID: 3, Remaining: 100, Weight: 1},
		{ID: 5, Remaining: 50, Weight: 1},
	}
	prof := SimulateProfile(states, 10, SimOptions{})
	want := []int{5, 3, 7}
	if len(prof.Order) != len(want) {
		t.Fatalf("order %v, want %v", prof.Order, want)
	}
	for i, id := range want {
		if prof.Order[i] != id {
			t.Fatalf("order %v, want %v (ties must retire by ascending ID)", prof.Order, want)
		}
	}
	closed := closedFormProfile(states, 10)
	for i := range want {
		if prof.Order[i] != closed.Order[i] {
			t.Fatalf("simulated order %v differs from closed-form order %v", prof.Order, closed.Order)
		}
	}
}

// TestProfileSharedStages: ComputeProfile inventories fold groups in order of
// first appearance in stage order, member IDs ascending; blocked members are
// excluded, solo queries never appear.
func TestProfileSharedStages(t *testing.T) {
	states := []QueryState{
		{ID: 1, Remaining: 100, Weight: 1, Fold: 7},
		{ID: 2, Remaining: 100, Weight: 1, Fold: 7},
		{ID: 3, Remaining: 10, Weight: 1},          // solo, finishes first
		{ID: 4, Remaining: 40, Weight: 1, Fold: 9}, // earlier stage than group 7
		{ID: 5, Remaining: 45, Weight: 1, Fold: 9},
		{ID: 6, Remaining: 100, Weight: 0, Fold: 7}, // blocked: not in Shared
	}
	prof := ComputeProfile(states, 10)
	if len(prof.Shared) != 2 {
		t.Fatalf("shared = %v, want 2 groups", prof.Shared)
	}
	if prof.Shared[0].Fold != 9 || prof.Shared[1].Fold != 7 {
		t.Errorf("group order %d,%d, want 9,7 (first appearance in stage order)",
			prof.Shared[0].Fold, prof.Shared[1].Fold)
	}
	if got := prof.Shared[0].IDs; len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("group 9 members %v, want [4 5]", got)
	}
	if got := prof.Shared[1].IDs; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("group 7 members %v, want [1 2]", got)
	}

	// No folds: no Shared inventory at all.
	if p := ComputeProfile([]QueryState{{ID: 1, Remaining: 5, Weight: 1}}, 10); p.Shared != nil {
		t.Errorf("solo profile has Shared = %v", p.Shared)
	}
}

// TestSimulateProfileBoundaries pins the simulator's degenerate corners,
// where the event loop never takes a step or takes zero-length ones: an
// empty system, zero-cost queries on both sides of the admission fence, and
// the single-query case, which must agree with the closed form exactly.
func TestSimulateProfileBoundaries(t *testing.T) {
	// Empty system: no running set, no queue. No stages, no finishes, zero
	// quiescent time — and no panic from an empty event heap.
	p := SimulateProfile(nil, 100, SimOptions{})
	if len(p.Order) != 0 || len(p.Finish) != 0 || p.QuiescentTime() != 0 {
		t.Errorf("empty system profile: %+v", p)
	}
	p = SimulateProfile([]QueryState{}, 100, SimOptions{MPL: 2, Queued: []QueryState{}})
	if len(p.Order) != 0 || len(p.Finish) != 0 || p.QuiescentTime() != 0 {
		t.Errorf("empty running + empty queue profile: %+v", p)
	}

	// Queue only: with every slot free, the queue drains from time 0 even
	// though nothing was running when the simulation started.
	p = SimulateProfile(nil, 100, SimOptions{MPL: 1, Queued: []QueryState{{ID: 7, Remaining: 200, Weight: 1}}})
	if !almostEq(p.Finish[7], 2) {
		t.Errorf("queue-only finish = %g, want 2", p.Finish[7])
	}

	// Zero-cost queries finish at time 0 on both sides of the admission
	// fence and add nothing to anyone else's estimate.
	p = SimulateProfile([]QueryState{
		{ID: 1, Remaining: 0, Weight: 1},
		{ID: 2, Remaining: 50, Weight: 1},
	}, 100, SimOptions{MPL: 2, Queued: []QueryState{{ID: 3, Remaining: 0, Weight: 1}}})
	if !almostEq(p.Finish[1], 0) || !almostEq(p.Finish[3], 0) {
		t.Errorf("zero-cost finishes: running %g, queued %g, want 0 and 0", p.Finish[1], p.Finish[3])
	}
	if !almostEq(p.Finish[2], 0.5) {
		t.Errorf("peer of zero-cost queries finishes at %g, want 0.5", p.Finish[2])
	}

	// Single quiescent query: simulation and closed form agree on the finish
	// and on the quiescent time, which is just c/C at full capacity.
	states := []QueryState{{ID: 1, Remaining: 123, Weight: 2}}
	sim := SimulateProfile(states, 10, SimOptions{})
	closed := closedFormProfile(states, 10)
	if !almostEq(sim.Finish[1], closed.Finish[1]) {
		t.Errorf("single query: sim %g vs closed %g", sim.Finish[1], closed.Finish[1])
	}
	if !almostEq(sim.QuiescentTime(), closed.QuiescentTime()) || !almostEq(sim.QuiescentTime(), 12.3) {
		t.Errorf("single-query quiescent: sim %g, closed %g, want 12.3",
			sim.QuiescentTime(), closed.QuiescentTime())
	}
}
