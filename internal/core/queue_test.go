package core

import (
	"math"
	"math/rand"
	"testing"
)

// sameFinish is the differential's agreement rule between the finish-tag pass
// and the event-stepped oracle: +Inf for +Inf, finite values within
// 1e-9·max(1, |oracle|).
func sameFinish(got, oracle float64) bool {
	if math.IsInf(got, 1) || math.IsInf(oracle, 1) {
		return math.IsInf(got, 1) && math.IsInf(oracle, 1)
	}
	return math.Abs(got-oracle) <= 1e-9*math.Max(1, math.Abs(oracle))
}

// queueFinishes runs a fresh finish-tag pass over in, arrival model included.
func queueFinishes(in EstimateInput) []float64 {
	var p queuePass
	return p.finishes(in, nil)
}

// finishesByPosition lays a profile's Finish map out in Running ++ Queued
// order, the layout queuePass.finishes writes.
func finishesByPosition(in EstimateInput, finish map[int]float64) []float64 {
	fin := make([]float64, 0, len(in.Running)+len(in.Queued))
	for _, q := range in.Running {
		fin = append(fin, finish[q.ID])
	}
	for _, q := range in.Queued {
		fin = append(fin, finish[q.ID])
	}
	return fin
}

// oracleFinishes is SimulateProfile's answer for the same input, in the same
// Running ++ Queued layout.
func oracleFinishes(in EstimateInput) []float64 {
	prof := SimulateProfile(in.Running, in.RateC, SimOptions{MPL: in.MPL, Queued: in.Queued, Arrivals: in.Arrivals})
	return finishesByPosition(in, prof.Finish)
}

// diffQueuePass fails t when the pass and the oracle disagree anywhere on in,
// and returns how many finite finishes it compared.
func diffQueuePass(t *testing.T, label string, in EstimateInput) (finite int) {
	t.Helper()
	got, want := queueFinishes(in), oracleFinishes(in)
	if len(got) != len(in.Running)+len(in.Queued) {
		t.Fatalf("%s: %d finishes for %d queries", label, len(got), len(in.Running)+len(in.Queued))
	}
	for i := range got {
		if !sameFinish(got[i], want[i]) {
			t.Fatalf("%s: position %d (r=%d q=%d MPL=%d C=%g arrivals=%+v): pass %v, oracle %v",
				label, i, len(in.Running), len(in.Queued), in.MPL, in.RateC, in.Arrivals, got[i], want[i])
		}
		if !math.IsInf(got[i], 1) {
			finite++
		}
	}
	return finite
}

// randomQueueInput draws one mix with r <= MPL <= 70 runners, up to maxQ
// queued (none at all every other time: §2.2), about 5 % of both blocked,
// weights from the priority ladder {1,2,4} or, with floatWeights, anywhere in
// [0.1, 10), and, as often, an arrival model (§2.4) with λ log-uniform
// in [0.01, 5) that offers 5–120 % of the rate C.
func randomQueueInput(rng *rand.Rand, maxQ int, floatWeights bool) EstimateInput {
	weight := func() float64 {
		if floatWeights {
			return 0.1 + 9.9*rng.Float64()
		}
		return float64(int(1) << rng.Intn(3))
	}
	mpl := 1 + rng.Intn(70)
	r := rng.Intn(mpl + 1)
	q := rng.Intn(maxQ + 1)
	if rng.Intn(2) == 0 {
		q = 0
	}
	states := make([]QueryState, r+q)
	for i := range states {
		w := weight()
		if rng.Intn(20) == 0 {
			w = 0
		}
		states[i] = QueryState{ID: i + 1, Remaining: 1000 * rng.Float64(), Weight: w}
	}
	// IDs are not in admission order in a live system (priorities reorder
	// nothing, but aborts and scheduled arrivals interleave); shuffle so no
	// code path can lean on position == ID.
	rng.Shuffle(len(states), func(i, j int) { states[i].ID, states[j].ID = states[j].ID, states[i].ID })
	in := EstimateInput{Running: states[:r], Queued: states[r:], MPL: mpl, RateC: 1 + 999*rng.Float64()}
	if rng.Intn(2) == 0 {
		lambda := 0.01 * math.Pow(500, rng.Float64())
		load := 0.05 + 1.15*rng.Float64()
		in.Arrivals = &ArrivalModel{Lambda: lambda, AvgCost: load * in.RateC / lambda, AvgWeight: weight()}
	}
	return in
}

// TestQueuePassMatchesSimulate is the differential behind the finish-tag
// pass: on random mixes — with and without an admission queue, with and
// without an arrival model — and on every structural corner of §2.3 admission
// and §2.4 arrivals, it agrees with the event-stepped SimulateProfile.
func TestQueuePassMatchesSimulate(t *testing.T) {
	trials, deep := 14000, 60
	if testing.Short() {
		trials, deep = 600, 10
	}
	rng := rand.New(rand.NewSource(18))
	withModel, emptyQueue := 0, 0
	for i := 0; i < trials; i++ {
		maxQ := 60
		if i < deep {
			maxQ = 1200
		}
		in := randomQueueInput(rng, maxQ, i%2 == 1)
		finite := diffQueuePass(t, "random", in)
		if in.Arrivals != nil {
			withModel += finite
		}
		if len(in.Queued) == 0 {
			emptyQueue += finite
		}
	}
	if !testing.Short() && (withModel < 100000 || emptyQueue < 100000) {
		t.Errorf("compared %d finite finishes with an arrival model and %d with an empty queue, want 100000 of each",
			withModel, emptyQueue)
	}

	q := func(id int, c, w float64) QueryState { return QueryState{ID: id, Remaining: c, Weight: w} }
	slotHeld := EstimateInput{
		Running: []QueryState{q(1, 100, 1), q(2, 40, 2)},
		Queued:  []QueryState{q(3, 70, 0), q(4, 10, 1), q(5, 20, 1)}, MPL: 2, RateC: 10}
	// One arrival per second, each 5 U: the first is due at t=1 exactly as Q1
	// finishes, comes first and takes the slot ahead of Q2; Q2 gets it at 1.5
	// and shares with the t=2 arrival, so both end at t=3 — where the last
	// arrival of the window is due.
	arrivalAtFinish := EstimateInput{
		Running: []QueryState{q(1, 10, 1)}, Queued: []QueryState{q(2, 10, 1)}, MPL: 1, RateC: 10,
		Arrivals: &ArrivalModel{Lambda: 1, AvgCost: 5, AvgWeight: 1}}
	// TestSimulateQueuedBehindVirtualArrivals' construction under the default
	// window (2 s: arrivals at 0.8 and 1.6): Q1 shares with the first and
	// leaves at 1.2; the two arrivals then hold the one slot between them until
	// 2.6, and only then is Q2 admitted.
	behindVirtual := EstimateInput{
		Running: []QueryState{q(1, 10, 1)}, Queued: []QueryState{q(2, 2, 1)}, MPL: 1, RateC: 10,
		Arrivals: &ArrivalModel{Lambda: 1.25, AvgCost: 8, AvgWeight: 1}}
	// 100,000 arrivals a second offering half the rate: the window is 15 s but
	// the 10,000th arrival, at t=0.1, is the last.
	capBinds := EstimateInput{
		Running: []QueryState{q(1, 100, 1)}, Queued: []QueryState{q(2, 50, 1)}, MPL: 1, RateC: 10,
		Arrivals: &ArrivalModel{Lambda: 1e5, AvgCost: 5e-5, AvgWeight: 1}}
	corners := []struct {
		name string
		in   EstimateInput
	}{
		{"MPL 0 admits everything at once", EstimateInput{
			Running: []QueryState{q(1, 100, 1), q(2, 40, 2)},
			Queued:  []QueryState{q(3, 70, 1), q(4, 10, 4)}, MPL: 0, RateC: 10}},
		{"MPL 1 is a serial line", EstimateInput{
			Running: []QueryState{q(1, 100, 1)},
			Queued:  []QueryState{q(2, 40, 2), q(3, 70, 1), q(4, 0, 4)}, MPL: 1, RateC: 10}},
		{"MPL above r+q", EstimateInput{
			Running: []QueryState{q(1, 100, 1), q(2, 40, 2)},
			Queued:  []QueryState{q(3, 70, 1)}, MPL: 50, RateC: 10}},
		{"more runners than slots", EstimateInput{
			Running: []QueryState{q(1, 100, 1), q(2, 40, 2), q(3, 10, 1)},
			Queued:  []QueryState{q(4, 70, 1), q(5, 5, 1)}, MPL: 2, RateC: 10}},
		{"empty running set", EstimateInput{
			Queued: []QueryState{q(1, 100, 1), q(2, 40, 2), q(3, 70, 1)}, MPL: 2, RateC: 10}},
		{"nothing at all", EstimateInput{MPL: 2, RateC: 10}},
		{"weight-0 queue entry holds a slot", slotHeld},
		{"zero rate", EstimateInput{
			Running: []QueryState{q(1, 100, 1)}, Queued: []QueryState{q(2, 40, 2)}, MPL: 1, RateC: 0}},
		{"zero rate with arrivals", EstimateInput{
			Running: []QueryState{q(1, 100, 1)}, Queued: []QueryState{q(2, 40, 2)}, MPL: 1, RateC: 0,
			Arrivals: &ArrivalModel{Lambda: 1, AvgCost: 5, AvgWeight: 1}}},
		{"arrival exactly at a finish", arrivalAtFinish},
		{"queued behind virtual-only occupants", behindVirtual},
		{"the 10,000-arrival cap binds", capBinds},
		{"arrivals beside a blocked slot holder", EstimateInput{
			Running: []QueryState{q(1, 100, 0), q(2, 40, 1)},
			Queued:  []QueryState{q(3, 20, 1), q(4, 30, 2)}, MPL: 2, RateC: 10,
			Arrivals: &ArrivalModel{Lambda: 1, AvgCost: 5, AvgWeight: 2}}},
		{"arrivals, no queue, MPL 0", EstimateInput{
			Running: []QueryState{q(1, 100, 1), q(2, 40, 2), q(3, 7, 0)}, RateC: 10,
			Arrivals: &ArrivalModel{Lambda: 0.5, AvgCost: 12, AvgWeight: 4}}},
		{"weightless arrival model", EstimateInput{
			Running: []QueryState{q(1, 100, 1)}, Queued: []QueryState{q(2, 50, 1)}, MPL: 1, RateC: 10,
			Arrivals: &ArrivalModel{Lambda: 1, AvgCost: 5}}},
	}
	for _, c := range corners {
		diffQueuePass(t, c.name, c.in)
	}
	for _, c := range []struct {
		name string
		in   EstimateInput
		want []float64
	}{
		{"arrival exactly at a finish", arrivalAtFinish, []float64{1, 3}},
		{"queued behind virtual-only occupants", behindVirtual, []float64{1.2, 2.8}},
		{"the 10,000-arrival cap binds", capBinds, []float64{10.05, 15.05}},
	} {
		for i, f := range queueFinishes(c.in) {
			if !sameFinish(f, c.want[i]) {
				t.Errorf("%s: position %d finishes at %v, want %v", c.name, i, f, c.want[i])
			}
		}
	}

	// All runners blocked: every slot is held for good, so every queued query
	// is +Inf — by the pass's own answer, not only by agreement — and predicted
	// arrivals, which run and leave without ever freeing a slot, change nothing.
	blocked := EstimateInput{
		Running: []QueryState{q(1, 100, 0), q(2, 40, 0)},
		Queued:  []QueryState{q(3, 70, 1), q(4, 10, 1)}, MPL: 2, RateC: 10}
	for _, am := range []*ArrivalModel{nil, {Lambda: 1, AvgCost: 5, AvgWeight: 1}} {
		blocked.Arrivals = am
		diffQueuePass(t, "all runners blocked", blocked)
		for i, f := range queueFinishes(blocked) {
			if !math.IsInf(f, 1) {
				t.Errorf("all runners blocked (arrivals %v): position %d finishes at %g, want +Inf", am != nil, i, f)
			}
		}
	}
	// The weight-0 queue entry takes the slot Q2 frees at t=6 and keeps it: Q4
	// and Q5 then take turns in the one slot Q1 frees.
	got := queueFinishes(slotHeld)
	if !math.IsInf(got[2], 1) || math.IsInf(got[3], 1) || got[4] <= got[3] {
		t.Errorf("weight-0 queue entry: finishes %v, want Q3 +Inf and Q4 < Q5 finite", got)
	}
}

// TestQueuePassMatchesClosedForm holds the degenerate case against the paper's
// own formula: with no admission queue and no arrivals the pass is §2.2, and
// its finishes are ComputeProfile's — finite within 1e-9·max(1, |closed
// form|), +Inf for +Inf, and one shared finish for queries whose c/w tie.
func TestQueuePassMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 500; i++ {
		in := randomQueueInput(rng, 0, i%2 == 1)
		in.Arrivals = nil
		if i%3 == 0 {
			in.MPL = 0
		}
		if i%5 == 0 && len(in.Running) > 1 {
			// An exact c/w tie (the weights are powers of two or copied).
			a, b := &in.Running[0], &in.Running[1]
			b.Remaining, b.Weight = a.Remaining, a.Weight
			if i%2 == 0 {
				b.Remaining, b.Weight = 2*a.Remaining, 2*a.Weight
			}
		}
		got := queueFinishes(in)
		want := finishesByPosition(in, ComputeProfile(in.Running, in.RateC).Finish)
		for k := range got {
			if !sameFinish(got[k], want[k]) {
				t.Fatalf("input %d position %d (r=%d C=%g): pass %v, closed form %v",
					i, k, len(in.Running), in.RateC, got[k], want[k])
			}
		}
		if i%5 == 0 && len(in.Running) > 1 && math.Float64bits(got[0]) != math.Float64bits(got[1]) {
			t.Fatalf("input %d: tied queries finish at %v and %v, want one shared instant", i, got[0], got[1])
		}
	}
}

// TestQueuePassTieOrder pins the tie rule on TestSimulateSimultaneousFinish-
// TieOrder's construction: equal tags pop in ascending ID and share one
// finish time, bit for bit, and the slots they free go to the queue in FIFO
// order at that one instant.
func TestQueuePassTieOrder(t *testing.T) {
	var p queuePass
	for _, tg := range []finishTag{{tag: 10, id: 7}, {tag: 10, id: 3}, {tag: 5, id: 5}, {tag: 10, id: 4}} {
		p.push(tg)
	}
	for _, want := range []int{5, 3, 4, 7} {
		if got := p.pop().id; got != want {
			t.Fatalf("pop order: got ID %d, want %d (ascending tag, then ascending ID)", got, want)
		}
	}

	in := EstimateInput{
		Running: []QueryState{
			{ID: 7, Remaining: 100, Weight: 1},
			{ID: 3, Remaining: 100, Weight: 1},
			{ID: 5, Remaining: 50, Weight: 1},
		},
		Queued: []QueryState{
			{ID: 9, Remaining: 80, Weight: 1},
			{ID: 8, Remaining: 60, Weight: 1},
			{ID: 6, Remaining: 60, Weight: 1},
		},
		MPL: 3, RateC: 10,
	}
	got := p.finishes(in, nil)
	if math.Float64bits(got[0]) != math.Float64bits(got[1]) {
		t.Errorf("tied runners finish at %v and %v, want one shared instant", got[0], got[1])
	}
	// Q5 leaves at V=50 and Q9 takes its slot (tag 50+80); Q3 and Q7 tie at
	// V=100 ahead of it, and their two slots go to Q8 and Q6 at that one
	// instant, which therefore tie in turn (tag 160).
	if math.Float64bits(got[4]) != math.Float64bits(got[5]) {
		t.Errorf("queries admitted into tied slots finish at %v and %v, want one shared instant", got[4], got[5])
	}
	diffQueuePass(t, "ties", in)
}

// TestQueuePassAdversarial runs the pass over TestAdversarialInputsNeverPanic-
// OrHang's poison set plus 1e-300 and 1e12, one trial in sixteen with an
// arrival model drawn from the same set: it never yields NaN, always returns
// (the loop pops at most r+q tags and takes at most 10,000 arrivals), and
// classifies every query finite or +Inf exactly as the oracle does wherever
// the model's own quantities — each sanitized c/w, the predicted query's
// included, and W/C — are finite, with one enumerated exception where it is
// the oracle that cannot represent the answer.
func TestQueuePassAdversarial(t *testing.T) {
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, 1e308, 5, 1e-300, 1e12}
	pick := func(rng *rand.Rand) float64 { return poison[rng.Intn(len(poison))] }
	rng := rand.New(rand.NewSource(13))
	compared, excepted, predicted := 0, 0, 0
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(8)
		states := make([]QueryState, n)
		for i := range states {
			states[i] = QueryState{ID: i + 1, Remaining: pick(rng), Weight: pick(rng), Done: pick(rng)}
		}
		r := rng.Intn(n + 1)
		in := EstimateInput{
			Running: states[:r], Queued: states[r:],
			MPL: rng.Intn(4), RateC: pick(rng),
		}
		if trial%16 == 0 {
			in.Arrivals = &ArrivalModel{Lambda: pick(rng), AvgCost: pick(rng), AvgWeight: pick(rng)}
		}
		got := queueFinishes(in)
		for i, f := range got {
			if math.IsNaN(f) || f < 0 {
				t.Fatalf("trial %d: finish %v at position %d (%+v)", trial, f, i, in)
			}
		}

		C := sanitizeRate(in.RateC)
		modelFinite := true
		W, minW := 0.0, math.Inf(1)
		if virtual, ok := in.Arrivals.query(); ok {
			states = append(states, virtual)
		}
		for _, q := range states {
			if s := sanitize(q); s.Weight > 0 {
				W += s.Weight
				minW = math.Min(minW, s.Weight)
				modelFinite = modelFinite && !math.IsInf(s.Remaining/s.Weight, 1)
			}
		}
		if C > 0 && math.IsInf(W/C, 1) {
			modelFinite = false
		}
		// With 10,000 arrivals that never leave, the oracle rescans a set that
		// grows to 10,000: it is asked about one such trial in sixteen.
		if !modelFinite || (in.Arrivals != nil && trial%256 != 0) {
			continue
		}
		// The exception: the oracle steps each query at speed C·(w/W), and at
		// C = 1e-300 beside a weight-5 peer a weight-1e-300 query's speed
		// underflows to 0. Its c/speed is then +Inf (or 0/0), no next event
		// exists, and the oracle calls the whole system never-finishing —
		// while c/w = 1 and W/C = 5e300 put the true finish at a finite
		// 5e300, which is what the pass reports.
		if C > 0 && W > 0 && C*(minW/W) == 0 {
			excepted += len(got)
			continue
		}
		want := oracleFinishes(in)
		for i := range got {
			compared++
			if math.IsInf(got[i], 1) != math.IsInf(want[i], 1) {
				t.Fatalf("trial %d position %d: pass %v, oracle %v (%+v, arrivals %+v)", trial, i, got[i], want[i], in, in.Arrivals)
			}
		}
		if in.Arrivals != nil {
			predicted += len(got)
		}
	}
	if compared < 50000 || excepted == 0 || excepted > compared/50 || predicted < 200 {
		t.Errorf("compared %d estimates (%d with an arrival model) and excepted %d: the sweep no longer covers what it claims",
			compared, predicted, excepted)
	}
}

// TestMulDivKeepsRange: the three magnitudes of (tag − V)·W/C are combined
// without an intermediate overflow or underflow the result does not have.
func TestMulDivKeepsRange(t *testing.T) {
	for _, c := range []struct{ a, b, c, want float64 }{
		{6, 4, 3, 8},
		{2e-301, 5, 1e-300, 1},         // (a·b)/c: a·(b/c) would overflow
		{5e300, 1e-300, 1e-300, 5e300}, // a·b first; a/c would overflow
		{1e300, 1e12, 1e308, 1e4},      // a·b overflows; the exponents do not
		{1e-300, 1e-300, 1e-300, 1e-300},
		{math.Inf(1), 5, 10, math.Inf(1)},
		{1e308, 5, 1e-300, math.Inf(1)}, // the result itself overflows
	} {
		got := mulDiv(c.a, c.b, c.c)
		if got != c.want && math.Abs(got-c.want) > 1e-12*c.want {
			t.Errorf("mulDiv(%g, %g, %g) = %g, want %g", c.a, c.b, c.c, got, c.want)
		}
	}
}

// TestQueuePassResumsWeight: W is kept by add and subtract, so a heavy
// finisher used to leave a light survivor with the rounding of the heavy sum
// — here float64(1e12 + 1e-3) − 1e12 = 0.0009765625, 2.3 % short — as the
// weight it drains at, and Q2 finishes 0.023 s early.
func TestQueuePassResumsWeight(t *testing.T) {
	diffQueuePass(t, "heavy finisher, light survivor", EstimateInput{
		Running: []QueryState{{ID: 1, Remaining: 1, Weight: 1e12}, {ID: 2, Remaining: 1, Weight: 1e-3}},
		Queued:  []QueryState{{ID: 3, Remaining: 5, Weight: 1}},
		MPL:     2, RateC: 1,
	})
}

// TestStageEstimatorReusesQueuePass: the production estimator's reused heap
// and finish slice carry nothing from one pass into the next — alternating
// queue depths, empty queues and arrival models gives ComputeEstimates' bundle
// bit for bit every time.
func TestStageEstimatorReusesQueuePass(t *testing.T) {
	est, err := NewEstimator(EstimatorStage)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		in := randomQueueInput(rng, 80, i%2 == 0)
		got, want := est.Estimates(in, EnsembleState{}), ComputeEstimates(in)
		if math.Float64bits(got.Quiescent) != math.Float64bits(want.Quiescent) {
			t.Fatalf("pass %d: quiescent %v, stateless %v", i, got.Quiescent, want.Quiescent)
		}
		if len(got.PerQuery) != len(want.PerQuery) {
			t.Fatalf("pass %d: %d estimates, stateless %d", i, len(got.PerQuery), len(want.PerQuery))
		}
		for pos, w := range want.PerQuery {
			if g := got.PerQuery[pos]; math.Float64bits(g.MultiQuery) != math.Float64bits(w.MultiQuery) {
				t.Fatalf("pass %d Q%d: %v, stateless %v", i, in.Query(pos).ID, g.MultiQuery, w.MultiQuery)
			}
		}
	}
}

// queueInputFromBytes decodes a fuzz input: a 3-byte header (MPL, how many
// of the queries are already running, rate) and two bytes per query (cost,
// weight). Costs are multiples of 3/8 and weights come from a short table, so
// every finish tag is a multiple of a fixed small fraction: two tags are
// either exactly tied or far apart, never within the oracle's 1e-9 retirement
// slack, where the two implementations legitimately differ. The rate byte's
// top two bits, when not both zero, add an arrival model whose λ puts 2, 8 or
// 32 arrivals inside the drain time of the known work (so the oracle stays
// cheap at any depth); its cost and weight are decoded like a query's from the
// odd byte left over after the queries (3.75 U at weight 1 when there is none).
func queueInputFromBytes(data []byte) (EstimateInput, bool) {
	weights := [16]float64{0, 0.25, 0.5, 1, 1, 1, 1.5, 2, 2, 3, 4, 4, 0.1, 0.7, 2.3, 8}
	if len(data) < 5 {
		return EstimateInput{}, false
	}
	body := data[3:]
	n := len(body) / 2
	if n > 256 {
		n = 256
	}
	states := make([]QueryState, n)
	for i := range states {
		states[i] = QueryState{
			ID:        n - i, // descending, so no code path can lean on position == ID
			Remaining: 0.375 * float64(body[2*i]),
			Weight:    weights[body[2*i+1]%16],
		}
	}
	r := int(data[1]) % (n + 1)
	in := EstimateInput{
		Running: states[:r], Queued: states[r:],
		MPL:   int(data[0]) % 72,
		RateC: 12.5 * float64(data[2]%64+1),
	}
	if k := [4]float64{0, 2, 8, 32}[data[2]>>6]; k > 0 {
		known := 0.0
		for _, q := range states {
			known += q.Remaining
		}
		in.Arrivals = &ArrivalModel{Lambda: k * in.RateC / math.Max(known, 0.375), AvgCost: 3.75, AvgWeight: 1}
		if len(body)%2 == 1 {
			b := body[len(body)-1]
			in.Arrivals.AvgCost, in.Arrivals.AvgWeight = 0.375*float64(b), weights[b%16]
		}
	}
	return in, true
}

// FuzzQueueProfile is the native differential: any decodable mix must get the
// oracle's finishes from the finish-tag pass, and the same bits again from a
// pass whose heap and finish slice were left dirty by a different input.
func FuzzQueueProfile(f *testing.F) {
	f.Add([]byte{0, 2, 0, 100, 3, 40, 7, 70, 3, 10, 10})                  // MPL 0
	f.Add([]byte{1, 1, 0, 100, 3, 40, 7, 70, 3, 0, 10})                   // MPL 1, zero-cost tail
	f.Add([]byte{50, 2, 3, 100, 3, 40, 7, 70, 3})                         // MPL above r+q
	f.Add([]byte{2, 0, 3, 100, 3, 40, 7, 70, 3})                          // empty running set
	f.Add([]byte{2, 2, 3, 100, 0, 40, 0, 70, 3, 10, 3})                   // all runners blocked
	f.Add([]byte{2, 2, 3, 100, 3, 40, 7, 70, 0, 10, 3, 20, 3})            // weight-0 queue entry holds a slot
	f.Add([]byte{3, 3, 0, 200, 3, 200, 3, 100, 3, 60, 3, 120, 3, 120, 3}) // tag ties
	f.Add([]byte{2, 3, 3, 100, 3, 40, 7, 10, 3, 70, 3, 5, 3})             // more runners than slots
	f.Add([]byte{4, 1, 9, 9, 12, 77, 13, 200, 14, 3, 15, 91, 6, 18, 9})   // non-dyadic weights
	f.Add([]byte{0, 3, 3, 100, 3, 40, 7, 70, 3})                          // empty queue: §2.2
	f.Add([]byte{1, 1, 64, 100, 3, 100, 3})                               // two arrivals in the drain time, the first as Q1 finishes
	f.Add([]byte{2, 2, 192 + 3, 100, 0, 40, 0, 70, 3, 10, 3, 20})         // arrivals, all runners blocked
	f.Add([]byte{1, 1, 128, 100, 3, 40, 7, 70, 3, 0})                     // weightless arrival model
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := queueInputFromBytes(data)
		if !ok {
			return
		}
		diffQueuePass(t, "fuzz", in)

		var p queuePass
		dirty := p.finishes(EstimateInput{
			Running: []QueryState{{ID: 1, Remaining: 9, Weight: 1}, {ID: 2, Remaining: 3, Weight: 0}},
			Queued:  []QueryState{{ID: 3, Remaining: 4, Weight: 2}}, MPL: 2, RateC: 1,
			Arrivals: &ArrivalModel{Lambda: 1, AvgCost: 1, AvgWeight: 1},
		}, nil)
		fresh, reused := queueFinishes(in), p.finishes(in, dirty)
		for i := range fresh {
			if math.Float64bits(fresh[i]) != math.Float64bits(reused[i]) {
				t.Fatalf("position %d: fresh pass %v, reused pass %v", i, fresh[i], reused[i])
			}
		}
	})
}
