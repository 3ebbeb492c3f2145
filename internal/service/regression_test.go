package service

import (
	"math"
	"net/http"
	"strings"
	"testing"

	"mqpi/internal/engine"
	"mqpi/internal/sched"
)

// TestHTTPParamValidation pins the query-param audit: every strconv call
// site must answer 400 for unparsable or out-of-range values instead of
// silently substituting a default, and float params must reject the
// non-finite spellings ParseFloat accepts ("NaN", "Inf", ...).
func TestHTTPParamValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name, path string
		want       int
	}{
		{"diagram default", "/diagram", http.StatusOK},
		{"diagram ok", "/diagram?width=40", http.StatusOK},
		{"diagram max", "/diagram?width=400", http.StatusOK},
		{"diagram garbage", "/diagram?width=abc", http.StatusBadRequest},
		{"diagram negative", "/diagram?width=-5", http.StatusBadRequest},
		{"diagram zero", "/diagram?width=0", http.StatusBadRequest},
		{"diagram too wide", "/diagram?width=401", http.StatusBadRequest},
		{"diagram float", "/diagram?width=40.5", http.StatusBadRequest},
		{"events default", "/events", http.StatusOK},
		{"events all", "/events?id=0", http.StatusOK},
		{"events garbage", "/events?id=abc", http.StatusBadRequest},
		{"events negative", "/events?id=-1", http.StatusBadRequest},
		{"speedup no target", "/plan/speedup", http.StatusBadRequest},
		{"speedup victims garbage", "/plan/speedup?target=1&victims=x", http.StatusBadRequest},
		{"speedup victims zero", "/plan/speedup?target=1&victims=0", http.StatusBadRequest},
		{"speedup victims negative", "/plan/speedup?target=1&victims=-2", http.StatusBadRequest},
		{"maintenance ok", "/plan/maintenance?deadline=5", http.StatusOK},
		{"maintenance missing", "/plan/maintenance", http.StatusBadRequest},
		{"maintenance garbage", "/plan/maintenance?deadline=abc", http.StatusBadRequest},
		{"maintenance nan", "/plan/maintenance?deadline=NaN", http.StatusBadRequest},
		{"maintenance inf", "/plan/maintenance?deadline=Inf", http.StatusBadRequest},
		{"maintenance neg inf", "/plan/maintenance?deadline=-Inf", http.StatusBadRequest},
		{"maintenance negative", "/plan/maintenance?deadline=-3", http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Get(ts.URL + c.path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("GET %s = %d, want %d", c.path, resp.StatusCode, c.want)
			}
		})
	}
}

// TestAdvanceRejectsNonFinite pins the Manager-layer half of the float
// validation fix: NaN and ±Inf must not survive the range check.
func TestAdvanceRejectsNonFinite(t *testing.T) {
	db := engine.Open()
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5})
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 2e9} {
		if err := m.Advance(v); err == nil {
			t.Errorf("Advance(%g) = nil, want error", v)
		}
	}
	if err := m.Advance(0.5); err != nil {
		t.Errorf("Advance(0.5) = %v", err)
	}
}

// TestPlanMaintenanceRejectsNonFinite pins the second validation hole: a NaN
// deadline used to flow into the knapsack where every comparison silently
// evaluates false, and ±Inf produced degenerate abort-everything /
// abort-nothing plans that looked legitimate.
func TestPlanMaintenanceRejectsNonFinite(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "t1", 10)
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5})
	if _, err := m.Submit(SubmitRequest{Label: "q", SQL: "SELECT SUM(a) FROM t1"}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := m.PlanMaintenance(v, 0, false); err == nil {
			t.Errorf("PlanMaintenance(%g) = nil, want error", v)
		}
	}
	if _, err := m.PlanMaintenance(5, 0, false); err != nil {
		t.Errorf("PlanMaintenance(5) = %v", err)
	}
}

// TestAdvanceBackstopCarriesDebt pins the backstop-truncation fix with a
// pathological time scale: one huge Advance hits MaxTicksPerAdvance, and the
// un-ticked virtual time must remain owed. Pre-fix the residual debt was
// zeroed, so the follow-up (sub-quantum) Advance ticked nothing and the
// virtual clock silently lost eight seconds.
func TestAdvanceBackstopCarriesDebt(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "t1", 60) // ~61 U: busy for 12+ ticks at 5 U/tick
	m := New(db, Config{
		Sched:              sched.Config{RateC: 10, Quantum: 0.5},
		TickEvery:          -1,
		MaxTicksPerAdvance: 4,
	})
	defer m.Close()
	if _, err := m.Submit(SubmitRequest{Label: "q", SQL: "SELECT SUM(a) FROM t1"}); err != nil {
		t.Fatal(err)
	}

	// Owed 10 s but capped at 4 ticks × 0.5 s: the clock reaches 2 s and the
	// backstop fires with 8 s still owed.
	if err := m.Advance(10); err != nil {
		t.Fatal(err)
	}
	if now := m.Load().Now; math.Abs(now-2) > 1e-9 {
		t.Fatalf("after capped advance: now = %g, want 2", now)
	}
	if n := m.snap.Load().counts.advanceBackstops; n != 1 {
		t.Fatalf("backstop count = %d, want 1", n)
	}

	// A sub-quantum nudge must drain four more ticks of the carried debt.
	// Pre-fix: debt was dropped, 1e-9 s < quantum, the clock stayed at 2 s.
	if err := m.Advance(1e-9); err != nil {
		t.Fatal(err)
	}
	if now := m.Load().Now; math.Abs(now-4) > 1e-9 {
		t.Fatalf("after nudge: now = %g, want 4 (residual debt dropped?)", now)
	}
	if n := m.snap.Load().counts.advanceBackstops; n != 2 {
		t.Fatalf("backstop count = %d, want 2", n)
	}

	// The counter is exported for operators.
	if text := m.Metrics().Text(); !strings.Contains(text, "mqpi_advance_backstop_total 2\n") {
		t.Errorf("metrics text missing backstop counter:\n%s", text)
	}
}

// TestLoadProbe pins the router's lock-free load signal: counts and
// remaining work must come straight from the published snapshot.
func TestLoadProbe(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "t1", 10)
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5, MPL: 1})
	if l := m.Load(); l.Admitted != 0 || l.Queued != 0 || l.RemainingU != 0 {
		t.Fatalf("idle load = %+v", l)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM t1"}); err != nil {
			t.Fatal(err)
		}
	}
	l := m.Load()
	if l.Admitted != 1 || l.Queued != 1 {
		t.Fatalf("load = %+v, want 1 admitted + 1 queued (MPL 1)", l)
	}
	if l.RemainingU <= 0 {
		t.Fatalf("remaining = %g, want > 0", l.RemainingU)
	}
	before := l.RemainingU
	if err := m.Advance(1); err != nil {
		t.Fatal(err)
	}
	l = m.Load()
	if l.RemainingU >= before {
		t.Fatalf("remaining did not shrink: %g -> %g", before, l.RemainingU)
	}
	if l.Epoch == 0 {
		t.Fatal("epoch not stamped")
	}
}

// TestRevisionAtThresholdAlwaysRecords pins the estimate_revised threshold
// fix. A query that makes no progress keeps its ETA while the clock moves one
// quantum per tick, so its absolute predicted finish moves by exactly the
// revision threshold, one quantum — up to the rounding of now + eta - last,
// which lands one ulp below 0.5 on some ticks and one ulp above on others.
// Pre-fix the bare rev >= quantum recorded only the latter, so the event was a
// coin flip on float noise; every such move must record.
func TestRevisionAtThresholdAlwaysRecords(t *testing.T) {
	m := manual(t, engine.Open(), sched.Config{RateC: 10, Quantum: 0.5})
	if q := m.srv.Quantum(); q != 0.5 {
		t.Fatalf("quantum = %g, want the configured 0.5", q)
	}
	cases := []struct {
		id         int
		eta        float64
		from, to   float64 // clock before and after the move
		wantMoveBy float64 // the construction's float result, asserted below
	}{
		{id: 1, eta: 0.2, from: 0, to: 0.5, wantMoveBy: 0.49999999999999994},
		{id: 2, eta: 0.1, from: 0.5, to: 1.0, wantMoveBy: 0.5000000000000001},
		{id: 3, eta: 0.25, from: 0, to: 0.5, wantMoveBy: 0.5},
	}
	for _, c := range cases {
		if got := (c.to + c.eta) - (c.from + c.eta); got != c.wantMoveBy {
			t.Fatalf("construction for id %d moved by %v, want %v", c.id, got, c.wantMoveBy)
		}
		m.revise(c.from, c.id, c.eta)
		m.revise(c.to, c.id, c.eta)
		m.events.addRevised(c.to, m.moves) // as observe does after its pass
		m.moves = m.moves[:0]
		revised := 0
		for _, e := range m.events.Query(c.id) {
			if e.Type == EventRevised {
				revised++
			}
		}
		if revised != 1 {
			t.Errorf("a move of %v against epsilon 0.5 recorded %d estimate_revised events, want 1",
				c.wantMoveBy, revised)
		}
	}
	// A move clearly under the threshold still does not record.
	m.revise(0, 4, 1)
	m.revise(0.25, 4, 1)
	m.events.addRevised(0.25, m.moves)
	if evs := m.events.Query(4); len(evs) != 0 {
		t.Errorf("a quarter-quantum move recorded %d events, want none", len(evs))
	}
}
