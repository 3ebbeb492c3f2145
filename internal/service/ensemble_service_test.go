package service

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mqpi/internal/core"
	"mqpi/internal/engine"
	"mqpi/internal/sched"
)

// calibratedManager is manual() with the calibrated estimator.
func calibratedManager(t testing.TB, db *engine.DB, sc sched.Config) *Manager {
	t.Helper()
	m := New(db, Config{Sched: sc, TickEvery: -1, Estimator: core.EstimatorCalibrated})
	t.Cleanup(m.Close)
	return m
}

// TestEnsembleServiceEndToEnd drives a calibrated-mode manager through a full
// workload: views must carry real uncertainty bands bracketing the stage
// point, the overview must expose the mode, finishes must feed the
// calibration accumulator (visible through the band-coverage counters and the
// rolling error), and the diagram must annotate ETAs with bands.
func TestEnsembleServiceEndToEnd(t *testing.T) {
	db := engine.Open()
	for i := 0; i < 3; i++ {
		loadTable(t, db, fmt.Sprintf("ens%d", i), 6+2*i)
	}
	m := calibratedManager(t, db, sched.Config{RateC: 10, Quantum: 0.5, MPL: 2})

	ids := make([]int, 0, 3)
	for i := 0; i < 3; i++ {
		v, err := m.Submit(SubmitRequest{Label: fmt.Sprintf("q%d", i), SQL: fmt.Sprintf("SELECT SUM(a) FROM ens%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	if err := m.Advance(1); err != nil {
		t.Fatal(err)
	}

	p, err := m.Progress(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	lo, point, hi := float64(p.ETALow), float64(p.MultiETA), float64(p.ETAHigh)
	if !(lo <= point && point <= hi) {
		t.Fatalf("band [%g,%g] misses point %g", lo, hi, point)
	}
	if hi-lo <= 0 {
		t.Fatalf("calibrated band degenerate: %+v", p)
	}

	ov, err := m.Overview()
	if err != nil {
		t.Fatal(err)
	}
	if ov.Estimator != core.EstimatorCalibrated {
		t.Fatalf("overview estimator = %q", ov.Estimator)
	}

	d, err := m.Diagram(40)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d, "±[") {
		t.Fatalf("diagram carries no band annotation:\n%s", d)
	}

	// Drain everything; finishes must land residuals in the calibration
	// accumulator and show up in the metrics text.
	for i := 0; i < 40; i++ {
		if err := m.Advance(1); err != nil {
			t.Fatal(err)
		}
	}
	ov, err = m.Overview()
	if err != nil {
		t.Fatal(err)
	}
	if len(ov.Finished) != 3 {
		t.Fatalf("finished %d queries, want 3", len(ov.Finished))
	}

	text := m.Metrics().Text()
	if !strings.Contains(text, "mqpi_eta_band_finishes_total 3\n") || !strings.Contains(text, "mqpi_eta_band_within_total ") {
		t.Fatalf("metrics text lacks the band counters:\n%s", text)
	}

	// Every finish landed a residual of the stage point.
	calib := calibState(t, m)
	if calib.Samples != 3 || !(calib.Err >= 0) || math.IsInf(calib.Err, 0) {
		t.Fatalf("calibration state = %+v, want a finite rolling error from 3 samples", calib)
	}
}

// calibState copies the calibration accumulator's state off the owner
// goroutine.
func calibState(t *testing.T, m *Manager) core.EnsembleState {
	t.Helper()
	var st core.EnsembleState
	if err := m.call(func() { st = m.calib.State() }); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestEnsembleFinishedViewsZeroBand: terminal and not-yet-arrived queries
// render the same fixed band conventions as the point ETAs.
func TestEnsembleFinishedViewsZeroBand(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "ensz", 4)
	m := calibratedManager(t, db, sched.Config{RateC: 100, Quantum: 0.5})

	v, err := m.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM ensz"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM ensz", Delay: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := m.Advance(0.5); err != nil {
			t.Fatal(err)
		}
	}
	p, err := m.Progress(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Status != "finished" || p.ETALow != 0 || p.ETAHigh != 0 {
		t.Fatalf("finished view = %+v", p)
	}
	ps, err := m.Progress(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Status != "scheduled" || !math.IsInf(float64(ps.ETALow), 1) || !math.IsInf(float64(ps.ETAHigh), 1) {
		t.Fatalf("scheduled view = %+v", ps)
	}
}

// TestStageModeNoEnsembleSurface: in default stage mode the new surfaces stay
// inert — degenerate bands equal to the point, no band metrics lines, no
// diagram band annotations.
func TestStageModeNoEnsembleSurface(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "stg", 6)
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5})

	v, err := m.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM stg"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(0.5); err != nil {
		t.Fatal(err)
	}
	p, err := m.Progress(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.ETALow != p.MultiETA || p.ETAHigh != p.MultiETA {
		t.Fatalf("stage-mode band not degenerate: %+v", p)
	}
	ov, err := m.Overview()
	if err != nil {
		t.Fatal(err)
	}
	if ov.Estimator != core.EstimatorStage {
		t.Fatalf("stage-mode overview estimator=%q", ov.Estimator)
	}
	if text := m.Metrics().Text(); strings.Contains(text, "mqpi_eta_band") {
		t.Fatal("stage mode exposes band metrics")
	}
	d, err := m.Diagram(40)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(d, "±[") {
		t.Fatalf("stage-mode diagram carries band annotations:\n%s", d)
	}
}

// TestEnsembleServesScoredBand pins that the uncertainty band clients read is
// the band being calibrated. After every one-tick Advance, the eta_low/eta_high
// a poll returns for a query are the interval observe handed to
// EnsembleCalib.Observe on that tick — the estimator's output under the
// calibration state from *before* that Observe, recomputed here by the
// stateless oracle — and scoring each finish against the last band a client
// saw reproduces the service's own coverage counters exactly.
func TestEnsembleServesScoredBand(t *testing.T) {
	db := engine.Open()
	for i := 0; i < 4; i++ {
		loadTable(t, db, fmt.Sprintf("band%d", i), 5+3*i)
	}
	m := calibratedManager(t, db, sched.Config{
		RateC: 10, Quantum: 0.5, MPL: 3, Weights: map[int]float64{1: 3},
	})
	ids := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		v, err := m.Submit(SubmitRequest{SQL: fmt.Sprintf("SELECT SUM(a) FROM band%d", i), Priority: i % 2})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}

	lastBand := make(map[int]core.Interval) // absolute band of each query's latest poll
	scored := make(map[int]bool)
	var within, finishes uint64
	compared := 0
	for tick := 0; len(scored) < len(ids); tick++ {
		if tick > 200 {
			t.Fatal("workload did not drain")
		}
		pre := calibState(t, m) // what this tick's estimate pass will run under
		if err := m.Advance(0.5); err != nil {
			t.Fatal(err)
		}
		snap, err := m.read()
		if err != nil {
			t.Fatal(err)
		}
		views := make(map[int]QueryView)
		finishedNow := false
		for _, id := range ids {
			p, err := m.Progress(id)
			if err != nil {
				t.Fatal(err)
			}
			if p.Status == "finished" && !scored[id] {
				scored[id], finishedNow = true, true
				if b, ok := lastBand[id]; ok {
					finishes++
					if p.FinishTime >= b.Low-1e-9 && p.FinishTime <= b.High+1e-9 {
						within++
					}
				}
				continue
			}
			if !scored[id] {
				views[id] = p
				lastBand[id] = core.Interval{Low: float64(p.Now + p.ETALow), High: float64(p.Now + p.ETAHigh)}
				if math.IsInf(lastBand[id].High, 0) {
					delete(lastBand, id) // no band reported, none scored
				}
			}
		}
		if finishedNow {
			continue // a finish moved the rolling error mid-tick: pre is stale
		}
		want := snap.estimates(nil, pre)
		for id, p := range views {
			_, pos, _ := snap.Sched.Locate(id)
			w := want.PerQuery[pos]
			if math.Float64bits(float64(p.ETALow)) != math.Float64bits(w.ETALow) ||
				math.Float64bits(float64(p.ETAHigh)) != math.Float64bits(w.ETAHigh) {
				t.Fatalf("tick %d query %d: served band [%v, %v], scored band [%v, %v]",
					tick, id, p.ETALow, p.ETAHigh, w.ETALow, w.ETAHigh)
			}
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("no tick compared a served band against the scored one")
	}
	var gotWithin, gotFinishes uint64
	if err := m.call(func() { gotWithin, gotFinishes = m.calib.Coverage() }); err != nil {
		t.Fatal(err)
	}
	if gotWithin != within || gotFinishes != finishes {
		t.Fatalf("service scored %d/%d finishes inside their band; the bands clients saw give %d/%d",
			gotWithin, gotFinishes, within, finishes)
	}
}
