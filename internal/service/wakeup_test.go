package service

import (
	"fmt"
	"testing"
	"time"

	"mqpi/internal/engine"
	"mqpi/internal/sched"
)

// TestLiveClockKeepsWallRate pins the bridge between the two clocks under
// load: with a thousand queries in the system and a wake-up owing several
// ticks, the virtual clock must advance at TimeScale × wall time — the owner
// pays one observe pass per wake-up, and a wake-up is charged the wall time
// that passed, not one TickEvery per ticker fire it happened to receive. Then
// the owner is stalled for longer than MaxTicksPerAdvance can repay at once:
// the debt must be carried across wake-ups, none of it dropped and no wake-up
// running past the cap.
func TestLiveClockKeepsWallRate(t *testing.T) {
	const (
		scale   = 400.0
		maxTick = 100
		stall   = 200 * time.Millisecond
	)
	db := engine.Open()
	loadTable(t, db, "t1", 64)
	m := New(db, Config{
		// RateC is tiny so that nothing finishes: the depth stays put.
		Sched:              sched.Config{RateC: 0.01, Quantum: 0.25, MPL: 8},
		TickEvery:          2 * time.Millisecond,
		TimeScale:          scale,
		MaxTicksPerAdvance: maxTick,
	})
	defer m.Close()
	for i := 0; i < 1000; i++ {
		if _, err := m.Submit(SubmitRequest{Label: fmt.Sprintf("q%d", i), SQL: "SELECT SUM(a) FROM t1"}); err != nil {
			t.Fatal(err)
		}
	}
	// clock reads the published virtual time; the wall instant is taken first,
	// so a slow read only makes the measured rate look lower.
	clock := func() (time.Time, float64) {
		at := time.Now()
		ov, err := m.Overview()
		if err != nil {
			t.Fatal(err)
		}
		return at, ov.Now
	}
	rate := func(t0 time.Time, v0 float64) float64 {
		t1, v1 := clock()
		return (v1 - v0) / (scale * t1.Sub(t0).Seconds())
	}

	t0, v0 := clock()
	time.Sleep(time.Second)
	if r := rate(t0, v0); r < 0.8 || r > 1.1 {
		t.Errorf("virtual clock ran at %.2f of the wall rate over 1 s at depth 1000, want within [0.8, 1.1]", r)
	}

	// A 200 ms stall owes 320 ticks, more than three capped wake-ups' worth.
	// Without the carried debt the clock could reach at most half the wall
	// rate over the 400 ms window that starts with the stall.
	backstops := m.snap.Load().counts.advanceBackstops
	t0, v0 = clock()
	if err := m.call(func() { time.Sleep(stall) }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(stall)
	if r := rate(t0, v0); r < 0.75 || r > 1.1 {
		t.Errorf("virtual clock ran at %.2f of the wall rate across a %v owner stall, want within [0.75, 1.1] (debt dropped?)", r, stall)
	}
	if n := m.snap.Load().counts.advanceBackstops - backstops; n < 3 {
		t.Errorf("backstop fired %d times repaying %v at %d ticks a wake-up, want >= 3", n, stall, maxTick)
	}
	if most := m.metrics.wakeupTicks.Max(); most > maxTick*1e9 {
		t.Errorf("a wake-up ran %d ticks, past MaxTicksPerAdvance = %d", most/1e9, maxTick)
	}
}

// TestWakeupWithoutTickPublishesNothing: a ticker wake-up that ran no tick —
// the server is idle, or less than one quantum is owed — leaves the published
// epoch alone, so the epoch counts state changes and not ticker fires.
func TestWakeupWithoutTickPublishesNothing(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "t1", 64)
	// 1 ms of wall time is 1 ms of virtual time: 250 wake-ups to a quantum.
	m := New(db, Config{
		Sched:     sched.Config{RateC: 0.01, Quantum: 0.25},
		TickEvery: time.Millisecond,
	})
	defer m.Close()
	wakeups := func(atLeast uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for m.metrics.wakeupTicks.Count() < atLeast {
			if time.Now().After(deadline) {
				t.Fatalf("ticker woke %d times in 10 s, want %d", m.metrics.wakeupTicks.Count(), atLeast)
			}
			time.Sleep(time.Millisecond)
		}
	}
	wakeups(20)
	if l := m.Load(); l.Epoch != 1 || l.Now != 0 {
		t.Fatalf("idle server: epoch %d at t=%g after 20 wake-ups, want epoch 1 at t=0", l.Epoch, l.Now)
	}
	if _, err := m.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM t1"}); err != nil {
		t.Fatal(err)
	}
	wakeups(m.metrics.wakeupTicks.Count() + 20)
	m.Close() // the owner has stopped: the counters below belong to one state
	woke, ticks := m.metrics.wakeupTicks.Count(), m.metrics.tickDur.Count()
	if ticks*10 > woke {
		t.Skipf("%d ticks in %d wake-ups: the host stalled, so the premise (most wake-ups owe less than a quantum) does not hold", ticks, woke)
	}
	// New, the submit, and at most one publish per tick run.
	if epoch := m.Load().Epoch; epoch < 2 || epoch > 2+ticks {
		t.Errorf("epoch %d after one submit, %d ticks and %d wake-ups, want within [2, %d]", epoch, ticks, woke, 2+ticks)
	}
}

// TestAdvanceObservesOncePerStep: a manual Advance is one step of the clock,
// like a ticker wake-up — every tick it owes, then one estimate pass (the
// observe, whose capture the publish reuses). A client that wants a pass per
// quantum advances one quantum at a time.
func TestAdvanceObservesOncePerStep(t *testing.T) {
	const quantum = 0.25
	db := engine.Open()
	loadTable(t, db, "t1", 64)
	// RateC is tiny so that nothing finishes and every owed tick runs.
	m := manual(t, db, sched.Config{RateC: 0.01, Quantum: quantum})
	if _, err := m.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM t1"}); err != nil {
		t.Fatal(err)
	}
	counts := func() (passes, ticks float64) {
		s := samples(m.Metrics().Text())
		return s["mqpi_estimate_pass_seconds_count"], s["mqpi_tick_duration_seconds_count"]
	}
	passes0, ticks0 := counts()
	if err := m.Advance(3 * quantum); err != nil {
		t.Fatal(err)
	}
	passes1, ticks1 := counts()
	if ticks1-ticks0 != 3 || passes1-passes0 != 1 {
		t.Errorf("Advance(3 quanta) ran %g ticks and %g estimate passes, want 3 and 1", ticks1-ticks0, passes1-passes0)
	}
	for k := 0; k < 3; k++ {
		if err := m.Advance(quantum); err != nil {
			t.Fatal(err)
		}
	}
	if passes2, ticks2 := counts(); ticks2-ticks1 != 3 || passes2-passes1 != 3 {
		t.Errorf("three Advance(quantum) ran %g ticks and %g estimate passes, want 3 and 3", ticks2-ticks1, passes2-passes1)
	}
}
