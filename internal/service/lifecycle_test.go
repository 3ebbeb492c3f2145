package service

import (
	"testing"

	"mqpi/internal/engine"
	"mqpi/internal/sched"
)

// eventTypes returns the ordered event-type sequence recorded for query id.
func eventTypes(m *Manager, id int) []string {
	var out []string
	for _, ev := range m.Events(0) {
		if ev.QueryID == id {
			out = append(out, ev.Type)
		}
	}
	return out
}

func wantPrefix(t *testing.T, got, want []string, id int) {
	t.Helper()
	if len(got) < len(want) {
		t.Fatalf("q%d events = %v, want prefix %v", id, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("q%d events = %v, want prefix %v", id, got, want)
		}
	}
}

// Reduced from simulator seed 24: aborting a running query frees its MPL slot
// and the scheduler refills from the admission queue synchronously, so the
// replacement's admitted event must be recorded by the abort itself, not
// deferred to the next tick (where a block/abort of the replacement could be
// logged first, inverting the lifecycle).
func TestAbortRefillEmitsAdmission(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "t1", 10)
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5, MPL: 1})

	v1, err := m.Submit(SubmitRequest{Label: "q1", SQL: "SELECT SUM(a) FROM t1"})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := m.Submit(SubmitRequest{Label: "q2", SQL: "SELECT COUNT(*) FROM t1"})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Status != "queued" {
		t.Fatalf("q2 status = %q, want queued (MPL=1)", v2.Status)
	}
	if err := m.Abort(v1.ID); err != nil {
		t.Fatal(err)
	}
	wantPrefix(t, eventTypes(m, v2.ID), []string{EventSubmitted, EventQueued, EventAdmitted}, v2.ID)
	// The lifecycle must hold even when the very next action targets the
	// freshly admitted query.
	if err := m.Block(v2.ID); err != nil {
		t.Fatal(err)
	}
	wantPrefix(t, eventTypes(m, v2.ID),
		[]string{EventSubmitted, EventQueued, EventAdmitted, EventBlocked}, v2.ID)
}

// A scheduled arrival that lands, is admitted, and finishes within one tick
// must record submitted+admitted before finished.
func TestSameTickArrivalFinishEvents(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "t1", 4)
	m := manual(t, db, sched.Config{RateC: 100, Quantum: 10})

	v, err := m.Submit(SubmitRequest{Label: "q1", SQL: "SELECT SUM(a) FROM t1", Delay: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != "scheduled" {
		t.Fatalf("q1 status = %q, want scheduled", v.Status)
	}
	if err := m.Advance(10); err != nil {
		t.Fatal(err)
	}
	p, err := m.Progress(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Status != "finished" {
		t.Fatalf("q1 status = %q, want finished", p.Status)
	}
	wantPrefix(t, eventTypes(m, v.ID),
		[]string{EventScheduled, EventSubmitted, EventAdmitted, EventFinished}, v.ID)
}

// A scheduled arrival that lands while every MPL slot is taken waits in the
// queue; when a slot frees later in the same tick it is admitted before any
// reconciliation saw it queued. Its lifecycle must still read queued between
// submitted and admitted.
func TestSameTickArrivalQueuedEvents(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "t1", 10)
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5, MPL: 1})

	if _, err := m.Submit(SubmitRequest{Label: "q1", SQL: "SELECT COUNT(*) FROM t1"}); err != nil {
		t.Fatal(err)
	}
	v, err := m.Submit(SubmitRequest{Label: "q2", SQL: "SELECT COUNT(*) FROM t1", Delay: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(5); err != nil {
		t.Fatal(err)
	}
	p, err := m.Progress(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Status != "finished" || p.SubmitTime != 1.2 || p.StartTime != 1.5 {
		t.Fatalf("q2 = %s submitted %g started %g, want finished, 1.2, 1.5", p.Status, p.SubmitTime, p.StartTime)
	}
	wantPrefix(t, eventTypes(m, v.ID),
		[]string{EventScheduled, EventSubmitted, EventQueued, EventAdmitted, EventFinished}, v.ID)
}

// The event log follows the clock: a delayed arrival that lands mid-tick is
// logged when it lands, ahead of the finishes and refills at the tick's end.
func TestArrivalLoggedInClockOrder(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "t1", 10)
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5, MPL: 1})

	if _, err := m.Submit(SubmitRequest{Label: "q1", SQL: "SELECT COUNT(*) FROM t1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(SubmitRequest{Label: "q2", SQL: "SELECT COUNT(*) FROM t1", Delay: 1.05}); err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(5); err != nil {
		t.Fatal(err)
	}
	evs := m.Events(0)
	for i := 1; i < len(evs); i++ {
		if prev, ev := evs[i-1], evs[i]; ev.Virtual < prev.Virtual {
			t.Errorf("seq %d q%d %s at t=%g logged after seq %d q%d %s at t=%g",
				ev.Seq, ev.QueryID, ev.Type, ev.Virtual, prev.Seq, prev.QueryID, prev.Type, prev.Virtual)
		}
	}
}
