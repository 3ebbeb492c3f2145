package sched

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"mqpi/internal/core"
	"mqpi/internal/engine"
	"mqpi/internal/engine/exec"
	"mqpi/internal/engine/types"
)

// prepare builds a runner that scans and sums a fresh table of `pages`
// heap pages, so its total work is exactly pages+1 U (scan + aggregate
// materialization).
func prepare(t testing.TB, db *engine.DB, name string, pages int) *exec.Runner {
	t.Helper()
	if _, err := db.Exec("CREATE TABLE " + name + " (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog()
	for i := 0; i < pages*64; i++ {
		if err := cat.Insert(name, types.Row{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := db.Prepare("SELECT SUM(a) FROM " + name)
	if err != nil {
		t.Fatal(err)
	}
	r.CollectRows = false
	return r
}

func newServer(cfg Config) *Server { return New(cfg) }

func TestFairSharingEqualPriorities(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 0.5})
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 10))
	q2 := srv.NewQuery("q2", "", 0, prepare(t, db, "t2", 30))
	srv.Submit(q1)
	srv.Submit(q2)
	srv.RunUntilIdle(1e6)
	// Work-conserving: total 42 U at 10 U/s -> idle at ~4.2s (quantum 0.5
	// rounds up).
	if srv.Now() < 4 || srv.Now() > 6 {
		t.Errorf("idle at %g, want ~4.5", srv.Now())
	}
	// q1 (11 U at 5 U/s) finishes near 2.2s; q2 near 4.2s.
	if q1.FinishTime < 2 || q1.FinishTime > 3 {
		t.Errorf("q1 finish = %g", q1.FinishTime)
	}
	if q2.FinishTime < 4 || q2.FinishTime > 5.5 {
		t.Errorf("q2 finish = %g", q2.FinishTime)
	}
	if q1.Status != StatusFinished || q2.Status != StatusFinished {
		t.Errorf("status: %v, %v", q1.Status, q2.Status)
	}
}

// TestTickWorkConserving is the regression test for the quantum dropping a
// finisher's surplus credit: when work remains, a single Tick must deliver
// exactly rate × dt work units. Against the old Tick, q1 (3 U) received a 5 U
// share, and its 2 U surplus vanished with it — the tick delivered only 8 of
// the 10 U the server is rated for.
func TestTickWorkConserving(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 1})
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 2))  // 3 U total
	q2 := srv.NewQuery("q2", "", 0, prepare(t, db, "t2", 40)) // 41 U total
	srv.Submit(q1)
	srv.Submit(q2)
	srv.Tick()
	if q1.Status != StatusFinished {
		t.Fatalf("q1 should finish inside the quantum, got %v", q1.Status)
	}
	total := q1.Runner.WorkDone() + q2.Runner.WorkDone()
	if total < 10-1e-6 {
		t.Errorf("tick delivered %g U, want rate×dt = 10 (surplus credit dropped)", total)
	}
	if q2.Runner.WorkDone() < 7-1e-6 {
		t.Errorf("q2 did %g U, want 7 (5 own share + q1's 2 U surplus)", q2.Runner.WorkDone())
	}
}

// TestTickWorkConservingCascade: surplus redistribution must itself be
// work-conserving when several queries finish in the same quantum.
func TestTickWorkConservingCascade(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 12, Quantum: 1})
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 1))  // 2 U
	q2 := srv.NewQuery("q2", "", 0, prepare(t, db, "t2", 2))  // 3 U
	q3 := srv.NewQuery("q3", "", 0, prepare(t, db, "t3", 60)) // 61 U
	srv.Submit(q1)
	srv.Submit(q2)
	srv.Submit(q3)
	srv.Tick()
	if q1.Status != StatusFinished || q2.Status != StatusFinished {
		t.Fatalf("q1/q2 should finish inside the quantum: %v, %v", q1.Status, q2.Status)
	}
	total := q1.Runner.WorkDone() + q2.Runner.WorkDone() + q3.Runner.WorkDone()
	if total < 12-1e-6 {
		t.Errorf("tick delivered %g U, want rate×dt = 12", total)
	}
	// q3 must absorb everything the finishers could not use: 12 - 2 - 3.
	if q3.Runner.WorkDone() < 7-1e-6 {
		t.Errorf("q3 did %g U, want 7", q3.Runner.WorkDone())
	}
}

func TestWeightedSharing(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{
		RateC:   10,
		Quantum: 0.25,
		Weights: map[int]float64{1: 1, 3: 3},
	})
	hi := srv.NewQuery("hi", "", 3, prepare(t, db, "th", 15))
	lo := srv.NewQuery("lo", "", 1, prepare(t, db, "tl", 15))
	srv.Submit(hi)
	srv.Submit(lo)
	srv.RunUntilIdle(1e6)
	if hi.FinishTime >= lo.FinishTime {
		t.Errorf("high priority (%g) should finish before low (%g)", hi.FinishTime, lo.FinishTime)
	}
	// hi runs at 7.5 U/s: 16 U -> ~2.1s. lo finishes at 32/10 = 3.2s.
	if hi.FinishTime > 3 {
		t.Errorf("hi finish = %g", hi.FinishTime)
	}
	if lo.FinishTime < 3 || lo.FinishTime > 4 {
		t.Errorf("lo finish = %g", lo.FinishTime)
	}
}

func TestMPLQueueing(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 0.5, MPL: 1})
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 10))
	q2 := srv.NewQuery("q2", "", 0, prepare(t, db, "t2", 10))
	srv.Submit(q1)
	srv.Submit(q2)
	if q1.Status != StatusRunning || q2.Status != StatusQueued {
		t.Fatalf("admission: %v, %v", q1.Status, q2.Status)
	}
	if len(srv.Queued()) != 1 {
		t.Fatalf("queued: %d", len(srv.Queued()))
	}
	srv.RunUntilIdle(1e6)
	if q2.StartTime <= q1.StartTime {
		t.Errorf("q2 must start after q1: %g vs %g", q2.StartTime, q1.StartTime)
	}
	if q2.StartTime < q1.FinishTime-1e-9 {
		t.Errorf("q2 started at %g before q1 finished at %g", q2.StartTime, q1.FinishTime)
	}
}

func TestScheduledArrival(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 0.5})
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 20))
	late := srv.NewQuery("late", "", 0, prepare(t, db, "t2", 5))
	srv.Submit(q1)
	srv.ScheduleArrival(3, late)
	if len(srv.Running()) != 1 {
		t.Fatalf("late query admitted early")
	}
	srv.RunUntilIdle(1e6)
	if late.SubmitTime < 3 || late.SubmitTime > 3.6 {
		t.Errorf("late submit = %g", late.SubmitTime)
	}
	if late.Status != StatusFinished {
		t.Errorf("late status: %v", late.Status)
	}
	// Scheduling in the past submits immediately.
	srv2 := newServer(Config{RateC: 10})
	now := srv2.NewQuery("now", "", 0, prepare(t, db, "t3", 1))
	srv2.ScheduleArrival(-1, now)
	if now.Status != StatusRunning {
		t.Errorf("past arrival should run: %v", now.Status)
	}
}

func TestBlockAndUnblock(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 0.5})
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 40))
	q2 := srv.NewQuery("q2", "", 0, prepare(t, db, "t2", 10))
	srv.Submit(q1)
	srv.Submit(q2)
	if err := srv.Block(q2.ID); err != nil {
		t.Fatal(err)
	}
	// Blocked query gets no work; q1 gets everything.
	for i := 0; i < 4; i++ {
		srv.Tick()
	}
	if q2.Runner.WorkDone() != 0 {
		t.Errorf("blocked query did %g U", q2.Runner.WorkDone())
	}
	if q1.Runner.WorkDone() < 15 {
		t.Errorf("q1 should get full capacity, did %g U", q1.Runner.WorkDone())
	}
	// Blocked queries appear with zero weight in the PI view.
	for _, st := range srv.StateRunning() {
		if st.ID == q2.ID && st.Weight != 0 {
			t.Errorf("blocked weight = %g", st.Weight)
		}
	}
	if err := srv.Unblock(q2.ID); err != nil {
		t.Fatal(err)
	}
	srv.RunUntilIdle(1e6)
	if q2.Status != StatusFinished {
		t.Errorf("q2 status after unblock: %v", q2.Status)
	}
	// Error paths.
	if err := srv.Block(9999); err == nil {
		t.Error("blocking unknown query should fail")
	}
	if err := srv.Unblock(q2.ID); err == nil {
		t.Error("unblocking a finished query should fail")
	}
}

func TestAbortFreesSlot(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 0.5, MPL: 1})
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 100))
	q2 := srv.NewQuery("q2", "", 0, prepare(t, db, "t2", 5))
	srv.Submit(q1)
	srv.Submit(q2)
	if err := srv.Abort(q1.ID); err != nil {
		t.Fatal(err)
	}
	if q1.Status != StatusAborted {
		t.Errorf("q1 status: %v", q1.Status)
	}
	if q2.Status != StatusRunning {
		t.Errorf("q2 should be admitted after abort: %v", q2.Status)
	}
	// Abort from the queue too.
	srv2 := newServer(Config{RateC: 10, MPL: 1})
	a := srv2.NewQuery("a", "", 0, prepare(t, db, "t3", 5))
	b := srv2.NewQuery("b", "", 0, prepare(t, db, "t4", 5))
	srv2.Submit(a)
	srv2.Submit(b)
	if err := srv2.Abort(b.ID); err != nil {
		t.Fatal(err)
	}
	if b.Status != StatusAborted || len(srv2.Queued()) != 0 {
		t.Errorf("queued abort: %v, queue %d", b.Status, len(srv2.Queued()))
	}
	if err := srv2.Abort(12345); err == nil {
		t.Error("aborting unknown query should fail")
	}
}

// statusLog records every lifecycle report of a server as
// "label from->to @now".
type statusLog []string

func watch(srv *Server) *statusLog {
	l := new(statusLog)
	srv.OnStatus(func(q *Query, from Status) {
		*l = append(*l, fmt.Sprintf("%s %s->%s @%g", q.Label, from, q.Status, srv.Now()))
	})
	return l
}

// expect checks that the reports since the last expect are exactly want, in
// order, and clears them.
func (l *statusLog) expect(t *testing.T, want ...string) {
	t.Helper()
	if !slices.Equal(*l, want) {
		t.Errorf("reports = %q, want %q", *l, want)
	}
	*l = nil
}

// Every status change is reported once, when it is made, with the status the
// query left: a submission, an arrival being scheduled and landing, and a
// finish.
func TestOnStatusCallback(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 0.5})
	q := srv.NewQuery("q", "", 0, prepare(t, db, "t1", 3))
	a := srv.NewQuery("a", "", 0, prepare(t, db, "t2", 3))
	log := watch(srv)
	srv.Submit(q)
	srv.ScheduleArrival(0.2, a)
	log.expect(t, "q new->running @0", "a new->scheduled @0")
	srv.Tick()
	log.expect(t, "a scheduled->running @0.2")
	srv.RunUntilIdle(1e6)
	if q.Status != StatusFinished || a.Status != StatusFinished {
		t.Fatalf("status: %v, %v", q.Status, a.Status)
	}
	log.expect(t, fmt.Sprintf("q running->finished @%g", q.FinishTime), fmt.Sprintf("a running->finished @%g", a.FinishTime))
}

// Abort reports from whichever state it takes the query out of — running,
// queued or scheduled — and an abort that frees a slot is reported before the
// refill it causes. Block and Unblock report too; a refused control reports
// nothing.
func TestOnStatusAbortAndControls(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 0.5, MPL: 1})
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 100))
	q2 := srv.NewQuery("q2", "", 0, prepare(t, db, "t2", 5))
	q3 := srv.NewQuery("q3", "", 0, prepare(t, db, "t3", 5))
	q4 := srv.NewQuery("q4", "", 0, prepare(t, db, "t4", 5))
	log := watch(srv)
	srv.Submit(q1)
	srv.Submit(q2)
	srv.ScheduleArrival(10, q3)
	srv.Submit(q4)
	log.expect(t, "q1 new->running @0", "q2 new->queued @0", "q3 new->scheduled @0", "q4 new->queued @0")
	for _, q := range []*Query{q2, q3, q1} {
		if err := srv.Abort(q.ID); err != nil {
			t.Fatal(err)
		}
	}
	log.expect(t, "q2 queued->aborted @0", "q3 scheduled->aborted @0",
		"q1 running->aborted @0", "q4 queued->running @0")
	if err := srv.Block(q4.ID); err != nil {
		t.Fatal(err)
	}
	if err := srv.Block(q4.ID); err != nil {
		t.Fatal(err)
	}
	if err := srv.Unblock(q4.ID); err != nil {
		t.Fatal(err)
	}
	if err := srv.Unblock(q4.ID); err == nil {
		t.Fatal("unblocking a running query should fail")
	}
	if err := srv.SetPriority(q4.ID, 2); err != nil {
		t.Fatal(err)
	}
	if err := srv.Abort(q2.ID); err == nil {
		t.Fatal("aborting an aborted query should fail")
	}
	log.expect(t, "q4 running->blocked @0", "q4 blocked->blocked @0", "q4 blocked->running @0")
}

// Tick reports an arrival when it lands, mid-quantum, and reports the
// quantum's finishers before the admissions of the slots they free.
func TestTickReportsFinishersBeforeRefills(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 0.5, MPL: 1})
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 2)) // 3 U: finishes in the first tick
	q2 := srv.NewQuery("q2", "", 0, prepare(t, db, "t2", 5))
	q3 := srv.NewQuery("q3", "", 0, prepare(t, db, "t3", 5))
	srv.Submit(q1)
	srv.Submit(q2)
	srv.ScheduleArrival(0.2, q3)
	log := watch(srv)
	srv.Tick()
	log.expect(t, "q3 scheduled->queued @0.2", "q1 running->finished @0.5", "q2 queued->running @0.5")
	if q1.FinishTime != 0.5 || q3.SubmitTime != 0.2 {
		t.Errorf("q1 finished at %g, q3 submitted at %g; want 0.5 and 0.2", q1.FinishTime, q3.SubmitTime)
	}
}

func TestLookup(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, MPL: 1})
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 2))
	q2 := srv.NewQuery("q2", "", 0, prepare(t, db, "t2", 2))
	srv.Submit(q1)
	srv.Submit(q2)
	for _, q := range []*Query{q1, q2} {
		got, ok := srv.Lookup(q.ID)
		if !ok || got != q {
			t.Errorf("Lookup(%d) = %v, %v", q.ID, got, ok)
		}
	}
	srv.RunUntilIdle(1e6)
	if got, ok := srv.Lookup(q1.ID); !ok || got != q1 {
		t.Error("finished queries must stay discoverable")
	}
	if _, ok := srv.Lookup(777); ok {
		t.Error("unknown id should miss")
	}
}

func TestObservedSpeedApproximatesShare(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 20, Quantum: 0.5})
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 200))
	q2 := srv.NewQuery("q2", "", 0, prepare(t, db, "t2", 200))
	srv.Submit(q1)
	srv.Submit(q2)
	for i := 0; i < 40; i++ { // 20s
		srv.Tick()
	}
	got := q1.ObservedSpeed()
	if math.Abs(got-10) > 2 {
		t.Errorf("observed speed = %g, want ~10 (C/2)", got)
	}
}

// quiescent is the stage model's prediction of when every admitted and queued
// query will have finished, on the absolute virtual clock: the quiescent ETA
// of the estimate pass the serving tier publishes, added to the server's now.
func quiescent(srv *Server) float64 {
	return srv.Now() + core.ComputeEstimates(core.EstimateInput{
		Running: srv.StateRunning(),
		Queued:  srv.StateQueued(),
		MPL:     srv.cfg.MPL,
		RateC:   srv.cfg.RateC,
	}).Quiescent
}

func TestQuiescentEstimateMatchesIdleTime(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 0.5})
	srv.Submit(srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 12)))
	srv.Submit(srv.NewQuery("q2", "", 0, prepare(t, db, "t2", 24)))
	est := quiescent(srv)
	idle := srv.RunUntilIdle(1e6)
	// The refined costs at t=0 equal the optimizer costs, which are exact
	// for pure scans, so the estimate should be within a quantum or two.
	if math.Abs(est-idle) > 1.5 {
		t.Errorf("quiescent estimate %g vs actual idle %g", est, idle)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		StatusNew: "new", StatusQueued: "queued", StatusRunning: "running", StatusBlocked: "blocked",
		StatusFinished: "finished", StatusAborted: "aborted", StatusFailed: "failed",
	} {
		if st.String() != want {
			t.Errorf("%d renders %q", st, st.String())
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		db := engine.Open()
		srv := newServer(Config{RateC: 10, Quantum: 0.5})
		q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 10))
		q2 := srv.NewQuery("q2", "", 0, prepare(t, db, "t2", 20))
		srv.Submit(q1)
		srv.Submit(q2)
		srv.RunUntilIdle(1e6)
		return q1.FinishTime, q2.FinishTime
	}
	a1, a2 := run()
	b1, b2 := run()
	if a1 != b1 || a2 != b2 {
		t.Errorf("nondeterministic: (%g,%g) vs (%g,%g)", a1, a2, b1, b2)
	}
}

func TestSetPriority(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{
		RateC:   10,
		Quantum: 0.5,
		Weights: map[int]float64{0: 1, 5: 4},
	})
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 400))
	q2 := srv.NewQuery("q2", "", 0, prepare(t, db, "t2", 400))
	srv.Submit(q1)
	srv.Submit(q2)
	if err := srv.SetPriority(q1.ID, 5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ { // 10s: far less than either query's 401 U
		srv.Tick()
	}
	// q1 should now receive ~4/5 of the capacity.
	r := q1.Runner.WorkDone() / (q1.Runner.WorkDone() + q2.Runner.WorkDone())
	if r < 0.7 || r > 0.9 {
		t.Errorf("priority share = %g, want ~0.8", r)
	}
	if err := srv.SetPriority(999, 5); err == nil {
		t.Error("unknown query should fail")
	}
	// Queued queries can be re-prioritized too.
	srv2 := newServer(Config{RateC: 10, MPL: 1})
	a := srv2.NewQuery("a", "", 0, prepare(t, db, "t3", 2))
	b := srv2.NewQuery("b", "", 0, prepare(t, db, "t4", 2))
	srv2.Submit(a)
	srv2.Submit(b)
	if err := srv2.SetPriority(b.ID, 5); err != nil {
		t.Fatal(err)
	}
	if b.Priority != 5 {
		t.Errorf("queued priority = %d", b.Priority)
	}
}

func TestStalledDetection(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 0.5})
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 5))
	q2 := srv.NewQuery("q2", "", 0, prepare(t, db, "t2", 100))
	srv.Submit(q1)
	srv.Submit(q2)
	if srv.Stalled() {
		t.Error("runnable server is not stalled")
	}
	if err := srv.Block(q2.ID); err != nil {
		t.Fatal(err)
	}
	// RunUntilIdle must terminate even though the blocked query never
	// finishes.
	idle := srv.RunUntilIdle(1e12)
	if idle >= 1e12 {
		t.Fatalf("RunUntilIdle spun to the time cap")
	}
	if q1.Status != StatusFinished {
		t.Errorf("q1 status: %v", q1.Status)
	}
	if !srv.Stalled() {
		t.Error("only a blocked query remains: stalled")
	}
	// Scheduled arrivals mean the server is not stalled.
	q3 := srv.NewQuery("q3", "", 0, prepare(t, db, "t3", 2))
	srv.ScheduleArrival(srv.Now()+5, q3)
	if srv.Stalled() {
		t.Error("pending arrival: not stalled")
	}
	srv.RunUntilIdle(srv.Now() + 100)
	if q3.Status != StatusFinished {
		t.Errorf("q3 status: %v", q3.Status)
	}
}

func TestFailedQueryReported(t *testing.T) {
	db := engine.Open()
	// A scalar sub-query returning two rows fails at runtime.
	if _, err := db.Exec("CREATE TABLE two (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO two VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE outerq (b BIGINT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := db.Exec("INSERT INTO outerq VALUES (1)"); err != nil {
			t.Fatal(err)
		}
	}
	r, err := db.Prepare("SELECT (SELECT a FROM two) FROM outerq")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(Config{RateC: 10, Quantum: 0.5})
	q := srv.NewQuery("bad", "", 0, r)
	log := watch(srv)
	srv.Submit(q)
	srv.RunUntilIdle(1e6)
	if q.Status != StatusFailed || q.Err == nil {
		t.Fatalf("status %v err %v", q.Status, q.Err)
	}
	log.expect(t, "bad new->running @0", fmt.Sprintf("bad running->failed @%g", q.FinishTime))
}

func TestRateFuncViolatesAssumption1(t *testing.T) {
	db := engine.Open()
	// Total rate halves when two queries run (thrashing model).
	srv := newServer(Config{
		RateC:   10,
		Quantum: 0.5,
		RateFunc: func(n int) float64 {
			if n > 1 {
				return 5
			}
			return 10
		},
	})
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 10))
	q2 := srv.NewQuery("q2", "", 0, prepare(t, db, "t2", 10))
	srv.Submit(q1)
	srv.Submit(q2)
	srv.RunUntilIdle(1e6)
	// 22 U total: both running at 5 U/s total until q1's 11 U done at
	// ~4.4s, then q2 alone at 10 U/s. Far later than the constant-rate 2.2s.
	if q1.FinishTime < 4 {
		t.Errorf("q1 finish = %g; contention not applied", q1.FinishTime)
	}
	if q2.FinishTime > q1.FinishTime+2 {
		t.Errorf("q2 finish = %g; solo speed-up not applied", q2.FinishTime)
	}
}

func TestQuiescentEstimateWithQueue(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 0.5, MPL: 1})
	srv.Submit(srv.NewQuery("a", "", 0, prepare(t, db, "t1", 10)))
	srv.Submit(srv.NewQuery("b", "", 0, prepare(t, db, "t2", 10)))
	est := quiescent(srv)
	// Total work 22 U at 10 U/s: ~2.2s — the queued query must be included.
	if est < 2 || est > 3 {
		t.Errorf("quiescent estimate %g, want ~2.2 (queued work included)", est)
	}
	idle := srv.RunUntilIdle(1e6)
	if math.Abs(est-idle) > 1 {
		t.Errorf("estimate %g vs actual idle %g", est, idle)
	}
}

// TestBlockForfeitsCredit is the regression test for stale scheduling credit
// surviving a Block: whatever credit the victim had accrued at block time
// (an overshooting Step leaves a debt, the work-conserving pool a surplus)
// must NOT replay on Unblock — the first quantum back delivers exactly the
// fair share. Against the old Block, a +3 U stale credit made the victim
// consume ~8 U of the 10 U quantum instead of its 5 U half.
func TestBlockForfeitsCredit(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 1})
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 200))
	q2 := srv.NewQuery("q2", "", 0, prepare(t, db, "t2", 200))
	srv.Submit(q1)
	srv.Submit(q2)
	srv.Tick()
	for _, stale := range []float64{+3, -3} {
		q2.credit = stale
		if err := srv.Block(q2.ID); err != nil {
			t.Fatal(err)
		}
		srv.Tick() // q1 runs alone while q2 is blocked
		if err := srv.Unblock(q2.ID); err != nil {
			t.Fatal(err)
		}
		before := q2.Runner.WorkDone()
		srv.Tick()
		got := q2.Runner.WorkDone() - before
		if math.Abs(got-5) > 1 {
			t.Errorf("stale credit %+g: first quantum after unblock delivered %g U, want ~5 (fair share)", stale, got)
		}
	}
}

// TestAbortForfeitsCredit: an aborted query's accrued credit must not linger
// on the query object (nothing may ever replay it).
func TestAbortForfeitsCredit(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 1})
	q := srv.NewQuery("q", "", 0, prepare(t, db, "t1", 50))
	srv.Submit(q)
	srv.Tick()
	q.credit = 4
	if err := srv.Abort(q.ID); err != nil {
		t.Fatal(err)
	}
	if q.credit != 0 {
		t.Errorf("aborted query keeps credit %g, want 0", q.credit)
	}
}

// TestMidQuantumArrival is the regression test for arrivals due strictly
// inside a quantum: an arrival at now + 0.5×Quantum must be submitted at its
// arrival time (not the next tick boundary) and served for the remainder of
// the quantum. The old Tick submitted it one full quantum later with a
// skewed SubmitTime.
func TestMidQuantumArrival(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 1})
	q := srv.NewQuery("q", "", 0, prepare(t, db, "t1", 100))
	srv.ScheduleArrival(0.5, q)
	if q.Status != StatusScheduled {
		t.Fatalf("pending arrival status = %v, want scheduled", q.Status)
	}
	if got, ok := srv.Lookup(q.ID); !ok || got != q {
		t.Fatal("scheduled arrivals must be discoverable via Lookup")
	}
	srv.Tick()
	if q.Status != StatusRunning {
		t.Fatalf("mid-quantum arrival not admitted within the quantum: %v", q.Status)
	}
	if q.SubmitTime != 0.5 || q.StartTime != 0.5 {
		t.Errorf("submit/start = %g/%g, want 0.5/0.5 (true arrival time)", q.SubmitTime, q.StartTime)
	}
	// Present for half the quantum at full capacity: ~10 U/s × 0.5 s.
	if got := q.Runner.WorkDone(); math.Abs(got-5) > 1 {
		t.Errorf("first-quantum work = %g U, want ~5 (prorated service)", got)
	}
}

// TestMidQuantumArrivalSharesSegment: a query already running keeps the full
// rate until the arrival, then shares it — the arrival must not dilute the
// part of the quantum before it existed.
func TestMidQuantumArrivalSharesSegment(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 1})
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "t1", 100))
	late := srv.NewQuery("late", "", 0, prepare(t, db, "t2", 100))
	srv.Submit(q1)
	srv.ScheduleArrival(0.5, late)
	srv.Tick()
	// q1: 10 U/s alone for 0.5 s + 5 U/s shared for 0.5 s = ~7.5 U.
	if got := q1.Runner.WorkDone(); math.Abs(got-7.5) > 1.5 {
		t.Errorf("q1 work = %g U, want ~7.5", got)
	}
	if got := late.Runner.WorkDone(); math.Abs(got-2.5) > 1.5 {
		t.Errorf("late work = %g U, want ~2.5", got)
	}
}

// TestSnapshotStatesMatchLive: the PI views derived from a Snapshot must be
// byte-for-byte the ones the live server reports — the serving layer's
// lock-free read path computes estimates from the snapshot alone, so any
// divergence here would make polled estimates drift from owner-side ones.
func TestSnapshotStatesMatchLive(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 0.5, MPL: 2, Weights: map[int]float64{0: 1, 2: 3}})
	a := srv.NewQuery("a", "", 0, prepare(t, db, "sa", 10))
	b := srv.NewQuery("b", "", 2, prepare(t, db, "sb", 20))
	c := srv.NewQuery("c", "", 0, prepare(t, db, "sc", 30)) // queued behind MPL=2
	srv.Submit(a)
	srv.Submit(b)
	srv.Submit(c)
	srv.Tick()
	srv.Tick()
	if err := srv.Block(a.ID); err != nil {
		t.Fatal(err)
	}

	snap := srv.Snapshot()
	if snap.Quantum != 0.5 {
		t.Errorf("snapshot quantum = %g, want 0.5", snap.Quantum)
	}
	wantRun, gotRun := srv.StateRunning(), snap.StatesRunning()
	if len(gotRun) != len(wantRun) {
		t.Fatalf("running states: %d, want %d", len(gotRun), len(wantRun))
	}
	for i := range wantRun {
		if gotRun[i] != wantRun[i] {
			t.Errorf("running[%d] = %+v, want %+v", i, gotRun[i], wantRun[i])
		}
	}
	wantQ, gotQ := srv.StateQueued(), snap.StatesQueued()
	if len(gotQ) != len(wantQ) {
		t.Fatalf("queued states: %d, want %d", len(gotQ), len(wantQ))
	}
	for i := range wantQ {
		if gotQ[i] != wantQ[i] {
			t.Errorf("queued[%d] = %+v, want %+v", i, gotQ[i], wantQ[i])
		}
	}
	// Blocked query carries weight 0 in both views.
	for _, st := range gotRun {
		if st.ID == a.ID && st.Weight != 0 {
			t.Errorf("blocked query weight = %g, want 0", st.Weight)
		}
	}
	speeds := snap.Speeds()
	for _, q := range srv.Running() {
		if speeds[q.ID] != q.ObservedSpeed() {
			t.Errorf("speed[%d] = %g, want %g", q.ID, speeds[q.ID], q.ObservedSpeed())
		}
	}
	// Lookup finds queries in every lifecycle bucket.
	for _, id := range []int{a.ID, b.ID, c.ID} {
		info, ok := snap.Lookup(id)
		if !ok || info.ID != id {
			t.Errorf("snapshot Lookup(%d) = %+v, %v", id, info, ok)
		}
	}
	if _, ok := snap.Lookup(999); ok {
		t.Error("snapshot Lookup(999) found a ghost")
	}
	// Locate adds the position in Running ++ Queued — where the states above
	// put the query, so where an estimate computed from them is — and -1 once
	// a query is in neither.
	states := append(gotRun, gotQ...)
	for i, st := range states {
		if info, pos, ok := snap.Locate(st.ID); !ok || info.ID != st.ID || pos != i {
			t.Errorf("snapshot Locate(%d) = q%d at %d, %v; want position %d", st.ID, info.ID, pos, ok, i)
		}
	}
	if err := srv.Abort(c.ID); err != nil {
		t.Fatal(err)
	}
	late := srv.NewQuery("late", "", 0, prepare(t, db, "sd", 5))
	srv.ScheduleArrival(srv.Now()+10, late)
	snap = srv.Snapshot()
	for _, id := range []int{c.ID, late.ID} {
		if info, pos, ok := snap.Locate(id); !ok || info.ID != id || pos != -1 {
			t.Errorf("snapshot Locate(%d) = q%d at %d, %v; want found at -1", id, info.ID, pos, ok)
		}
	}
}

// TestSnapshotDoneIsImmutableSharedPrefix: every snapshot's Done is a view of
// one append-only history, so a snapshot held across later terminations must
// keep its length and content, must not be reachable by an append through a
// newer view, and must be readable by other goroutines while the owner keeps
// terminating queries and snapshotting (run under -race).
func TestSnapshotDoneIsImmutableSharedPrefix(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 0.5, MPL: 2})
	r := prepare(t, db, "t1", 4)
	const n = 40
	for i := 0; i < n; i++ {
		if i > 0 {
			var err error
			if r, err = db.Prepare("SELECT SUM(a) FROM t1"); err != nil {
				t.Fatal(err)
			}
		}
		srv.Submit(srv.NewQuery("q", "", 0, r))
	}
	for id := 1; id <= 5; id++ {
		if err := srv.Abort(id); err != nil {
			t.Fatal(err)
		}
	}
	held := srv.Snapshot()
	want := append([]QueryInfo(nil), held.Done...)
	if len(want) != 5 || cap(held.Done) != len(held.Done) {
		t.Fatalf("held Done: len %d cap %d, want 5 and 5", len(held.Done), cap(held.Done))
	}

	// Readers walk the held snapshot while the owner goroutine (this one)
	// terminates the rest, by abort and by running them to completion.
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for i, q := range held.Done {
					if q != want[i] {
						t.Errorf("held Done[%d] changed: %+v, was %+v", i, q, want[i])
						return
					}
				}
			}
		}()
	}
	var last Snapshot
	for id := 6; id <= 20; id++ {
		if err := srv.Abort(id); err != nil {
			t.Fatal(err)
		}
		last = srv.Snapshot()
	}
	srv.RunUntilIdle(1e6)
	last = srv.Snapshot()
	close(done)
	wg.Wait()

	if len(last.Done) != n || len(last.Running)+len(last.Queued) != 0 {
		t.Fatalf("final snapshot: %d done, %d running, %d queued", len(last.Done), len(last.Running), len(last.Queued))
	}
	if len(held.Done) != len(want) {
		t.Fatalf("held Done grew to %d", len(held.Done))
	}
	for i := range want {
		if held.Done[i] != want[i] || last.Done[i] != want[i] {
			t.Fatalf("Done[%d]: held %+v, latest %+v, was %+v", i, held.Done[i], last.Done[i], want[i])
		}
	}
	// The live queries' infos in Done are final: they match a fresh capture.
	for _, info := range last.Done {
		q, ok := srv.Lookup(info.ID)
		if !ok || srv.InfoOf(q) != info {
			t.Fatalf("Done entry of query %d is stale: %+v, live %+v", info.ID, info, q)
		}
	}
	// Appending through a view must copy, not write into the shared history.
	grown := append(held.Done, QueryInfo{ID: -1})
	if got := srv.Snapshot().Done[len(want)]; got.ID == -1 || grown[len(want)].ID != -1 {
		t.Fatal("append through a snapshot's Done wrote into the shared history")
	}
}

// TestSnapshotQueueSharedTail: a snapshot's Queued and StatesQueued are views
// of the server's one capture of the admission queue, which every control that
// touches the queue keeps in step with it. After each control a new snapshot
// must equal a fresh capture of every queued query, and every snapshot taken
// before it must still hold exactly what it was given.
func TestSnapshotQueueSharedTail(t *testing.T) {
	db := engine.Open()
	srv := newServer(Config{RateC: 10, Quantum: 0.5, MPL: 2, Weights: map[int]float64{0: 1, 2: 3}})
	type held struct {
		step   string
		snap   Snapshot
		infos  []QueryInfo
		states []core.QueryState
	}
	var history []held
	check := func(step string) {
		t.Helper()
		snap := srv.Snapshot()
		var want []QueryInfo
		for _, q := range srv.Queued() {
			want = append(want, srv.InfoOf(q))
		}
		if !slices.Equal(snap.Queued, want) {
			t.Errorf("%s: Queued = %+v, want a fresh capture %+v", step, snap.Queued, want)
		}
		if got, want := snap.StatesQueued(), srv.StateQueued(); !slices.Equal(got, want) {
			t.Errorf("%s: StatesQueued = %+v, want %+v", step, got, want)
		}
		if cap(snap.Queued) != len(snap.Queued) || cap(snap.StatesQueued()) != len(snap.StatesQueued()) {
			t.Errorf("%s: the queue views are not capped at their length", step)
		}
		for _, h := range history {
			if !slices.Equal(h.snap.Queued, h.infos) || !slices.Equal(h.snap.StatesQueued(), h.states) {
				t.Errorf("%s: the snapshot taken after %q changed", step, h.step)
			}
		}
		history = append(history, held{step, snap, slices.Clone(snap.Queued), slices.Clone(snap.StatesQueued())})
	}
	submit := func(name string, pages int) *Query {
		q := srv.NewQuery(name, "", 0, prepare(t, db, name, pages))
		srv.Submit(q)
		return q
	}

	a := submit("a", 3) // 4 U: finishes in the second tick
	b := submit("b", 40)
	check("two admissions")
	c := submit("c", 30)
	d := submit("d", 30)
	submit("e", 30)
	check("submits that queue")
	if err := srv.SetPriority(d.ID, 2); err != nil {
		t.Fatal(err)
	}
	check("a priority change in the queue")
	if err := srv.Abort(c.ID); err != nil {
		t.Fatal(err)
	}
	check("an abort in the queue")
	f := srv.NewQuery("f", "", 0, prepare(t, db, "f", 30))
	srv.ScheduleArrival(srv.Now()+0.25, f)
	check("an arrival scheduled")
	srv.Tick()
	if f.Status != StatusQueued || a.Status != StatusRunning {
		t.Fatalf("after one tick: f %s, a %s; want f queued behind a running a", f.Status, a.Status)
	}
	check("an arrival landing in a full system")
	if err := srv.Block(b.ID); err != nil {
		t.Fatal(err)
	}
	check("a block ahead of the queue's head")
	if err := srv.Unblock(b.ID); err != nil {
		t.Fatal(err)
	}
	check("an unblock ahead of the queue's head")
	srv.Tick()
	if a.Status != StatusFinished || d.Status != StatusRunning {
		t.Fatalf("after two ticks: a %s, d %s; want a finished and d admitted in its slot", a.Status, d.Status)
	}
	check("an admission on a finish")
	if err := srv.Abort(b.ID); err != nil {
		t.Fatal(err)
	}
	check("an admission on an abort of a running query")

	// An append through an old snapshot's view copies: the next query queued
	// lands in the server's capture, not the holder's entry.
	grown := append(history[2].snap.Queued, QueryInfo{ID: -1})
	submit("g", 30)
	submit("h", 30)
	check("submits after an append through an old view")
	if grown[len(grown)-1].ID != -1 {
		t.Fatal("the holder's appended entry was overwritten")
	}
}
