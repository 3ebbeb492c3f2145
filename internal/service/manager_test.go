package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mqpi/internal/engine"
	"mqpi/internal/engine/types"
	"mqpi/internal/sched"
	"mqpi/internal/wm"
)

// loadTable populates a fresh table of `pages` heap pages (64 rows each)
// directly through the catalog. Call it only before New or after Close.
func loadTable(t testing.TB, db *engine.DB, name string, pages int) {
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
}

// manual returns a manager in manual-clock mode (no wall ticker): virtual
// time moves only through Advance, making tests deterministic.
func manual(t testing.TB, db *engine.DB, sc sched.Config) *Manager {
	t.Helper()
	m := New(db, Config{Sched: sc, TickEvery: -1})
	t.Cleanup(m.Close)
	return m
}

func TestSubmitRunFinish(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "t1", 10)
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5})

	view, err := m.Submit(SubmitRequest{Label: "q1", SQL: "SELECT SUM(a) FROM t1"})
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != "running" || view.ID <= 0 {
		t.Fatalf("initial view = %+v", view)
	}
	// 11 U at 10 U/s: after 0.5s the query is ~5/11 done.
	if err := m.Advance(0.5); err != nil {
		t.Fatal(err)
	}
	p, err := m.Progress(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Done < 4 || p.Done > 6 {
		t.Errorf("done after one tick = %g U, want ~5", p.Done)
	}
	if eta := float64(p.MultiETA); eta < 0.3 || eta > 1.0 {
		t.Errorf("multi-query ETA = %g, want ~0.6", eta)
	}
	if err := m.Advance(5); err != nil {
		t.Fatal(err)
	}
	p, err = m.Progress(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Status != "finished" || p.Fraction != 1 {
		t.Errorf("final view = %+v", p)
	}
	ov, err := m.Overview()
	if err != nil {
		t.Fatal(err)
	}
	if len(ov.Finished) != 1 || len(ov.Running) != 0 {
		t.Errorf("overview: %d finished, %d running", len(ov.Finished), len(ov.Running))
	}
}

func TestEstimatesReviseOnBlock(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "a", 20)
	loadTable(t, db, "b", 20)
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5})

	v1, err := m.Submit(SubmitRequest{Label: "a", SQL: "SELECT SUM(a) FROM a"})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := m.Submit(SubmitRequest{Label: "b", SQL: "SELECT SUM(a) FROM b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(1); err != nil {
		t.Fatal(err)
	}
	before, _ := m.Progress(v1.ID)
	// Blocking the competitor must roughly halve q1's multi-query ETA.
	if err := m.Block(v2.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(0.5); err != nil {
		t.Fatal(err)
	}
	after, _ := m.Progress(v1.ID)
	if float64(after.MultiETA) > 0.7*float64(before.MultiETA) {
		t.Errorf("ETA did not drop after blocking competitor: %g -> %g", before.MultiETA, after.MultiETA)
	}
	// The revision must be visible in the event trace.
	revised := false
	for _, e := range m.Events(v1.ID) {
		if e.Type == EventRevised {
			revised = true
		}
	}
	if !revised {
		t.Errorf("no %s event for q1; events: %+v", EventRevised, m.Events(v1.ID))
	}
	if err := m.Unblock(v2.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(10); err != nil {
		t.Fatal(err)
	}
	p2, _ := m.Progress(v2.ID)
	if p2.Status != "finished" {
		t.Errorf("q2 = %+v", p2)
	}
}

func TestScheduledArrivalAndAbort(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "t1", 10)
	loadTable(t, db, "t2", 10)
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5})

	v1, err := m.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM t1", Delay: 1.25})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Status != "scheduled" {
		t.Fatalf("status = %s, want scheduled", v1.Status)
	}
	if b, _ := v1.MultiETA.MarshalJSON(); string(b) != "null" {
		t.Errorf("scheduled ETA marshals to %s, want null", b)
	}
	// An arrival can be aborted before it enters the system.
	v2, err := m.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM t2", Delay: 2})
	if err != nil {
		t.Fatal(err)
	}
	scheduled := func(n int) bool {
		return strings.Contains(m.Metrics().Text(), fmt.Sprintf("\nmqpi_queries_scheduled %d\n", n))
	}
	if !scheduled(2) {
		t.Error("two arrivals on the calendar, mqpi_queries_scheduled is not 2")
	}
	if err := m.Abort(v2.ID); err != nil {
		t.Fatal(err)
	}
	// The abort takes the arrival off the calendar and out of the manager's
	// books at once; no later tick has anything left to reconcile for it.
	if !scheduled(1) {
		t.Error("one of two scheduled arrivals aborted, mqpi_queries_scheduled is not 1")
	}
	// A tick must exist for the clock to move past the arrival: 1.25 lands
	// mid-quantum and the segmented Tick submits it there.
	if err := m.Advance(1.5); err != nil {
		t.Fatal(err)
	}
	p, err := m.Progress(v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Status != "running" || p.SubmitTime != 1.25 || p.StartTime != 1.25 {
		t.Errorf("arrival view = %+v", p)
	}
	if p2, _ := m.Progress(v2.ID); p2.Status != "aborted" {
		t.Errorf("aborted arrival = %+v", p2)
	}
	// Ticks past its arrival time and all, the aborted arrival's whole life is
	// two events.
	if err := m.Advance(1); err != nil {
		t.Fatal(err)
	}
	if got, want := eventTypes(m, v2.ID), []string{EventScheduled, EventAborted}; !slices.Equal(got, want) {
		t.Errorf("aborted arrival's events = %v, want %v", got, want)
	}
	if !scheduled(0) {
		t.Error("the other arrival arrived, mqpi_queries_scheduled is not 0")
	}
}

func TestUnknownQueryAndBadSQL(t *testing.T) {
	db := engine.Open()
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5})
	if _, err := m.Progress(999); !errors.Is(err, ErrNotFound) {
		t.Errorf("Progress(999) = %v, want ErrNotFound", err)
	}
	if err := m.Block(999); err == nil {
		t.Error("Block(999) succeeded")
	}
	if _, err := m.Submit(SubmitRequest{SQL: "SELECT FROM WHERE"}); err == nil {
		t.Error("bad SQL accepted")
	}
}

func TestCloseSemantics(t *testing.T) {
	db := engine.Open()
	m := New(db, Config{Sched: sched.Config{RateC: 10, Quantum: 0.5}, TickEvery: -1})
	m.Close()
	m.Close() // idempotent
	if _, err := m.Overview(); !errors.Is(err, ErrClosed) {
		t.Errorf("Overview after Close = %v, want ErrClosed", err)
	}
	if _, err := m.Submit(SubmitRequest{SQL: "SELECT 1"}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestEventRingBounded(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "t1", 40)
	loadTable(t, db, "t2", 40)
	m := New(db, Config{
		Sched:     sched.Config{RateC: 10, Quantum: 0.25},
		TickEvery: -1,
		EventCap:  8,
	})
	t.Cleanup(m.Close)
	v1, err := m.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM t1"})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := m.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM t2"})
	if err != nil {
		t.Fatal(err)
	}
	// One quantum per Advance, blocking and unblocking the competitor in
	// turn: each change of its share moves q1's predicted finish by more
	// than a quantum, so q1's prediction revises on every step.
	for i := 0; i < 16; i++ {
		if err := m.Advance(0.25); err != nil {
			t.Fatal(err)
		}
		toggle := m.Block
		if i%2 == 1 {
			toggle = m.Unblock
		}
		if err := toggle(v2.ID); err != nil {
			t.Fatal(err)
		}
	}
	evs := m.Events(v1.ID)
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want exactly cap=8", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Errorf("events out of order: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
	// Oldest entries (submitted/admitted) must have been evicted by revisions.
	if evs[0].Type == EventSubmitted {
		t.Errorf("oldest retained event is still %q; ring did not wrap", evs[0].Type)
	}
}

func TestMetricsTextParses(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "t1", 10)
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5})
	v, err := m.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM t1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Block(v.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Unblock(v.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(5); err != nil {
		t.Fatal(err)
	}
	text := m.Metrics().Text()
	assertPrometheusText(t, text)
	for _, want := range []string{
		"mqpi_queries_submitted_total 1",
		"mqpi_queries_finished_total 1",
		"mqpi_queries_blocked_total 1",
		"mqpi_queries_unblocked_total 1",
		"mqpi_queries_running 0",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// samples parses the unlabelled "name value" lines of a text exposition.
func samples(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// assertPrometheusText validates the text exposition format: every
// non-comment line is `name{labels} value`, histograms have monotone
// cumulative buckets ending at +Inf, and _count matches the +Inf bucket.
func assertPrometheusText(t *testing.T, text string) {
	t.Helper()
	infBucket := make(map[string]uint64)
	lastBucket := make(map[string]uint64)
	counts := make(map[string]uint64)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("bad comment line %q", line)
			continue
		}
		var name string
		var value float64
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.IndexByte(line, '}')
			if j < i {
				t.Fatalf("unbalanced labels in %q", line)
			}
			name = line[:i]
			if _, err := fmt.Sscanf(line[j+1:], "%g", &value); err != nil && !strings.Contains(line, "+Inf") {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			label := line[i+1 : j]
			if strings.HasSuffix(name, "_bucket") {
				base := strings.TrimSuffix(name, "_bucket")
				if _, err := fmt.Sscanf(line[j+2:], "%g", &value); err != nil {
					t.Fatalf("bad bucket value in %q: %v", line, err)
				}
				if uint64(value) < lastBucket[base] {
					t.Errorf("bucket %q not cumulative: %g < %d", line, value, lastBucket[base])
				}
				lastBucket[base] = uint64(value)
				if label == `le="+Inf"` {
					infBucket[base] = uint64(value)
				}
			}
			continue
		}
		if n, err := fmt.Sscanf(line, "%s %g", &name, &value); n != 2 || err != nil {
			t.Fatalf("unparseable line %q: %v", line, err)
		}
		if strings.HasSuffix(name, "_count") {
			counts[strings.TrimSuffix(name, "_count")] = uint64(value)
		}
	}
	if len(infBucket) == 0 {
		t.Error("no histograms found")
	}
	for base, inf := range infBucket {
		if counts[base] != inf {
			t.Errorf("%s_count = %d but +Inf bucket = %d", base, counts[base], inf)
		}
	}
}

func TestPlannersThroughManager(t *testing.T) {
	db := engine.Open()
	for i, pages := range []int{10, 20, 30} {
		loadTable(t, db, fmt.Sprintf("p%d", i), pages)
	}
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5})
	var ids []int
	for i := range 3 {
		v, err := m.Submit(SubmitRequest{SQL: fmt.Sprintf("SELECT SUM(a) FROM p%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	if err := m.Advance(1); err != nil {
		t.Fatal(err)
	}
	victims, err := m.SpeedUpSingle(ids[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 1 || victims[0].ID == ids[0] {
		t.Errorf("SpeedUpSingle victims = %+v", victims)
	}
	if _, err := m.SpeedUpOthers(); err != nil {
		t.Fatal(err)
	}
	plan, err := m.PlanMaintenance(2, wm.Case2TotalCost, false)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Quiescent > 2+1e-9 && len(plan.Abort) == 0 {
		t.Errorf("plan misses deadline with no aborts: %+v", plan)
	}
	s, err := m.Diagram(60)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "Q") {
		t.Errorf("diagram has no queries:\n%s", s)
	}
}

// TestConcurrentClients is the -race workhorse: a live wall ticker at a high
// time scale while many goroutines submit, poll, block, unblock, abort, and
// scrape metrics simultaneously.
func TestConcurrentClients(t *testing.T) {
	db := engine.Open()
	for i := 0; i < 6; i++ {
		loadTable(t, db, fmt.Sprintf("c%d", i), 8)
	}
	m := New(db, Config{
		Sched:     sched.Config{RateC: 20, Quantum: 0.25, MPL: 4},
		TickEvery: time.Millisecond,
		TimeScale: 500, // 0.5 virtual seconds per wall ms: finishes fast
	})
	defer m.Close()

	var wg sync.WaitGroup
	ids := make(chan int, 64)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				v, err := m.Submit(SubmitRequest{
					Label:    fmt.Sprintf("c%d-%d", i, k),
					SQL:      fmt.Sprintf("SELECT SUM(a) FROM c%d", i),
					Priority: i % 3,
					Delay:    float64(k) * 0.1,
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids <- v.ID
			}
		}(i)
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case id := <-ids:
					if _, err := m.Progress(id); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("progress: %v", err)
					}
					switch id % 4 {
					case 0:
						_ = m.Block(id) // may fail if already finished: fine
						_ = m.Unblock(id)
					case 1:
						_ = m.Abort(id)
					case 2:
						_ = m.SetPriority(id, 2)
					}
					_ = m.Metrics().Text()
					m.Events(0)
					if _, err := m.Overview(); err != nil {
						t.Errorf("overview: %v", err)
					}
				}
			}
		}(w)
	}

	// Wait for the scheduler to drain everything that wasn't aborted.
	deadline := time.After(20 * time.Second)
	for {
		ov, err := m.Overview()
		if err != nil {
			t.Fatal(err)
		}
		if len(ov.Running) == 0 && len(ov.Queued) == 0 && len(ov.Scheduled) == 0 && len(ov.Finished) > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("workload did not drain: %d running, %d queued, %d scheduled",
				len(ov.Running), len(ov.Queued), len(ov.Scheduled))
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(done)
	wg.Wait()

	text := m.Metrics().Text()
	assertPrometheusText(t, text)
	if !strings.Contains(text, "mqpi_queries_submitted_total 24") {
		t.Errorf("expected 24 submissions:\n%s", text)
	}
}

func TestAdvanceValidation(t *testing.T) {
	db := engine.Open()
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5})
	for _, bad := range []float64{0, -1, math.NaN(), 2e9} {
		if err := m.Advance(bad); err == nil {
			t.Errorf("Advance(%g) accepted", bad)
		}
	}
}

// TestIdleClockFrozen: with nothing to run, wall ticks must not move the
// virtual clock (a quiet service does not spin the scheduler).
func TestIdleClockFrozen(t *testing.T) {
	db := engine.Open()
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5})
	if err := m.Advance(100); err != nil {
		t.Fatal(err)
	}
	ov, err := m.Overview()
	if err != nil {
		t.Fatal(err)
	}
	if ov.Now != 0 {
		t.Errorf("idle clock moved to %g", ov.Now)
	}
}

// TestReadsBypassOwner pins the tentpole invariant: Progress, Overview,
// Diagram, the §3 planners, Events, and metrics scrapes perform zero sends on
// the owner-goroutine channel. First by counting owner requests across a
// burst of reads, then behaviorally: with the owner goroutine wedged on a
// slow request, every read still completes.
func TestReadsBypassOwner(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "t1", 10)
	loadTable(t, db, "t2", 20)
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5})
	v1, err := m.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM t1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM t2"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(1); err != nil {
		t.Fatal(err)
	}

	before := m.snap.Load().counts.ownerRequests
	if _, err := m.Progress(v1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Overview(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Diagram(40); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SpeedUpSingle(v1.ID, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SpeedUpOthers(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PlanMaintenance(10, wm.Case2TotalCost, false); err != nil {
		t.Fatal(err)
	}
	m.Events(0)
	_ = m.Metrics().Text()
	if after := m.snap.Load().counts.ownerRequests; after != before {
		t.Fatalf("reads sent %d request(s) to the owner goroutine, want 0", after-before)
	}

	// Behavioral proof: wedge the owner, reads must not care.
	gate := make(chan struct{})
	defer close(gate) // un-wedge before Cleanup's m.Close even if we fail below
	started := make(chan struct{})
	go func() { _ = m.call(func() { close(started); <-gate }) }()
	<-started
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := m.Progress(v1.ID); err != nil {
			t.Errorf("progress with wedged owner: %v", err)
		}
		if _, err := m.Overview(); err != nil {
			t.Errorf("overview with wedged owner: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("read path blocked behind the owner goroutine")
	}
}

// TestFirstPollAllocatesLikeTheHundredth pins that no poll pays for its epoch:
// the estimates arrive with the snapshot, so the first Progress after an epoch
// bump allocates no more than the hundredth.
func TestFirstPollAllocatesLikeTheHundredth(t *testing.T) {
	db := engine.Open()
	var id int
	for i := 0; i < 8; i++ {
		loadTable(t, db, fmt.Sprintf("a%d", i), 40)
	}
	m := manual(t, db, sched.Config{RateC: 4, Quantum: 0.5})
	for i := 0; i < 8; i++ {
		v, err := m.Submit(SubmitRequest{SQL: fmt.Sprintf("SELECT SUM(a) FROM a%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		id = v.ID
	}
	// AllocsPerRun warms up with one unmeasured call; skipping the poll in it
	// leaves exactly one measured Progress.
	pollAllocs := func() float64 {
		warmup := true
		return testing.AllocsPerRun(1, func() {
			if warmup {
				warmup = false
				return
			}
			if _, err := m.Progress(id); err != nil {
				t.Error(err)
			}
		})
	}
	for epoch := 0; epoch < 3; epoch++ {
		if err := m.Advance(0.5); err != nil {
			t.Fatal(err)
		}
		first := pollAllocs()
		for i := 0; i < 98; i++ {
			if _, err := m.Progress(id); err != nil {
				t.Fatal(err)
			}
		}
		if hundredth := pollAllocs(); first > hundredth {
			t.Fatalf("first poll of the epoch allocated %v times, the hundredth %v", first, hundredth)
		}
	}
}

// TestSubmitDelayValidation: a negative delay is not "now", and a non-finite
// one would park the query in the arrival calendar forever with the server
// stuck busy. Both are refused before anything reaches the owner.
func TestSubmitDelayValidation(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "t1", 10)
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5})
	for _, bad := range []float64{-5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := m.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM t1", Delay: bad}); err == nil {
			t.Errorf("Submit with delay %g accepted", bad)
		}
	}
	if requests := m.snap.Load().counts.ownerRequests; requests != 0 {
		t.Errorf("%d refused submissions reached the owner", requests)
	}
	ov, err := m.Overview()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ov.Running) + len(ov.Queued) + len(ov.Scheduled); n != 0 {
		t.Fatalf("%d refused submissions entered the system", n)
	}
	if v, err := m.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM t1", Delay: 2}); err != nil || v.Status != "scheduled" {
		t.Fatalf("valid delay: view %+v, err %v", v, err)
	}
}

// TestOverviewCarriesEpoch: every mutation publishes a fresh snapshot, and
// the overview reports which epoch it was derived from.
func TestOverviewCarriesEpoch(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "t1", 10)
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5})
	ov1, err := m.Overview()
	if err != nil {
		t.Fatal(err)
	}
	if ov1.Epoch == 0 {
		t.Fatal("initial snapshot has epoch 0; New must publish before serving reads")
	}
	if _, err := m.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM t1"}); err != nil {
		t.Fatal(err)
	}
	ov2, err := m.Overview()
	if err != nil {
		t.Fatal(err)
	}
	if ov2.Epoch <= ov1.Epoch {
		t.Errorf("epoch did not advance across a mutation: %d -> %d", ov1.Epoch, ov2.Epoch)
	}
	if len(ov2.Running) != 1 {
		t.Errorf("read-your-write failed: submit not visible in next overview: %+v", ov2)
	}
}

// TestProgressCarriesNow pins the virtual-clock stamp on the poll path: a
// single-query view must carry the scheduler's current time so a client can
// audit predictions (predicted finish = now + ETA) against the actual finish
// time later. Views embedded in an Overview omit the per-view stamp in favor
// of the overview's own Now.
func TestProgressCarriesNow(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "t1", 10)
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5})

	view, err := m.Submit(SubmitRequest{Label: "q1", SQL: "SELECT SUM(a) FROM t1"})
	if err != nil {
		t.Fatal(err)
	}
	// The submit-time view is stamped at the submission instant.
	if float64(view.Now) != 0 {
		t.Errorf("submit view now = %g, want 0", float64(view.Now))
	}
	if err := m.Advance(0.5); err != nil {
		t.Fatal(err)
	}
	p, err := m.Progress(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if float64(p.Now) != 0.5 {
		t.Errorf("poll view now = %g, want 0.5", float64(p.Now))
	}
	// now + ETA should predict a finish consistent with the actual one.
	predicted := float64(p.Now) + float64(p.MultiETA)
	if err := m.Advance(5); err != nil {
		t.Fatal(err)
	}
	final, err := m.Progress(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != "finished" {
		t.Fatalf("status = %s", final.Status)
	}
	actual := float64(final.FinishTime)
	if math.Abs(predicted-actual) > 0.25*actual+0.25 {
		t.Errorf("predicted finish %g vs actual %g", predicted, actual)
	}

	ov, err := m.Overview()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(ov.Finished[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"now"`) {
		t.Errorf("overview-embedded view carries its own now: %s", b)
	}
}
