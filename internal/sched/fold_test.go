package sched

import (
	"math"
	"testing"

	"mqpi/internal/engine"
	"mqpi/internal/engine/exec"
)

// runnerOn prepares another SUM(a) runner over an existing table, so several
// queries seq-scan the same relation.
func runnerOn(t testing.TB, db *engine.DB, name string) *exec.Runner {
	t.Helper()
	r, err := db.Prepare("SELECT SUM(a) FROM " + name)
	if err != nil {
		t.Fatal(err)
	}
	r.CollectRows = false
	return r
}

// foldTrace drives the server to idle and records every query's charged-work
// trajectory: WorkDone after each tick, keyed by query ID, plus finish times.
type foldTrace struct {
	work   map[int][]float64
	finish map[int]float64
	cost   map[int]float64
}

func traceToIdle(srv *Server, ids []int) foldTrace {
	tr := foldTrace{work: map[int][]float64{}, finish: map[int]float64{}, cost: map[int]float64{}}
	for srv.Busy() && !srv.Stalled() && srv.Now() < 1e6 {
		srv.Tick()
		for _, id := range ids {
			if q, ok := srv.Lookup(id); ok && q.Runner != nil {
				tr.work[id] = append(tr.work[id], q.Runner.WorkDone())
			}
		}
	}
	for _, id := range ids {
		if q, ok := srv.Lookup(id); ok {
			tr.finish[id] = q.FinishTime
			tr.cost[id] = q.Runner.CostDone()
		}
	}
	return tr
}

func sameTrajectories(t *testing.T, label string, a, b foldTrace) {
	t.Helper()
	for id, wa := range a.work {
		wb := b.work[id]
		if len(wa) != len(wb) {
			t.Fatalf("%s: query %d trajectory lengths differ: %d vs %d", label, id, len(wa), len(wb))
		}
		for i := range wa {
			if math.Float64bits(wa[i]) != math.Float64bits(wb[i]) {
				t.Fatalf("%s: query %d diverges at tick %d: %v vs %v", label, id, i, wa[i], wb[i])
			}
		}
	}
	for id, fa := range a.finish {
		if math.Float64bits(fa) != math.Float64bits(b.finish[id]) {
			t.Fatalf("%s: query %d finish differs: %v vs %v", label, id, fa, b.finish[id])
		}
	}
}

// buildFoldWorkload creates a fresh engine with one shared 20-page table and
// submits three same-priority scans of it (two at t=0, one arriving at t=1 to
// exercise attach-at-offset) plus one scan of a private table.
func buildFoldWorkload(t testing.TB, srv *Server) []int {
	db := engine.Open()
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "shared", 20))
	q2 := srv.NewQuery("q2", "", 0, runnerOn(t, db, "shared"))
	q3 := srv.NewQuery("q3", "", 0, runnerOn(t, db, "shared"))
	q4 := srv.NewQuery("q4", "", 0, prepare(t, db, "private", 10))
	srv.Submit(q1)
	srv.Submit(q2)
	srv.Submit(q4)
	srv.ScheduleArrival(1.0, q3)
	return []int{q1.ID, q2.ID, q3.ID, q4.ID}
}

// TestFoldConservation is the I11 law at the scheduler: with folding on, each
// member charges a full solo lap while the group's physical reads cover the
// relation exactly once per rotation, so Σ(done−cost) = pages saved.
func TestFoldConservation(t *testing.T) {
	srv := newServer(Config{RateC: 20, Quantum: 0.5, Fold: true})
	ids := buildFoldWorkload(t, srv)
	if !srv.Snapshot().FoldEnabled {
		t.Fatal("folding should be on")
	}
	tr := traceToIdle(srv, ids)
	var saved float64
	for _, id := range ids {
		q, _ := srv.Lookup(id)
		if q.Status != StatusFinished {
			t.Fatalf("query %d is %v", id, q.Status)
		}
		done, cost := q.Runner.WorkDone(), q.Runner.CostDone()
		if cost > done {
			t.Errorf("query %d: cost %g > done %g", id, cost, done)
		}
		saved += done - cost
	}
	st := srv.FoldStats()
	// All four attach (q4 seeds a 1-member group on its private table that
	// nothing ever joins); only the shared-table trio actually saves pages.
	if st.Attaches != 4 {
		t.Errorf("attaches = %d, want 4", st.Attaches)
	}
	if st.PagesSaved == 0 {
		t.Error("no pages saved")
	}
	// Integer page charges make the conservation law float-exact.
	if saved != float64(st.PagesSaved) {
		t.Errorf("Σ(done−cost) = %g, PagesSaved = %d", saved, st.PagesSaved)
	}
	if st.Groups != 0 || st.Members != 0 {
		t.Errorf("live groups remain after idle: %+v", st)
	}
	_ = tr
}

// TestFoldOffIdentical is the I12 law: the same workload with folding on and
// off yields bit-identical charged-work trajectories and finish times — only
// the engine-cost plane differs.
func TestFoldOffIdentical(t *testing.T) {
	on := newServer(Config{RateC: 20, Quantum: 0.5, Fold: true})
	idsOn := buildFoldWorkload(t, on)
	trOn := traceToIdle(on, idsOn)

	off := newServer(Config{RateC: 20, Quantum: 0.5})
	idsOff := buildFoldWorkload(t, off)
	trOff := traceToIdle(off, idsOff)

	if len(idsOn) != len(idsOff) {
		t.Fatal("workloads differ")
	}
	sameTrajectories(t, "fold on vs off", trOn, trOff)
	// The cost plane must actually diverge (otherwise folding did nothing).
	dropped := false
	for _, id := range idsOn {
		if trOn.cost[id] < trOff.cost[id] {
			dropped = true
		}
		if trOff.cost[id] != trOff.work[id][len(trOff.work[id])-1] {
			t.Errorf("fold off: query %d cost %g != done", id, trOff.cost[id])
		}
	}
	if !dropped {
		t.Error("folding saved no cost for any query")
	}
	if on.FoldStats().PagesSaved == 0 || off.FoldStats().PagesSaved != 0 {
		t.Errorf("fold stats: on=%+v off=%+v", on.FoldStats(), off.FoldStats())
	}
}

// TestFoldParallelDeterminism: with folding on, the parallel execute phase is
// bit-identical to serial at every worker count (a fold group is one work
// item, so its shared cursor is single-threaded by construction).
func TestFoldParallelDeterminism(t *testing.T) {
	var base foldTrace
	for i, workers := range []int{1, 2, 4} {
		srv := newServer(Config{RateC: 20, Quantum: 0.5, Fold: true, Workers: workers})
		ids := buildFoldWorkload(t, srv)
		tr := traceToIdle(srv, ids)
		srv.Close()
		if i == 0 {
			base = tr
			continue
		}
		sameTrajectories(t, "workers", base, tr)
	}
}

// TestFoldSnapshotExposure: fold membership and the cost plane surface
// through QueryInfo, Snapshot, and the core states.
func TestFoldSnapshotExposure(t *testing.T) {
	srv := newServer(Config{RateC: 4, Quantum: 0.5, Fold: true})
	db := engine.Open()
	q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "shared", 20))
	q2 := srv.NewQuery("q2", "", 0, runnerOn(t, db, "shared"))
	srv.Submit(q1)
	srv.Submit(q2)
	srv.Tick()
	snap := srv.Snapshot()
	if !snap.FoldEnabled {
		t.Fatal("snapshot should report folding on")
	}
	if snap.Fold.Groups != 1 || snap.Fold.Members != 2 {
		t.Fatalf("snapshot fold stats: %+v", snap.Fold)
	}
	if len(snap.FoldTables) != 1 || snap.FoldTables[0] != "shared" {
		t.Fatalf("fold tables: %v", snap.FoldTables)
	}
	gid := 0
	for _, info := range snap.Running {
		if info.FoldGroup == 0 {
			t.Fatalf("query %d not folded in snapshot", info.ID)
		}
		if gid == 0 {
			gid = info.FoldGroup
		} else if info.FoldGroup != gid {
			t.Fatalf("members report different groups")
		}
		if info.Cost > info.Done {
			t.Errorf("query %d: cost %g > done %g", info.ID, info.Cost, info.Done)
		}
	}
	for _, st := range srv.StateRunning() {
		if st.Fold != gid {
			t.Errorf("core state fold = %d, want %d", st.Fold, gid)
		}
	}
	for _, st := range snap.StatesRunning() {
		if st.Fold != gid {
			t.Errorf("snapshot state fold = %d, want %d", st.Fold, gid)
		}
	}
}

// TestFoldReleaseHooks: block, abort, and priority changes free the fold seat
// so the surviving members never deadlock at the cursor barrier.
func TestFoldReleaseHooks(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(srv *Server, id int) error
	}{
		{"block", func(srv *Server, id int) error { return srv.Block(id) }},
		{"abort", func(srv *Server, id int) error { return srv.Abort(id) }},
		{"reprioritize", func(srv *Server, id int) error { return srv.SetPriority(id, 5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newServer(Config{RateC: 10, Quantum: 0.5, Fold: true, Weights: map[int]float64{0: 1, 5: 2}})
			db := engine.Open()
			q1 := srv.NewQuery("q1", "", 0, prepare(t, db, "shared", 20))
			q2 := srv.NewQuery("q2", "", 0, runnerOn(t, db, "shared"))
			q3 := srv.NewQuery("q3", "", 0, runnerOn(t, db, "shared"))
			srv.Submit(q1)
			srv.Submit(q2)
			srv.Submit(q3)
			srv.Tick()
			if err := tc.op(srv, q2.ID); err != nil {
				t.Fatal(err)
			}
			if q2.Runner.FoldAttached() {
				t.Fatalf("%s left q2 attached", tc.name)
			}
			srv.RunUntilIdle(1e6)
			for _, q := range []*Query{q1, q3} {
				if q.Status != StatusFinished {
					t.Errorf("%s: query %d is %v (barrier deadlock?)", tc.name, q.ID, q.Status)
				}
			}
		})
	}
}
