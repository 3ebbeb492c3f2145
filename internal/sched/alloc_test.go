package sched

import (
	"fmt"
	"testing"
)

// TestTickSteadyStateAllocs pins the zero-allocation steady-state tick: once a
// server is warm — scratch slices at their high-water mark, tracker rings
// pre-sized, the worker pool started — Tick must not allocate at all while no
// query finishes and nothing is admitted, at every MPL BenchmarkParallelTick
// times. Under -race it skips, so `make ci` also runs it without the detector.
func TestTickSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	db := benchDB(t)
	for _, mpl := range []int{1, 4, 16} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("mpl%d/workers%d", mpl, workers), func(t *testing.T) {
				// ~4 pages per query per tick against a 2048-page scan: the
				// warm queries are nowhere near finishing during measurement,
				// so every timed Tick is the steady-state path (allocate,
				// execute, settle, observe — no retirement, no admission).
				srv := New(Config{
					RateC:   4 * float64(mpl),
					Quantum: 1,
					Workers: workers,
				})
				defer srv.Close()
				for i := 0; i < mpl; i++ {
					r, err := db.Prepare("SELECT SUM(a) FROM big")
					if err != nil {
						t.Fatal(err)
					}
					r.CollectRows = false
					srv.Submit(srv.NewQuery(fmt.Sprintf("q%d", i), "", 0, r))
				}
				for i := 0; i < 3; i++ {
					srv.Tick()
				}
				avg := testing.AllocsPerRun(50, func() { srv.Tick() })
				if avg != 0 {
					t.Fatalf("steady-state Tick: %.2f allocs/op, want 0", avg)
				}
				if !srv.Busy() {
					t.Fatal("queries finished during measurement; the run did not stay in steady state")
				}
			})
		}
	}
}

// TestSharedScanSteadyStateAllocs pins the zero-allocation steady-state tick
// for N same-table scans stepped solo and folded onto one shared cursor, in
// BenchmarkSharedScan's framing: each query lives 8 ticks (2048 pages at 256
// per tick), so after one warm-up tick at most 5 more are measured and no
// member finishes. Folded ticks step the group in lockstep behind the cursor
// barrier, and that coordination must not allocate either. Under -race it
// skips, so `make ci` also runs it without the detector.
func TestSharedScanSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	db := benchDB(t)
	for _, members := range []int{1, 2, 4, 8} {
		for _, fold := range []bool{false, true} {
			mode := "solo"
			if fold {
				mode = "fold"
			}
			t.Run(fmt.Sprintf("members%d/%s", members, mode), func(t *testing.T) {
				srv := New(Config{
					RateC:   benchPagesPerQuery * float64(members),
					Quantum: 1,
					Workers: 1,
					Fold:    fold,
				})
				defer srv.Close()
				for i := 0; i < members; i++ {
					r, err := db.Prepare("SELECT SUM(a) FROM big")
					if err != nil {
						t.Fatal(err)
					}
					r.CollectRows = false
					srv.Submit(srv.NewQuery(fmt.Sprintf("b%d", i), "", 0, r))
				}
				srv.Tick()
				// AllocsPerRun ticks once more before it measures: 5 ticks.
				if avg := testing.AllocsPerRun(4, func() { srv.Tick() }); avg != 0 {
					t.Fatalf("steady-state Tick: %.2f allocs/op, want 0", avg)
				}
				if n := len(srv.Snapshot().Running); n != members {
					t.Fatalf("%d of %d queries still running: the run did not stay in steady state", n, members)
				}
				want := 0
				if fold {
					want = members
				}
				if got := srv.FoldStats().Members; got != want {
					t.Fatalf("%d queries ride a shared cursor, want %d", got, want)
				}
			})
		}
	}
}

// TestSnapshotAllocsIndependentOfHistory pins the O(live) snapshot: with the
// same queries in the system, a server that has terminated hundreds more
// allocates exactly as much per Snapshot as one that has terminated none —
// Done is a view of the append-only history, not a copy of it.
func TestSnapshotAllocsIndependentOfHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	db := benchDB(t)
	allocs := func(history int) float64 {
		srv := New(Config{RateC: 8, Quantum: 1, MPL: 4})
		defer srv.Close()
		for i := 0; i < 8+history; i++ {
			r, err := db.Prepare("SELECT SUM(a) FROM big")
			if err != nil {
				t.Fatal(err)
			}
			srv.Submit(srv.NewQuery(fmt.Sprintf("q%d", i), "", 0, r))
		}
		for id := 9; id <= 8+history; id++ { // the queue's tail becomes history
			if err := srv.Abort(id); err != nil {
				t.Fatal(err)
			}
		}
		srv.Tick()
		if got := len(srv.Snapshot().Done); got != history {
			t.Fatalf("Done holds %d queries, want %d", got, history)
		}
		return testing.AllocsPerRun(20, func() { srv.Snapshot() })
	}
	if bare, deep := allocs(0), allocs(500); deep != bare {
		t.Fatalf("Snapshot allocates %.0f times with 500 terminated queries, %.0f with none", deep, bare)
	}
}
