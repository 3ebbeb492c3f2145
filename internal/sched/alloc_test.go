package sched

import (
	"fmt"
	"testing"
)

// TestTickSteadyStateAllocs pins the zero-allocation steady-state tick: once a
// server is warm — scratch slices at their high-water mark, tracker rings
// pre-sized, the worker pool started — Tick must not allocate at all while no
// query finishes and nothing is admitted. The committed BENCH_tickpath.json
// baseline records the same property; `make bench-check` compares against it.
func TestTickSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	db := benchDB(t)
	for _, mpl := range []int{4, 16} {
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
