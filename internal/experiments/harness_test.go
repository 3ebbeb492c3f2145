package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"mqpi/internal/cluster"
	"mqpi/internal/sched"
	"mqpi/internal/service"
)

// TestSpeedupReleasesExecutePools: every scenario replay starts a scheduler
// whose execute pool (Workers-1 goroutines) is created lazily on the first
// parallel tick, so it must be released after the replay has run, not before.
// The cell harness owns that Close; a run must leave no goroutine behind.
func TestSpeedupReleasesExecutePools(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := RunSpeedup(Common{Seed: 3, Runs: 3, Workers: 4, Parallel: 1, Data: smallData}); err != nil {
		t.Fatal(err)
	}
	// A closed pool's workers exit on their own; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("RunSpeedup left %d goroutines behind (before %d, after %d)",
				runtime.NumGoroutine()-before, before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTierDrainBoundIsAnError: a tier that never goes idle — here a query
// blocked and never unblocked — must fail the drain with an error naming the
// cell and the step bound, not fall out of the loop and report a misleading
// "finished k of n".
func TestTierDrainBoundIsAnError(t *testing.T) {
	tr, _, err := ladderTier(Common{Seed: 1}, 0, "stuck cell", cluster.Config{
		Service: service.Config{Sched: sched.Config{RateC: 10, Quantum: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.close()
	for i := 0; i < 2; i++ {
		if _, err := tr.submit(0, ladderScan(i, 2, 0), ""); err != nil {
			t.Fatal(err)
		}
	}
	_, err = tr.drain([]tierAction{{at: 0, target: 1}}, nil)
	if err == nil {
		t.Fatal("drain of a tier with a never-unblocked query returned no error")
	}
	for _, want := range []string{"stuck cell", "did not drain in 40000 steps", "1 of 2 queries finished"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("drain error %q does not contain %q", err, want)
		}
	}
}

// TestRegistryReports runs every registry entry once at a reduced size and
// checks what the CLI relies on: each report prints something, and figure
// names — they become CSV file names and JSON record names — are non-empty
// and unique across the whole battery, so no figure overwrites another.
func TestRegistryReports(t *testing.T) {
	seen := make(map[string]string) // figure name -> experiment
	for _, e := range All() {
		rep, err := e.Run(Common{Seed: 3, Runs: 2, Data: smallData})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(rep.Parts) == 0 {
			t.Errorf("%s: empty report", e.Name)
		}
		for _, p := range rep.Parts {
			switch {
			case p.Fig == nil && p.Text == "":
				t.Errorf("%s: a report part with neither text nor figure", e.Name)
			case p.Fig != nil && p.Name == "":
				t.Errorf("%s: unnamed figure %q", e.Name, p.Fig.Title)
			case p.Fig != nil && seen[p.Name] != "":
				t.Errorf("%s: figure name %q already used by %s", e.Name, p.Name, seen[p.Name])
			case p.Fig != nil:
				seen[p.Name] = e.Name
			}
		}
	}
}
