package sim

import (
	"flag"
	"fmt"
	"sync"
	"testing"
)

// -seeds widens the matrix locally: `go test ./internal/sim -seeds 256`.
var seedCount = flag.Int("seeds", 32, "number of seeds in the simulation matrix")

// runAcrossWorkers runs cfg at workers 1, 2 and 4, reports every violation,
// demands byte-identical traces — the parallel execute phase may not change a
// single virtual-time outcome — and returns the workers=1 result.
func runAcrossWorkers(t *testing.T, cfg Config) *Result {
	t.Helper()
	var base *Result
	for _, w := range []int{1, 2, 4} {
		cfg.Workers = w
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for _, v := range res.Violations {
			t.Errorf("workers=%d: %s", w, v)
		}
		if base == nil {
			base = res
		} else if res.Trace != base.Trace {
			t.Errorf("workers=%d trace differs from workers=1 (lengths %d vs %d): %s",
				w, len(res.Trace), len(base.Trace), firstDiff(base.Trace, res.Trace))
		}
	}
	if base.Submitted == 0 {
		t.Error("run submitted no queries; the action stream is broken")
	}
	return base
}

// tally sums over a matrix's cells what its non-vacuity asserts need: a
// matrix in which nothing was ever aborted, planned, folded, queued or checked
// for exactness passes every invariant without testing it.
type tally struct {
	mu                              sync.Mutex
	aborted, plans, checked, voided int
	oracle, queued                  int     // states I14 checked; those of them with a non-empty admission queue
	saved                           float64 // pages the fold registry saved: Σ(done−cost)
}

func (a *tally) add(r *Result) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.aborted += r.Aborted
	a.plans += r.Plans
	a.checked += r.ExactChecked
	a.voided += r.ExactVoided
	a.oracle += r.OracleChecked
	a.queued += r.QueueChecked
	for _, q := range r.Final {
		a.saved += q.Done - q.Cost
	}
}

// assertExercised fails a matrix that aborted nothing, got no planner answer,
// never held a state with a queue, or one without, against the event-stepped
// oracle (I14), or whose stage-model exactness invariant was voided (a cost refinement
// re-anchored the model) on more than a third as many checks as it ran on.
func (a *tally) assertExercised(t *testing.T) {
	t.Helper()
	if a.aborted == 0 {
		t.Error("no cell aborted a query")
	}
	if a.plans == 0 {
		t.Error("no cell got a planner answer")
	}
	if a.queued == 0 || a.queued == a.oracle {
		t.Errorf("I14 checked %d states, %d with a non-empty admission queue: it must see both kinds", a.oracle, a.queued)
	}
	if a.voided*3 > a.checked {
		t.Errorf("exactness invariant voided too often: checked=%d voided=%d", a.checked, a.voided)
	}
	t.Logf("aborts=%d plans=%d pages saved=%g exactness checked=%d voided=%d oracle checked=%d (%d with a queue)",
		a.aborted, a.plans, a.saved, a.checked, a.voided, a.oracle, a.queued)
}

// assertFolded fails a fold matrix in which no cell ever shared a page: its
// fold-on runs would be solo runs under another name.
func (a *tally) assertFolded(t *testing.T) {
	t.Helper()
	a.assertExercised(t)
	if a.saved == 0 {
		t.Error("no seed saved any pages; folding never engaged in the matrix")
	}
}

// TestSimMatrix is the standing correctness gate: every seed runs the full
// randomized workload against the real stack (one shard) at workers 1, 2, and
// 4, every invariant must hold, and the three traces must be byte-identical.
func TestSimMatrix(t *testing.T) {
	var total tally
	for seed := int64(1); seed <= int64(*seedCount); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			total.add(runAcrossWorkers(t, Config{Seed: seed}))
		})
	}
	t.Cleanup(func() { total.assertExercised(t) })
}

// TestSimReplayDeterministic pins the replay contract behind
// `mqpi-bench -sim -seed N`: the same cell run twice is byte-identical.
func TestSimReplayDeterministic(t *testing.T) {
	a, err := Run(Config{Seed: 17, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Seed: 17, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace != b.Trace {
		t.Fatalf("same seed, same workers, different traces: %s", firstDiff(a.Trace, b.Trace))
	}
}

// TestSimScriptDriven pins the fuzz entry point: a byte script replaces the
// rng action stream and is likewise deterministic.
func TestSimScriptDriven(t *testing.T) {
	script := []byte{
		0x00, 0x10, // submit
		0x04, 0x80, // advance
		0x00, 0x57, // submit
		0x09, 0x00, // block
		0x04, 0xff, // advance
		0x0a, 0x00, // unblock
		0x0b, 0x01, // abort
		0x04, 0x40, // advance
	}
	a, err := Run(Config{Seed: 3, Script: script})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Violations) > 0 {
		t.Fatalf("violations: %v", a.Violations)
	}
	if a.Submitted != 2 || a.Actions < 8 {
		t.Fatalf("script applied %d actions, submitted %d; want >=8 actions, 2 submissions", a.Actions, a.Submitted)
	}
	b, err := Run(Config{Seed: 3, Script: script})
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace != b.Trace {
		t.Fatalf("script run not deterministic: %s", firstDiff(a.Trace, b.Trace))
	}
}

// firstDiff locates the first differing line of two traces.
func firstDiff(a, b string) string {
	la, lb := splitLines(a), splitLines(b)
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("one trace is a prefix of the other (%d vs %d lines)", len(la), len(lb))
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		out = append(out, s[:i])
		if i < len(s) {
			i++
		}
		s = s[i:]
	}
	return out
}
