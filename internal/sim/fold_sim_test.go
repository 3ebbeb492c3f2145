package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// stripFoldMarkers removes the stage diagram's "  [fold gN]" row annotations
// and the diagram byte counts they inflate — the only trace content folding
// is allowed to change. Everything else in the trace is charged-plane, and
// I12 demands it be byte-identical to a fold-off run of the same action
// stream.
func stripFoldMarkers(trace string) string {
	lines := splitLines(trace)
	for i, line := range lines {
		if j := strings.Index(line, "  [fold g"); j >= 0 {
			lines[i] = line[:j]
			continue
		}
		if j := strings.Index(line, " diagram "); j >= 0 && strings.HasSuffix(line, " bytes") {
			lines[i] = line[:j+len(" diagram")]
		}
	}
	return strings.Join(lines, "\n")
}

// TestFoldSimMatrix is the folding gate (I12 plus determinism): for every
// seed, with DML frozen, the fold-on run must match the fold-off baseline on
// every charged-plane observable — byte-identical traces once the diagram's
// fold markers are stripped, bit-identical per-query done and finish times —
// while the cost plane drops by exactly the shared pages (I11, checked per
// action inside each run). Fold-on runs must additionally be byte-identical
// at workers 1, 2, and 4.
func TestFoldSimMatrix(t *testing.T) {
	var total tally
	for seed := int64(1); seed <= int64(*seedCount); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			off, err := Run(Config{Seed: seed, Workers: 1, NoDML: true})
			if err != nil {
				t.Fatalf("fold-off: %v", err)
			}
			for _, v := range off.Violations {
				t.Errorf("fold-off: %s", v)
			}
			on := runAcrossWorkers(t, Config{Seed: seed, NoDML: true, Fold: true})

			// I12, trace form: stripped of fold markers, the traces coincide.
			if got, want := stripFoldMarkers(on.Trace), stripFoldMarkers(off.Trace); got != want {
				t.Errorf("fold-on trace differs from fold-off beyond fold markers: %s", firstDiff(want, got))
			}
			// I12, outcome form: identical IDs, statuses, charged work, and
			// finish times, bit for bit; cost may only drop, never rise.
			if len(on.Final) != len(off.Final) {
				t.Fatalf("fold-on finished with %d queries, fold-off with %d", len(on.Final), len(off.Final))
			}
			for i := range off.Final {
				a, b := off.Final[i], on.Final[i]
				if a.ID != b.ID || a.Status != b.Status {
					t.Errorf("outcome %d: fold-off q%d/%s vs fold-on q%d/%s", i, a.ID, a.Status, b.ID, b.Status)
					continue
				}
				if math.Float64bits(a.Done) != math.Float64bits(b.Done) {
					t.Errorf("q%d charged work differs: fold-off %v, fold-on %v", a.ID, a.Done, b.Done)
				}
				if math.Float64bits(a.FinishTime) != math.Float64bits(b.FinishTime) {
					t.Errorf("q%d finish time differs: fold-off %v, fold-on %v", a.ID, a.FinishTime, b.FinishTime)
				}
				if a.Cost != a.Done {
					t.Errorf("q%d fold-off cost %v != done %v", a.ID, a.Cost, a.Done)
				}
				if b.Cost > b.Done {
					t.Errorf("q%d fold-on cost %v exceeds done %v", b.ID, b.Cost, b.Done)
				}
			}
			total.add(on)
		})
	}
	// The matrix must actually exercise sharing somewhere, or I12 is
	// vacuously comparing two solo runs.
	t.Cleanup(func() { total.assertFolded(t) })
}

// TestSimFoldToggleScript pins the fold on/off toggle action: detach-all on
// the way off, re-fold of eligible newcomers on the way back on, invariants
// (I11 included) holding across the churn, deterministically.
func TestSimFoldToggleScript(t *testing.T) {
	script := []byte{
		0x00, 0x00, // submit sum(v) over t0
		0x00, 0x01, // submit the same shape: folds with the first
		0x04, 0x80, // advance mid-scan
		0x08, 0x00, // fold off: every member detaches, scans continue solo
		0x04, 0x40, // advance
		0x08, 0x01, // fold on again
		0x00, 0x02, // a newcomer that may fold with survivors
		0x04, 0xff, // advance
	}
	a, err := Run(Config{Seed: 7, Fold: true, FoldToggle: true, Script: script})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range a.Violations {
		t.Errorf("violation: %s", v)
	}
	if a.Submitted != 3 {
		t.Fatalf("submitted %d, want 3", a.Submitted)
	}
	b, err := Run(Config{Seed: 7, Fold: true, FoldToggle: true, Script: script})
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace != b.Trace {
		t.Fatalf("toggle script not deterministic: %s", firstDiff(a.Trace, b.Trace))
	}
}
