package sim

import (
	"fmt"
	"strings"
	"testing"

	"mqpi/internal/cluster"
	"mqpi/internal/core"
)

var routingPolicies = cluster.RoutingPolicies()

// TestClusterSimMatrix is the sharded tier's correctness gate: for every seed
// and every routing policy, three shards behind the front door must each
// satisfy I1–I14, the router pass must hold (placement, gid uniqueness, no
// lost work across aborts, admission accounting), and the traces must be
// byte-identical at per-shard workers 1, 2, and 4.
func TestClusterSimMatrix(t *testing.T) {
	var total tally
	for seed := int64(1); seed <= int64(*seedCount); seed++ {
		policy := routingPolicies[seed%int64(len(routingPolicies))]
		seed := seed
		t.Run(fmt.Sprintf("seed=%d/%s", seed, policy), func(t *testing.T) {
			t.Parallel()
			total.add(runAcrossWorkers(t, Config{Seed: seed, Shards: 3, Routing: policy}))
		})
	}
	t.Cleanup(func() { total.assertExercised(t) })
}

// TestClusterSimAdmission runs the matrix's admission variant: a tight token
// bucket in reject mode must produce 429s that the accounting check (C5)
// reconciles, in queue mode none, deterministically across worker counts.
func TestClusterSimAdmission(t *testing.T) {
	for _, queue := range []bool{false, true} {
		queue := queue
		t.Run(fmt.Sprintf("queue=%v", queue), func(t *testing.T) {
			t.Parallel()
			base := runAcrossWorkers(t, Config{
				Seed: 11, Shards: 2, Routing: "least-loaded",
				AdmitRate: 0.5, AdmitBurst: 2, AdmitQueue: queue,
			})
			if !queue && base.Rejected == 0 {
				t.Error("tight reject-mode bucket rejected nothing")
			}
			if queue && base.Rejected != 0 {
				t.Errorf("queue mode rejected %d submissions", base.Rejected)
			}
		})
	}
}

// TestClusterSimFoldMatrix runs the folding variant of the sharded gate:
// every shard folds same-table scans, the fold-aware least-loaded router is
// in the rotation, DML is frozen, and traces must stay byte-identical at
// per-shard workers 1, 2, and 4 while I11 (fold conservation) holds on every
// shard after every action. Under round-robin — the only policy whose
// placement ignores load and fold state — the fold-on trace must
// additionally match the fold-off baseline once the diagrams' fold markers
// are stripped: folding may not move a single charged-plane observable.
func TestClusterSimFoldMatrix(t *testing.T) {
	var total tally
	for seed := int64(1); seed <= 8; seed++ {
		policy := routingPolicies[seed%int64(len(routingPolicies))]
		seed := seed
		t.Run(fmt.Sprintf("seed=%d/%s", seed, policy), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Seed: seed, Shards: 3, Routing: policy, Fold: true, NoDML: true}
			on := runAcrossWorkers(t, cfg)
			total.add(on)
			if policy != "round-robin" {
				return
			}
			cfg.Fold = false
			off, err := Run(cfg)
			if err != nil {
				t.Fatalf("fold-off: %v", err)
			}
			for _, v := range off.Violations {
				t.Errorf("fold-off: %s", v)
			}
			if got, want := stripFoldMarkers(on.Trace), stripFoldMarkers(off.Trace); got != want {
				t.Errorf("fold-on trace differs from fold-off under round-robin: %s", firstDiff(want, got))
			}
		})
	}
	t.Cleanup(func() { total.assertFolded(t) })
}

// TestClusterSimPaths runs, behind a three-shard front door, the paths the
// seeded matrices leave at their defaults: a blended estimate plane, fold
// on/off churn (the toggle lands on one shard, so shards disagree about
// folding), and a scripted action stream whose per-query operations must
// reach the shard that owns each global id.
func TestClusterSimPaths(t *testing.T) {
	script := []byte{
		0x00, 0x10, 0x00, 0x57, 0x00, 0x91, 0x00, 0x22, // four submissions: shards 0, 1, 2, 0
		0x04, 0x80, // advance
		0x0e, 0x00, // plan speedup-single for q1: shard 0's other query is the victim
		0x09, 0x01, // block q2
		0x0f, 0x02, // diagram
		0x04, 0xff, // advance
		0x0a, 0x00, // unblock
		0x0c, 0x23, // priority
		0x0b, 0x02, // abort
		0x0d, 0x03, // DML on every replica
		0x04, 0x40, // advance
	}
	for name, cfg := range map[string]Config{
		"ensemble":    {Seed: 5, Estimator: core.EstimatorEnsemble, Routing: "affinity"},
		"fold-toggle": {Seed: 4, Fold: true, FoldToggle: true, Routing: "least-loaded"},
		"script":      {Seed: 3, Script: script},
	} {
		cfg := cfg
		cfg.Shards = 3
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base := runAcrossWorkers(t, cfg)
			for i := 0; i < cfg.Shards; i++ {
				if !strings.Contains(base.Trace, fmt.Sprintf("\n[%d] e", i)) {
					t.Errorf("shard %d traced no event", i)
				}
			}
			switch name {
			case "fold-toggle":
				if !strings.Contains(base.Trace, "fold on=false") || !strings.Contains(base.Trace, "fold on=true") {
					t.Error("the stream never toggled folding both ways")
				}
			case "script":
				if base.Submitted != 4 || base.Aborted != 1 || base.Plans != 1 {
					t.Errorf("script submitted %d, aborted %d, planned %d; want 4, 1, 1",
						base.Submitted, base.Aborted, base.Plans)
				}
			}
		})
	}
}
