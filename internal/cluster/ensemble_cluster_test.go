package cluster

import (
	"fmt"
	"testing"

	"mqpi/internal/core"
	"mqpi/internal/service"
)

// TestClusterEnsembleOverview: with a calibrated-mode service config, the
// merged overview must expose the estimator mode and per-query uncertainty
// bands that survive the reID merge intact.
func TestClusterEnsembleOverview(t *testing.T) {
	c := manualCluster(t, Config{
		Shards:  2,
		Service: service.Config{Estimator: core.EstimatorCalibrated},
	}, 4)
	for i := 0; i < 4; i++ {
		submit(t, c, fmt.Sprintf("q%d", i))
	}
	if err := c.Advance(1); err != nil {
		t.Fatal(err)
	}
	ov, err := c.Overview()
	if err != nil {
		t.Fatal(err)
	}
	if ov.Estimator != core.EstimatorCalibrated {
		t.Fatalf("overview estimator = %q", ov.Estimator)
	}
	if len(ov.Shards) != 2 {
		t.Fatalf("%d shard summaries, want 2", len(ov.Shards))
	}
	if len(ov.Running) == 0 {
		t.Fatal("no running queries in the merged overview")
	}
	for _, v := range ov.Running {
		lo, point, hi := float64(v.ETALow), float64(v.MultiETA), float64(v.ETAHigh)
		if !(lo <= point && point <= hi) {
			t.Fatalf("Q%d band [%g,%g] misses point %g", v.ID, lo, hi, point)
		}
		if point > 0 && hi-lo <= 0 {
			t.Fatalf("Q%d calibrated band degenerate: %+v", v.ID, v)
		}
	}
}

// TestClusterStageOverviewInert: the default stage mode reports itself and
// degenerate bands — the merged overview carries no uncertainty until opted
// in.
func TestClusterStageOverviewInert(t *testing.T) {
	c := manualCluster(t, Config{Shards: 2}, 2)
	submit(t, c, "q0")
	ov, err := c.Overview()
	if err != nil {
		t.Fatal(err)
	}
	if ov.Estimator != core.EstimatorStage {
		t.Fatalf("overview estimator = %q", ov.Estimator)
	}
	for _, v := range ov.Running {
		if v.ETALow != v.MultiETA || v.ETAHigh != v.MultiETA {
			t.Errorf("Q%d stage-mode band [%v,%v] not degenerate at %v", v.ID, v.ETALow, v.ETAHigh, v.MultiETA)
		}
	}
}
