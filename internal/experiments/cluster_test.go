package experiments

import "testing"

// TestClusterSweep runs a reduced sweep and checks the structural claims:
// every cell completes, throughput does not collapse when shards are added,
// and the output is bit-identical across pool parallelism levels.
func TestClusterSweep(t *testing.T) {
	cfg := ClusterSweepConfig{
		Common:   Common{Seed: 3, Runs: 2, NumQueries: 10, Parallel: 1},
		Shards:   []int{1, 2},
		Policies: []string{"round-robin", "least-loaded"},
	}
	seq, err := RunClusterSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.FigThroughput.Series) != 2 || len(seq.FigETA.Series) != 2 {
		t.Fatalf("series: %d throughput, %d eta", len(seq.FigThroughput.Series), len(seq.FigETA.Series))
	}
	for _, s := range seq.FigThroughput.Series {
		if len(s.Pts) != 2 {
			t.Fatalf("series %s has %d points", s.Name, len(s.Pts))
		}
		for _, p := range s.Pts {
			if p.Y <= 0 {
				t.Errorf("series %s at shards=%g: throughput %g", s.Name, p.X, p.Y)
			}
		}
		// Doubling per-shard capacity must not make the workload slower.
		if s.Pts[1].Y < s.Pts[0].Y*0.99 {
			t.Errorf("series %s: throughput fell with more shards: %g -> %g",
				s.Name, s.Pts[0].Y, s.Pts[1].Y)
		}
	}
	for _, s := range seq.FigETA.Series {
		for _, p := range s.Pts {
			if p.Y < 0 {
				t.Errorf("eta series %s at shards=%g: negative error %g", s.Name, p.X, p.Y)
			}
		}
	}

	par, err := RunClusterSweep(ClusterSweepConfig{
		Common:   Common{Seed: 3, Runs: 2, NumQueries: 10, Parallel: 4, Workers: 2},
		Shards:   []int{1, 2},
		Policies: []string{"round-robin", "least-loaded"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if seq.FigThroughput.CSV() != par.FigThroughput.CSV() {
		t.Errorf("throughput figure differs across parallelism:\n%s\nvs\n%s",
			seq.FigThroughput.CSV(), par.FigThroughput.CSV())
	}
	if seq.FigETA.CSV() != par.FigETA.CSV() {
		t.Errorf("eta figure differs across parallelism:\n%s\nvs\n%s",
			seq.FigETA.CSV(), par.FigETA.CSV())
	}
}
