package experiments

import (
	"testing"

	"mqpi/internal/workload"
)

// The parallel harness must produce byte-identical figure output to the
// sequential (-parallel=1) execution: jobs depend only on their index, and
// results are folded in index order, so float summation order is preserved.

func TestParallelSCQSweepByteIdentical(t *testing.T) {
	mk := func(parallel int) string {
		res, err := RunSCQ(SCQConfig{
			Common:  Common{Seed: 3, Runs: 3, Data: workload.DataConfig{LineitemRows: 30000, Seed: 5}, Parallel: parallel},
			Lambdas: []float64{0, 0.05},
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return res.Fig6.Render() + res.Fig7.Render()
	}
	seq := mk(1)
	for _, p := range []int{0, 4} {
		if got := mk(p); got != seq {
			t.Errorf("parallel=%d output differs from sequential:\n%s\nvs\n%s", p, got, seq)
		}
	}
}

func TestParallelSCQLambdaErrByteIdentical(t *testing.T) {
	mk := func(parallel int) string {
		res, err := RunSCQLambdaErr(SCQConfig{
			Common:       Common{Seed: 3, Runs: 2, Data: workload.DataConfig{LineitemRows: 30000, Seed: 5}, Parallel: parallel},
			FixedLambda:  0.03,
			LambdaPrimes: []float64{0, 0.05},
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return res.Fig8.Render() + res.Fig9.Render()
	}
	if seq, par := mk(1), mk(4); par != seq {
		t.Errorf("parallel output differs from sequential:\n%s\nvs\n%s", par, seq)
	}
}

func TestParallelMPLSweepByteIdentical(t *testing.T) {
	mk := func(parallel int) string {
		res, err := RunMPLSweep(MPLSweepConfig{
			Common: Common{Seed: 3, Runs: 2, NumQueries: 6, Data: workload.DataConfig{LineitemRows: 30000, Seed: 5}, Parallel: parallel},
			MPLs:   []int{2, 0},
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return res.Fig.Render()
	}
	if seq, par := mk(1), mk(4); par != seq {
		t.Errorf("parallel output differs from sequential:\n%s\nvs\n%s", par, seq)
	}
}

func TestParallelMaintenanceByteIdentical(t *testing.T) {
	mk := func(parallel int) string {
		res, err := RunMaintenance(MaintenanceConfig{
			Common:         Common{Seed: 3, Runs: 3, NumQueries: 6, Data: workload.DataConfig{LineitemRows: 30000, Seed: 5}, Parallel: parallel},
			WarmupFinishes: 8,
			TFracs:         []float64{0.3, 0.7, 1.0},
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return res.Fig11.Render()
	}
	if seq, par := mk(1), mk(4); par != seq {
		t.Errorf("parallel output differs from sequential:\n%s\nvs\n%s", par, seq)
	}
}

func TestParallelSpeedupByteIdentical(t *testing.T) {
	mk := func(parallel int) string {
		res, err := RunSpeedup(Common{Seed: 3, Runs: 3, Data: workload.DataConfig{LineitemRows: 30000, Seed: 5}, Parallel: parallel})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return res.Fig.Render()
	}
	if seq, par := mk(1), mk(4); par != seq {
		t.Errorf("parallel output differs from sequential:\n%s\nvs\n%s", par, seq)
	}
}

func TestParallelRobustnessByteIdentical(t *testing.T) {
	mk := func(parallel int) string {
		res, err := RunRobustness(RobustnessConfig{
			Common: Common{Seed: 3, Runs: 3, Data: workload.DataConfig{LineitemRows: 30000, Seed: 5}, Parallel: parallel},
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return res.Fig.Render()
	}
	if seq, par := mk(1), mk(4); par != seq {
		t.Errorf("parallel output differs from sequential:\n%s\nvs\n%s", par, seq)
	}
}

// TestPriorityRunsAveraging: Runs=1 output matches the historical single-run
// result (run 0 uses the base dataset and rng), and Runs>1 averages over
// distinct workloads identically at every parallelism level.
func TestParallelPriorityByteIdentical(t *testing.T) {
	data := workload.DataConfig{LineitemRows: 30000, Seed: 5}
	base, err := RunPriority(PriorityConfig{Common: Common{Seed: 3, Data: data}})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(parallel int) *PriorityResult {
		res, err := RunPriority(PriorityConfig{Common: Common{Seed: 3, Runs: 3, Data: data, Parallel: parallel}})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return res
	}
	seq, par := mk(1), mk(4)
	if seq.Fig.Render() != base.Fig.Render() {
		t.Error("run 0 of a multi-run priority experiment must reproduce the single-run figure")
	}
	if seq.SpeedRatio != par.SpeedRatio || seq.ErrT0Single != par.ErrT0Single || seq.ErrT0Multi != par.ErrT0Multi {
		t.Errorf("parallel priority metrics differ: %+v vs %+v", par, seq)
	}
	if seq.Fig.Render() != par.Fig.Render() {
		t.Error("parallel priority figure differs from sequential")
	}
}
