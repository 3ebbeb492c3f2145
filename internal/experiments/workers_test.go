package experiments

import (
	"runtime"
	"testing"

	"mqpi/internal/workload"
)

// The three-phase tick must keep every figure byte-identical no matter how
// many execute-phase workers step the runners: credits are fixed serially
// before execution and settlement folds in admission order, so the virtual
// clock, work meters, and estimates never see the physical interleaving.
// This sweeps all seven experiment drivers at workers = 1, 2, NumCPU.
func TestWorkersByteIdenticalAcrossSweeps(t *testing.T) {
	data := workload.DataConfig{LineitemRows: 30000, Seed: 5}
	sweeps := []struct {
		name string
		run  func(workers int) string
	}{
		{"scq", func(w int) string {
			res, err := RunSCQ(SCQConfig{Common: Common{Seed: 3, Runs: 2, Data: data, Parallel: 1, Workers: w}, Lambdas: []float64{0, 0.05}})
			if err != nil {
				t.Fatal(err)
			}
			return res.Fig6.Render() + res.Fig7.Render()
		}},
		{"scq-lambda-err", func(w int) string {
			res, err := RunSCQLambdaErr(SCQConfig{
				Common:       Common{Seed: 3, Runs: 2, Data: data, Parallel: 1, Workers: w},
				FixedLambda:  0.03,
				LambdaPrimes: []float64{0, 0.05},
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.Fig8.Render() + res.Fig9.Render()
		}},
		{"mpl-sweep", func(w int) string {
			res, err := RunMPLSweep(MPLSweepConfig{
				Common: Common{Seed: 3, Runs: 2, NumQueries: 6, Data: data, Parallel: 1, Workers: w},
				MPLs:   []int{2, 0},
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.Fig.Render()
		}},
		{"maintenance", func(w int) string {
			res, err := RunMaintenance(MaintenanceConfig{
				Common:         Common{Seed: 3, Runs: 2, NumQueries: 6, Data: data, Parallel: 1, Workers: w},
				WarmupFinishes: 8,
				TFracs:         []float64{0.3, 1.0},
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.Fig11.Render()
		}},
		{"speedup", func(w int) string {
			res, err := RunSpeedup(Common{Seed: 3, Runs: 2, Data: data, Parallel: 1, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			return res.Fig.Render()
		}},
		{"robustness", func(w int) string {
			res, err := RunRobustness(RobustnessConfig{Common: Common{Seed: 3, Runs: 2, Data: data, Parallel: 1, Workers: w}})
			if err != nil {
				t.Fatal(err)
			}
			return res.Fig.Render()
		}},
		{"priority", func(w int) string {
			res, err := RunPriority(PriorityConfig{Common: Common{Seed: 3, Data: data, Workers: w}})
			if err != nil {
				t.Fatal(err)
			}
			return res.Fig.Render()
		}},
	}
	counts := []int{2, runtime.NumCPU()}
	for _, sw := range sweeps {
		serial := sw.run(1)
		for _, w := range counts {
			if got := sw.run(w); got != serial {
				t.Errorf("%s: workers=%d output differs from workers=1:\n%s\nvs\n%s", sw.name, w, got, serial)
			}
		}
	}
}
