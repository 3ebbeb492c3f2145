// Benchmark harness: BenchmarkExperiment has one sub-benchmark per table and
// figure of the paper's evaluation (§5), the ablations called out in
// DESIGN.md and the extension experiments; the rest are micro-benchmarks of
// the core algorithms.
//
// Each BenchmarkExperiment row runs the corresponding experiment end-to-end
// at a scaled-down configuration and reports headline shape metrics via
// b.ReportMetric, so `go test -bench=.` regenerates every result in one
// command. cmd/mqpi-bench prints the full series at paper scale.
package mqpi_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mqpi/internal/core"
	"mqpi/internal/experiments"
	"mqpi/internal/wm"
	"mqpi/internal/workload"
)

// benchData keeps the figure benchmarks fast; mqpi-bench uses the full
// defaults.
var benchData = workload.DataConfig{LineitemRows: 30000, Seed: 1}

// metric is one headline number a figure benchmark reports.
type metric struct {
	unit  string
	value float64
}

func scqBenchConfig(seed int64) experiments.SCQConfig {
	return experiments.SCQConfig{
		Common:  experiments.Common{Seed: seed, Runs: 5, Data: benchData},
		Lambdas: []float64{0, 0.05, 0.1},
	}
}

func lambdaErrBenchConfig(seed int64) experiments.SCQConfig {
	return experiments.SCQConfig{
		Common:       experiments.Common{Seed: seed, Runs: 5, Data: benchData},
		FixedLambda:  0.03,
		LambdaPrimes: []float64{0, 0.03, 0.1, 0.2},
	}
}

func mcqBench(seed int64) (*experiments.MCQResult, error) {
	return experiments.RunMCQ(experiments.MCQConfig{Common: experiments.Common{Seed: seed, MaxN: 60, Data: benchData}})
}

// ablationBench runs the MCQ scenario feeding the PI refined remaining costs
// (the default) or raw optimizer-remaining costs. On this workload the
// optimizer estimates are good, so the gap is modest — the refinement matters
// when cardinality estimates go wrong (see the skewed-stats test in
// internal/experiments).
func ablationBench(optimizerOnly bool) ([]metric, error) {
	res, err := experiments.RunMCQAblation(experiments.MCQConfig{Common: experiments.Common{Seed: 3, MaxN: 60, Data: benchData}}, optimizerOnly)
	if err != nil {
		return nil, err
	}
	return []metric{{"mean-multi-err", res.MeanMultiErr}}, nil
}

// experimentBenches is one row per table and figure of the paper, then the
// DESIGN.md ablation pair and the extension experiments: a name, and a run at
// a scaled-down configuration returning the headline metrics to report.
var experimentBenches = []struct {
	name string
	run  func() ([]metric, error)
}{
	{"Table1Dataset", func() ([]metric, error) {
		res, err := experiments.RunDataset(experiments.DatasetConfig{Common: experiments.Common{Seed: 1, Data: benchData}})
		if err != nil {
			return nil, err
		}
		return []metric{{"lineitem-rows", float64(res.Rows[0].Tuples)}, {"avg-matches", res.Rows[1].AvgMatch}}, nil
	}},
	{"Figure3MCQEstimates", func() ([]metric, error) {
		res, err := mcqBench(1)
		if err != nil {
			return nil, err
		}
		return []metric{{"single-err-t0", res.ErrStartSingle}, {"multi-err-t0", res.ErrStartMulti}}, nil
	}},
	{"Figure4MCQSpeed", func() ([]metric, error) {
		res, err := mcqBench(2)
		if err != nil {
			return nil, err
		}
		return []metric{{"speed-growth", res.SpeedRatio}}, nil
	}},
	{"Figure5NAQ", func() ([]metric, error) {
		res, err := experiments.RunNAQ(experiments.NAQConfig{Common: experiments.Common{Seed: 1, Data: benchData}})
		if err != nil {
			return nil, err
		}
		return []metric{{"single-err-t0", res.ErrStartSingle}, {"noqueue-err-t0", res.ErrStartNoQueue}, {"queue-err-t0", res.ErrStartQueue}}, nil
	}},
	{"Figure6SCQLastQuery", func() ([]metric, error) {
		res, err := experiments.RunSCQ(scqBenchConfig(1))
		if err != nil {
			return nil, err
		}
		return []metric{{"single-err-l0", res.Fig6.Series[0].YAt(0)}, {"multi-err-l0", res.Fig6.Series[1].YAt(0)}}, nil
	}},
	{"Figure7SCQAverage", func() ([]metric, error) {
		res, err := experiments.RunSCQ(scqBenchConfig(2))
		if err != nil {
			return nil, err
		}
		return []metric{{"single-err-l05", res.Fig7.Series[0].YAt(0.05)}, {"multi-err-l05", res.Fig7.Series[1].YAt(0.05)}}, nil
	}},
	{"Figure8LambdaErrLastQuery", func() ([]metric, error) {
		res, err := experiments.RunSCQLambdaErr(lambdaErrBenchConfig(1))
		if err != nil {
			return nil, err
		}
		return []metric{{"multi-err-true-lambda", res.Fig8.Series[1].YAt(0.03)}, {"multi-err-wrong-lambda", res.Fig8.Series[1].YAt(0.2)}}, nil
	}},
	{"Figure9LambdaErrAverage", func() ([]metric, error) {
		res, err := experiments.RunSCQLambdaErr(lambdaErrBenchConfig(2))
		if err != nil {
			return nil, err
		}
		return []metric{{"single-err", res.Fig9.Series[0].YAt(0.03)}, {"multi-err-true-lambda", res.Fig9.Series[1].YAt(0.03)}}, nil
	}},
	{"Figure10LambdaErrTrajectory", func() ([]metric, error) {
		res, err := experiments.RunSCQTrajectory(experiments.SCQConfig{Common: experiments.Common{Seed: 1, Data: benchData}}, nil)
		if err != nil {
			return nil, err
		}
		return []metric{{"focus-finish-s", res.FocusFinish}}, nil
	}},
	{"Figure11Maintenance", func() ([]metric, error) {
		res, err := experiments.RunMaintenance(experiments.MaintenanceConfig{
			Common:         experiments.Common{Seed: 1, Runs: 3, Data: benchData},
			WarmupFinishes: 15,
		})
		if err != nil {
			return nil, err
		}
		return []metric{{"single-UW-at-tfinish", res.SingleAtTFinish}, {"multi-gain-vs-single", res.MultiVsSingle}, {"multi-excess-vs-limit", res.MultiVsLimit}}, nil
	}},
	{"AblationRefinedEstimate", func() ([]metric, error) { return ablationBench(false) }},
	{"AblationOptimizerOnlyEstimate", func() ([]metric, error) { return ablationBench(true) }},
	// §3.1 victim selection against the heaviest-consumer and random
	// heuristics on the paper's motivating trap (the heavy consumer is about
	// to finish).
	{"ExtSpeedupPolicies", func() ([]metric, error) {
		res, err := experiments.RunSpeedup(experiments.Common{Seed: 1, Runs: 4, Data: benchData})
		if err != nil {
			return nil, err
		}
		return []metric{{"multiPI-saving-s", res.MeanSavings[0]}, {"heaviest-saving-s", res.MeanSavings[1]}, {"random-saving-s", res.MeanSavings[2]}}, nil
	}},
	// Assumption 3 end-to-end: the measured high/low speed ratio against the
	// weight ratio of 3, and the weighted stage model's estimate accuracy.
	{"ExtWeightedPriorities", func() ([]metric, error) {
		res, err := experiments.RunPriority(experiments.PriorityConfig{Common: experiments.Common{Seed: 1, Data: benchData}})
		if err != nil {
			return nil, err
		}
		return []metric{{"speed-ratio", res.SpeedRatio}, {"multi-err", res.ErrT0Multi}, {"single-err", res.ErrT0Single}}, nil
	}},
	// §2.3 across queue depths: the queue-aware estimator's error stays flat
	// while the queue-blind one grows as the MPL shrinks.
	{"ExtMPLSweep", func() ([]metric, error) {
		res, err := experiments.RunMPLSweep(experiments.MPLSweepConfig{Common: experiments.Common{Seed: 1, Runs: 2, Data: benchData}})
		if err != nil {
			return nil, err
		}
		return []metric{{"blind-err-mpl2", res.Fig.Series[1].YAt(2)}, {"aware-err-mpl2", res.Fig.Series[2].YAt(2)}}, nil
	}},
}

// BenchmarkExperiment runs every row of experimentBenches end to end, e.g.
// `go test -bench Experiment/Figure3`.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experimentBenches {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				metrics, err := e.run()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					for _, m := range metrics {
						b.ReportMetric(m.value, m.unit)
					}
				}
			}
		})
	}
}

// BenchmarkParallelSCQSweep runs the SCQ λ-sweep sequentially and at full
// parallelism in each iteration and reports the wall-clock speedup of the
// worker pool (figures are byte-identical either way; see
// internal/experiments/parallel_test.go).
func BenchmarkParallelSCQSweep(b *testing.B) {
	cfg := scqBenchConfig(1)
	for i := 0; i < b.N; i++ {
		cfg.Parallel = 1
		t0 := time.Now()
		if _, err := experiments.RunSCQ(cfg); err != nil {
			b.Fatal(err)
		}
		seq := time.Since(t0)
		cfg.Parallel = 0 // GOMAXPROCS
		t0 = time.Now()
		if _, err := experiments.RunSCQ(cfg); err != nil {
			b.Fatal(err)
		}
		par := time.Since(t0)
		if i == 0 {
			b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup-x")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
		}
	}
}

// --- micro-benchmarks of the core algorithms ---

func randomStates(n int, seed int64) []core.QueryState {
	rng := rand.New(rand.NewSource(seed))
	states := make([]core.QueryState, n)
	for i := range states {
		states[i] = core.QueryState{
			ID:        i + 1,
			Remaining: rng.Float64() * 1e6,
			Weight:    1 + rng.Float64()*3,
			Done:      rng.Float64() * 1e6,
		}
	}
	return states
}

func BenchmarkComputeProfile100(b *testing.B)   { benchProfile(b, 100) }
func BenchmarkComputeProfile10000(b *testing.B) { benchProfile(b, 10000) }

func benchProfile(b *testing.B, n int) {
	states := randomStates(n, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComputeProfile(states, 1000)
	}
}

func BenchmarkSimulateProfileWithArrivals(b *testing.B) {
	states := randomStates(50, 2)
	am := core.ArrivalModel{Lambda: 0.01, AvgCost: 1e5, AvgWeight: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SimulateProfile(states, 1000, core.SimOptions{Arrivals: &am})
	}
}

func BenchmarkSpeedUpSingle(b *testing.B) {
	states := randomStates(1000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wm.SpeedUpSingle(states, 1000, 500, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpeedUpSingleEqualPriorityFastPath(b *testing.B) {
	states := randomStates(1000, 4)
	for i := range states {
		states[i].Weight = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wm.SpeedUpSingleEqualPriority(states, 500); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanMaintenanceGreedy(b *testing.B) {
	states := randomStates(1000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wm.PlanMaintenance(states, 1000, 100, wm.Case2TotalCost); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanMaintenanceExact20(b *testing.B) {
	states := randomStates(20, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wm.PlanMaintenanceExact(states, 1000, 100, wm.Case2TotalCost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCorrelatedQuery measures raw engine throughput on the
// paper's query shape.
func BenchmarkEngineCorrelatedQuery(b *testing.B) {
	ds, err := workload.BuildDataset(benchData)
	if err != nil {
		b.Fatal(err)
	}
	if err := ds.CreatePartTable(1, 20); err != nil {
		b.Fatal(err)
	}
	src := workload.QuerySQL(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ds.DB.Query(src); err != nil {
			b.Fatal(err)
		}
	}
}
