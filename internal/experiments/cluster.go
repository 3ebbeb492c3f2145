package experiments

import (
	"fmt"
	"math/rand"

	"mqpi/internal/cluster"
	"mqpi/internal/engine"
	"mqpi/internal/engine/types"
	"mqpi/internal/metrics"
	"mqpi/internal/sched"
	"mqpi/internal/service"
	"mqpi/internal/workload"
)

// ClusterSweepConfig configures the serving-tier experiment: a heavy mixed
// Zipf workload (query costs drawn from a Zipf over geometrically sized
// tables, staggered arrivals, session churn) replayed against every shard
// count × routing policy cell. Two questions: how does throughput scale with
// shards under each placement policy, and what does sharding do to the
// quality of the time-0 multi-query ETA (each shard only models its own
// queries, so bad placement shows up as estimate error, not just latency).
type ClusterSweepConfig struct {
	Common            // defaults: 3 runs of 24 queries per cell, table-size skew a 1.1, per-shard C = 10, quantum 0.5
	Shards   []int    // default 1, 2, 4, 8
	Policies []string // default all three routing policies
	MPL      int      // per-shard admission limit; default 3
}

func (c ClusterSweepConfig) withDefaults() ClusterSweepConfig {
	c.Common = c.Common.withDefaults(Common{Runs: 3, NumQueries: 24, ZipfA: 1.1, RateC: 10, Quantum: 0.5})
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 2, 4, 8}
	}
	if len(c.Policies) == 0 {
		c.Policies = cluster.RoutingPolicies()
	}
	c.MPL = orDefault(c.MPL, 3)
	return c
}

// ClusterSweepResult carries the two figures: throughput vs shard count and
// mean time-0 ETA error vs shard count, one series per routing policy.
type ClusterSweepResult struct {
	FigThroughput metrics.Figure
	FigETA        metrics.Figure
}

// clusterTables is the size ladder: table zK holds 64·2^K rows, so a Zipf
// sample over table indexes yields a heavy-tailed cost mix (most queries
// small, a few 32× larger).
const clusterTables = 6

// ladderDB builds one replica of the ladder tables; every call with the same
// seed builds the same tables, so the shards of a tier are identical.
func ladderDB(seed int64) (*engine.DB, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x7ab1e))
	db := engine.Open()
	for k := 0; k < clusterTables; k++ {
		name := fmt.Sprintf("z%d", k)
		if _, err := db.Exec(fmt.Sprintf("CREATE TABLE %s (a BIGINT, v DOUBLE)", name)); err != nil {
			return nil, err
		}
		cat := db.Catalog()
		for i := 0; i < 64<<k; i++ {
			if err := cat.Insert(name, types.Row{
				types.NewInt(int64(i % 101)), types.NewFloat(rng.Float64() * 100),
			}); err != nil {
				return nil, err
			}
		}
	}
	if err := db.Analyze(); err != nil {
		return nil, err
	}
	return db, nil
}

// ladderTier starts a tier of ladder replicas for the sweep cell at seed
// offset off, and returns it with the cell's arrival rng.
func ladderTier(c Common, off int64, name string, cfg cluster.Config) (*tier, *rand.Rand, error) {
	dbSeed := datasetSeed(c.Seed, off)
	t, err := startTier(name, cfg, func() (*engine.DB, error) { return ladderDB(dbSeed) })
	return t, rand.New(rand.NewSource(c.Seed + off)), err
}

// ladderScan is the sweeps' query: one aggregate scan of ladder table zK.
func ladderScan(i, table, priority int) service.SubmitRequest {
	return service.SubmitRequest{
		Label:    fmt.Sprintf("q%d", i+1),
		SQL:      fmt.Sprintf("select sum(v) from z%d", table),
		Priority: priority,
	}
}

// RunClusterSweep replays the workload for every (policy, shards, run) cell
// and aggregates throughput (finished queries per virtual second of
// makespan) and the mean relative error of each query's time-0 multi-query
// ETA against its actual response time.
func RunClusterSweep(cfg ClusterSweepConfig) (*ClusterSweepResult, error) {
	cfg = cfg.withDefaults()
	zipf, err := workload.NewZipf(cfg.ZipfA, clusterTables)
	if err != nil {
		return nil, err
	}
	res := &ClusterSweepResult{
		FigThroughput: metrics.Figure{
			Title:  "Serving tier: throughput vs shard count per routing policy",
			XLabel: "shards",
			YLabel: "queries per virtual second",
		},
		FigETA: metrics.Figure{
			Title:  "Serving tier: mean time-0 multi-query ETA error vs shard count",
			XLabel: "shards",
			YLabel: "relative error (fraction)",
		},
	}

	type sweepCell struct {
		throughput float64
		errs       []float64
	}
	nCells := len(cfg.Policies) * len(cfg.Shards) * cfg.Runs
	cells, err := runIndexed(cfg.Parallel, nCells, func(j int) (sweepCell, error) {
		pi := j / (len(cfg.Shards) * cfg.Runs)
		si := (j / cfg.Runs) % len(cfg.Shards)
		r := j % cfg.Runs
		policy, shards := cfg.Policies[pi], cfg.Shards[si]
		t, rng, err := ladderTier(cfg.Common, int64(pi)*104729+int64(si)*6977+int64(r)*7919,
			fmt.Sprintf("cluster cell %s/%d", policy, shards),
			cluster.Config{
				Shards:  shards,
				Routing: policy,
				Service: service.Config{Sched: sched.Config{
					RateC: cfg.RateC, MPL: cfg.MPL, Quantum: cfg.Quantum, Workers: cfg.Workers,
				}},
			})
		if err != nil {
			return sweepCell{}, err
		}
		defer t.close()

		// Staggered Zipf workload: heavy mix of table sizes, sessions from a
		// small pool so affinity has real collisions, a short random gap
		// before each arrival.
		eta0 := make(map[int]float64, cfg.NumQueries)
		for i := 0; i < cfg.NumQueries; i++ {
			gap := cfg.Quantum * float64(rng.Intn(3))
			table := zipf.Sample(rng) - 1
			req := ladderScan(i, table, rng.Intn(3))
			view, err := t.submit(gap, req, fmt.Sprintf("session-%d", rng.Intn(4)))
			if err != nil {
				return sweepCell{}, err
			}
			if eta, ok := finiteETA(view.MultiETA); ok {
				eta0[view.ID] = eta
			}
		}

		// Drain to quiescence; the makespan is the virtual time consumed.
		finished, err := t.drain(nil, nil)
		if err != nil {
			return sweepCell{}, err
		}
		out := sweepCell{throughput: float64(cfg.NumQueries) / t.clock}
		for _, v := range finished {
			// Both timestamps are in the owning shard's virtual clock (which
			// freezes while that shard idles), so the response time is
			// consistent with the shard-local ETA taken at submission.
			if eta, ok := eta0[v.ID]; ok {
				if actual := v.FinishTime - v.SubmitTime; actual > 0 {
					out.errs = append(out.errs, metrics.RelErr(eta, actual))
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	for pi, policy := range cfg.Policies {
		sT := res.FigThroughput.AddSeries(policy)
		sE := res.FigETA.AddSeries(policy)
		for si, shards := range cfg.Shards {
			var tps, errs []float64
			for r := 0; r < cfg.Runs; r++ {
				c := cells[pi*len(cfg.Shards)*cfg.Runs+si*cfg.Runs+r]
				tps = append(tps, c.throughput)
				errs = append(errs, c.errs...)
			}
			sT.Add(float64(shards), metrics.Mean(tps))
			sE.Add(float64(shards), metrics.Mean(errs))
		}
	}
	return res, nil
}

func (r *ClusterSweepResult) report() *Report {
	return new(Report).
		text("== Serving tier: shard count x routing policy on a mixed Zipf workload ==\n").
		figure("cluster-throughput", &r.FigThroughput).text("\n").figure("cluster-eta", &r.FigETA)
}
