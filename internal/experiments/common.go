// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5). Each experiment builds the TPC-R-style dataset,
// runs real SQL queries through the engine under the virtual-time
// multi-query scheduler, attaches the competing progress indicators, and
// reports the same series the paper plots. cmd/mqpi-bench and the top-level
// benchmarks are thin wrappers over this package.
package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"mqpi/internal/core"
	"mqpi/internal/metrics"
	"mqpi/internal/sched"
	"mqpi/internal/workload"
)

// Common is the configuration every experiment shares. Each experiment
// embeds it beside the fields that are its own and fills the zero values
// from its own defaults in one step (withDefaults), so a knob has one name,
// one meaning and one defaulting rule across the battery. A field an
// experiment has no use for is ignored (the dataset table has no Runs, the
// serving-tier sweeps no Data).
type Common struct {
	Seed int64
	// Runs is the number of independent runs per data point.
	Runs int
	Data workload.DataConfig
	// Parallel caps the worker goroutines used for independent runs:
	// 0 = GOMAXPROCS, 1 = sequential. Output is identical at every setting.
	Parallel int
	// Workers sets the scheduler's execute-phase worker count
	// (0/1 = inline serial). Results are bit-identical at every setting.
	Workers int
	RateC   float64 // the paper's constant processing rate C, U/s
	Quantum float64 // virtual-time step, s
	// NumQueries, ZipfA and MaxN shape a batch: how many queries, and the
	// Zipf(a) over 1..MaxN their part-table sizes N are drawn from.
	NumQueries int
	ZipfA      float64
	MaxN       int
	// SampleEvery is the virtual-time period of over-time series.
	SampleEvery float64
}

// orDefault is the one defaulting rule: an unset (zero or negative) knob
// takes the experiment's default.
func orDefault[T int | float64](v, d T) T {
	if v <= 0 {
		return d
	}
	return v
}

// withDefaults fills c's unset fields from d, the calling experiment's
// defaults, and seeds the dataset from the experiment seed.
func (c Common) withDefaults(d Common) Common {
	c.Runs = orDefault(c.Runs, d.Runs)
	c.NumQueries = orDefault(c.NumQueries, d.NumQueries)
	c.MaxN = orDefault(c.MaxN, d.MaxN)
	c.RateC = orDefault(c.RateC, d.RateC)
	c.Quantum = orDefault(c.Quantum, d.Quantum)
	c.ZipfA = orDefault(c.ZipfA, d.ZipfA)
	c.SampleEvery = orDefault(c.SampleEvery, d.SampleEvery)
	if c.Data.Seed == 0 {
		c.Data.Seed = c.Seed
	}
	return c
}

// zipf is the batch-size distribution the config describes.
func (c Common) zipf() (*workload.Zipf, error) { return workload.NewZipf(c.ZipfA, c.MaxN) }

// cellSeed says where one cell's randomness comes from. Every experiment's
// historical seed formula is an instance, kept as data so no stream moves:
// the part tables come from datasetSeed(Seed, off) — or, with base set, from
// the base dataset whose generator stream simply continues, as the
// single-run experiments always did — and the cell rng from (Seed+off)^mask.
type cellSeed struct {
	off, mask int64
	base      bool
}

// cell is the private world one independent unit of an experiment runs in:
// its own mutable dataset, its own rng, and the schedulers it started, which
// the harness closes when the cell's job returns.
type cell struct {
	Common
	ds      *workload.Dataset
	rng     *rand.Rand
	servers []*sched.Server
}

// withCell builds the cell s describes, runs job in it and releases what the
// cell started (the schedulers' lazily created execute pools).
func withCell[T any](cfg Common, s cellSeed, job func(*cell) (T, error)) (T, error) {
	var (
		ds  *workload.Dataset
		err error
	)
	if s.base {
		ds, err = workload.BuildDataset(cfg.Data)
	} else {
		ds, err = workload.SharedCache().HydrateSeeded(cfg.Data, datasetSeed(cfg.Seed, s.off))
	}
	if err != nil {
		var zero T
		return zero, err
	}
	cl := &cell{Common: cfg, ds: ds, rng: rand.New(rand.NewSource((cfg.Seed + s.off) ^ s.mask))}
	defer func() {
		for _, srv := range cl.servers {
			srv.Close()
		}
	}()
	return job(cl)
}

// runCells fans n independent cells across the pool and returns their
// results in index order; seed is the experiment's seed formula for cell j.
// Every cell hydrates a private dataset, so its part tables depend only on
// (cfg, j) — never on how many cells ran before it — and callers that fold
// the results in index order reproduce the sequential figures bit for bit.
func runCells[T any](cfg Common, n int, seed func(j int) cellSeed, job func(j int, cl *cell) (T, error)) ([]T, error) {
	return runIndexed(cfg.Parallel, n, func(j int) (T, error) {
		return withCell(cfg, seed(j), func(cl *cell) (T, error) { return job(j, cl) })
	})
}

// server starts a scheduler at the cell's rate, quantum and worker count;
// cfg carries what the experiment adds (MPL, weights, a rate function).
func (cl *cell) server(cfg sched.Config) *sched.Server {
	cfg.RateC, cfg.Quantum, cfg.Workers = cl.RateC, cl.Quantum, cl.Workers
	srv := sched.New(cfg)
	cl.servers = append(cl.servers, srv)
	return srv
}

// batchQuery describes one query of a batch: the part-table size N, the
// priority, the template, and the fraction of its cost it has already run
// when the experiment's clock starts.
type batchQuery struct {
	n, priority int
	frac        float64
	tmpl        workload.QueryTemplate
}

// zipfBatch draws k queries the way every sweep does: N from Zipf(ZipfA)
// over 1..maxN, then (when maxFrac > 0) a prework fraction uniform in
// [0, maxFrac) — "each query was at a random point of its execution".
func (cl *cell) zipfBatch(k, maxN int, maxFrac float64) ([]batchQuery, error) {
	zipf, err := workload.NewZipf(cl.ZipfA, maxN)
	if err != nil {
		return nil, err
	}
	batch := make([]batchQuery, k)
	for i := range batch {
		batch[i].n = zipf.Sample(cl.rng)
		if maxFrac > 0 {
			batch[i].frac = cl.rng.Float64() * maxFrac
		}
	}
	return batch, nil
}

// submit builds part_1..part_k for the batch, advances each query by its
// prework fraction, and submits them in order.
func (cl *cell) submit(srv *sched.Server, batch []batchQuery) ([]*sched.Query, error) {
	queries := make([]*sched.Query, len(batch))
	for i, b := range batch {
		q, err := buildPartQuery(cl.ds, srv, i+1, b.n, b.priority, b.tmpl)
		if err != nil {
			return nil, err
		}
		if err := prework(cl.ds, q, b.frac); err != nil {
			return nil, err
		}
		queries[i] = q
	}
	for _, q := range queries {
		srv.Submit(q)
	}
	return queries, nil
}

// buildPartQuery creates part_idx with the given N, plans the paper's query
// Q_idx over it (or the template's variant of it, for the mixed-workload
// check of the paper's "other kinds of queries" claim), and wraps it as a
// scheduler query. Result rows are discarded (the experiments only account
// work).
func buildPartQuery(ds *workload.Dataset, srv *sched.Server, idx, n, priority int, tmpl workload.QueryTemplate) (*sched.Query, error) {
	if err := ds.CreatePartTable(idx, n); err != nil {
		return nil, err
	}
	sqlText := workload.QuerySQLVariant(idx, tmpl)
	runner, err := ds.DB.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	runner.CollectRows = false
	q := srv.NewQuery(fmt.Sprintf("Q%d(N=%d,%s)", idx, n, tmpl), sqlText, priority, runner)
	return q, nil
}

// prework advances a query by frac of its cost before time 0, as the MCQ and
// SCQ experiments require ("each query was at a random point of its
// execution").
//
// The budget is frac × EstCost(), an optimizer estimate. If the optimizer
// overestimates (stale statistics, say), that budget can run the query to
// completion before the experiment even starts — and the completed run has
// revealed the true cost, so the query is re-prepared and advanced by
// frac × trueCost instead. A query that completes even on its true cost is an
// error: the experiment would be measuring nothing.
func prework(ds *workload.Dataset, q *sched.Query, frac float64) error {
	budget := frac * q.Runner.Plan().EstCost()
	if budget <= 0 {
		return nil
	}
	if _, _, err := q.Runner.Step(budget); err != nil {
		return err
	}
	if !q.Runner.Done() {
		return nil
	}
	// Overestimated: the finished runner's work done is the true cost.
	trueCost := q.Runner.WorkDone()
	fresh, err := ds.DB.Prepare(q.SQL)
	if err != nil {
		return fmt.Errorf("experiments: re-preparing %q after prework overrun: %w", q.Label, err)
	}
	fresh.CollectRows = q.Runner.CollectRows
	q.Runner = fresh
	if budget = frac * trueCost; budget <= 0 {
		return nil
	}
	if _, _, err := q.Runner.Step(budget); err != nil {
		return err
	}
	if q.Runner.Done() {
		return fmt.Errorf("experiments: prework completed %q even at fraction %.3f of its true cost %.1f U", q.Label, frac, trueCost)
	}
	return nil
}

// fairShare is the instantaneous model speed C×w/W for a query — the
// fallback the single-query PI uses before it has observed any speed
// samples.
func fairShare(srv *sched.Server, q *sched.Query) float64 {
	W := 0.0
	for _, r := range srv.Running() {
		if r.Status == sched.StatusRunning {
			W += srv.WeightOf(r.Priority)
		}
	}
	if W <= 0 {
		return 0
	}
	return srv.RateC() * srv.WeightOf(q.Priority) / W
}

// singleEstimate is the single-query PI's remaining-time estimate t = c/s
// for one query: refined remaining cost over currently observed speed.
func singleEstimate(srv *sched.Server, q *sched.Query) float64 {
	s := q.ObservedSpeed()
	if s <= 0 {
		s = fairShare(srv, q)
	}
	return core.SingleQueryRemainingTime(q.Runner.EstRemaining(), s)
}

// singleEstimates is the single-query PI's estimate for each given query.
func singleEstimates(srv *sched.Server, queries []*sched.Query) map[int]float64 {
	out := make(map[int]float64, len(queries))
	for _, q := range queries {
		out[q.ID] = singleEstimate(srv, q)
	}
	return out
}

// firstFailed reports the first failed query of a batch as an error.
func firstFailed(queries []*sched.Query) error {
	for _, q := range queries {
		if q.Status == sched.StatusFailed {
			return fmt.Errorf("experiments: query %s failed: %w", q.Label, q.Err)
		}
	}
	return nil
}

// finishAll runs the server dry and fails if any query of the batch failed.
func finishAll(srv *sched.Server, queries []*sched.Query) error {
	srv.RunUntilIdle(1e9)
	return firstFailed(queries)
}

// time0Errs scores estimates taken at time 0 against the finish times the
// batch realized, in submission order.
func time0Errs(queries []*sched.Query, est map[int]float64) []float64 {
	errs := make([]float64, len(queries))
	for i, q := range queries {
		errs[i] = metrics.RelErr(est[q.ID], q.FinishTime)
	}
	return errs
}

// incrementalShadow, when non-nil, receives every §2.2 closed-form input the
// sweeps evaluate (states plus rate C). The experiments test installs a
// differential checker that patches a run-long core.IncrementalProfile and
// demands bit-identity with the from-scratch profile, so the paper sweeps
// double as a corpus for the incremental stage structure. Sweeps may evaluate
// estimates from pool workers, so the hook is called under shadowMu.
var (
	shadowMu          sync.Mutex
	incrementalShadow func(states []core.QueryState, C float64)
)

func shadowCheck(states []core.QueryState, C float64) {
	shadowMu.Lock()
	if incrementalShadow != nil {
		incrementalShadow(states, C)
	}
	shadowMu.Unlock()
}

// multiETAs is the sweeps' one way to ask for multi-query remaining times:
// the production estimate plane in stage mode — §2.2's closed form over
// in.Running, §2.3 once in.Queued is set, §2.4 once in.Arrivals is. The
// plane answers by position in the input; the sweeps score queries long after
// they left it, so they get a map by id, which is the caller's own.
func multiETAs(in core.EstimateInput) map[int]float64 {
	est, err := core.NewEstimator(core.EstimatorStage)
	if err != nil {
		panic(err) // the stage mode always exists
	}
	per := est.Estimates(in, core.EnsembleState{}).PerQuery
	out := make(map[int]float64, len(per))
	for i, e := range per {
		out[in.Query(i).ID] = e.MultiQuery
	}
	return out
}

// stageEstimates is the §2.2 closed form over explicit states, mirrored
// through the incremental shadow checker when one is installed. Every sweep's
// no-queue/no-arrival estimate goes through here.
func stageEstimates(states []core.QueryState, C float64) map[int]float64 {
	shadowCheck(states, C)
	return multiETAs(core.EstimateInput{Running: states, RateC: C})
}

// multiEstimates is the multi-query PI of §2.2 over the server's current
// running set.
func multiEstimates(srv *sched.Server) map[int]float64 {
	return stageEstimates(srv.StateRunning(), srv.RateC())
}

// runSampled ticks the server, invoking sample at time 0 and then every
// `every` virtual seconds, until stop returns true or the server idles.
// A final sample is taken when the loop exits.
func runSampled(srv *sched.Server, every float64, sample func(), stop func() bool) {
	next := srv.Now()
	for srv.Busy() && !stop() {
		if srv.Now()+1e-9 >= next {
			sample()
			next += every
		}
		srv.Tick()
	}
	sample()
}

// CostModel is a linear fit cost(N) ≈ Intercept + Slope×N of the optimizer
// cost of Q_i as a function of the part-table size parameter N. The SCQ
// experiments use it to give the multi-query PI the "exact average cost c̄"
// of future queries.
type CostModel struct {
	Intercept float64
	Slope     float64
}

// Cost evaluates the model.
func (m CostModel) Cost(n float64) float64 { return m.Intercept + m.Slope*n }

// fitCostModel plans Q over two scratch part tables and fits the line.
func fitCostModel(ds *workload.Dataset) (CostModel, error) {
	const (
		scratchIdx = 999983 // unlikely to collide with experiment tables
		nLo, nHi   = 1, 16
	)
	costAt := func(n int) (float64, error) {
		if err := ds.CreatePartTable(scratchIdx, n); err != nil {
			return 0, err
		}
		defer ds.DropPartTable(scratchIdx)
		p, err := ds.DB.Plan(workload.QuerySQL(scratchIdx))
		if err != nil {
			return 0, err
		}
		return p.EstCost(), nil
	}
	lo, err := costAt(nLo)
	if err != nil {
		return CostModel{}, err
	}
	hi, err := costAt(nHi)
	if err != nil {
		return CostModel{}, err
	}
	slope := (hi - lo) / float64(nHi-nLo)
	return CostModel{Intercept: lo - slope*nLo, Slope: slope}, nil
}
