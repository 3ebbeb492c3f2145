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
	"mqpi/internal/sched"
	"mqpi/internal/workload"
)

// buildPartQuery creates part_idx with the given N, plans the paper's query
// Q_idx over it, and wraps it as a scheduler query. Result rows are
// discarded (the experiments only account work).
func buildPartQuery(ds *workload.Dataset, srv *sched.Server, idx, n, priority int) (*sched.Query, error) {
	return buildPartQueryTmpl(ds, srv, idx, n, priority, workload.TemplateRetail)
}

// buildPartQueryTmpl is buildPartQuery with an explicit query template, for
// the mixed-workload experiments that check the paper's "other kinds of
// queries" claim.
func buildPartQueryTmpl(ds *workload.Dataset, srv *sched.Server, idx, n, priority int, tmpl workload.QueryTemplate) (*sched.Query, error) {
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

// prework advances a query to a random point of its execution before time 0,
// as the MCQ and SCQ experiments require ("each query was at a random point
// of its execution"). The fraction is uniform in [0, maxFrac).
//
// The budget is frac × EstCost(), an optimizer estimate. If the optimizer
// overestimates (stale statistics, say), that budget can run the query to
// completion before the experiment even starts — and the completed run has
// revealed the true cost, so the query is re-prepared and advanced by
// frac × trueCost instead. A query that completes even on its true cost is an
// error: the experiment would be measuring nothing.
func prework(ds *workload.Dataset, q *sched.Query, rng *rand.Rand, maxFrac float64) error {
	frac := rng.Float64() * maxFrac
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
// in.Running, §2.3 once in.Queued is set, §2.4 once in.Arrivals is. The map
// is the caller's own.
func multiETAs(in core.EstimateInput) map[int]float64 {
	est, err := core.NewEstimator(core.EstimatorStage)
	if err != nil {
		panic(err) // the stage mode always exists
	}
	per := est.Estimates(in, core.EnsembleState{}).PerQuery
	out := make(map[int]float64, len(per))
	for id, e := range per {
		out[id] = e.MultiQuery
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
