package experiments

import (
	"fmt"
	"math"

	"mqpi/internal/core"
	"mqpi/internal/metrics"
	"mqpi/internal/sched"
	"mqpi/internal/wm"
	"mqpi/internal/workload"
)

// MaintenanceConfig configures the scheduled-maintenance experiment (§5.3,
// Figure 11): a steady-state mix of NumQueries queries (a query finishing
// triggers a fresh Zipf-sized submission), inspected at a random time rt to
// plan maintenance scheduled t seconds later. Case 2 lost work (total cost
// of aborted queries) is reported, as in the paper. Defaults: 10 runs (as in
// the paper) at multiprogramming level 10, Zipf a 2.2 over MaxN 20,
// C = 32 U/s, quantum 1 s.
type MaintenanceConfig struct {
	Common
	WarmupFinishes int // completions before rt; default 25
	// TFracs are the t/tfinish points of Figure 11's x axis.
	TFracs []float64
	// Case1 switches the lost-work definition to §3.3's Case 1 (completed
	// work of aborted queries); the default is the paper's Figure 11 choice,
	// Case 2 (total cost of aborted queries).
	Case1 bool
}

func (c MaintenanceConfig) withDefaults() MaintenanceConfig {
	c.Common = c.Common.withDefaults(Common{Runs: 10, NumQueries: 10, ZipfA: 2.2, MaxN: 20, RateC: 32, Quantum: 1})
	c.WarmupFinishes = orDefault(c.WarmupFinishes, 25)
	if len(c.TFracs) == 0 {
		c.TFracs = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	return c
}

// maintSnapshot captures one query's state at the inspection time rt.
type maintSnapshot struct {
	id        int
	doneWork  float64 // e_i: exact completed work at rt
	estRemain float64 // refined PI estimate of c_i
	speed     float64 // observed execution speed at rt (for the single PI)
	trueCost  float64 // e_i + true remaining work (known post hoc)
	trueRem   float64 // true remaining work at rt
}

// MaintenanceResult holds Figure 11 plus headline aggregates.
type MaintenanceResult struct {
	// Fig11: unfinished work UW/TW vs t/tfinish for the four methods.
	Fig11 metrics.Figure
	// SingleAtTFinish is the single-PI method's UW/TW at t = tfinish
	// (the paper reports 67%: it aborts large queries unnecessarily).
	SingleAtTFinish float64
	// MultiVsNoPI and MultiVsSingle are the average reductions of unfinished
	// work achieved by the multi-PI method over the other two for t<tfinish
	// (positive = multi is better).
	MultiVsNoPI   float64
	MultiVsSingle float64
	// MultiVsLimit is the multi-PI method's average excess over the
	// theoretical limit for t<tfinish.
	MultiVsLimit float64
}

// RunMaintenance reproduces Figure 11. For each run it simulates the warm
// steady state once, snapshots the n running queries at rt, drains the
// system to learn the true costs, and then evaluates every method at every
// t analytically (weighted fair sharing with equal priorities is
// work-conserving, so post-rt finish times follow the stage model exactly).
func RunMaintenance(cfg MaintenanceConfig) (*MaintenanceResult, error) {
	cfg = cfg.withDefaults()

	mode := wm.Case2TotalCost
	caseName := "Case 2"
	if cfg.Case1 {
		mode = wm.Case1CompletedWork
		caseName = "Case 1"
	}

	// uw is UW/TW at one t under the four methods, in Figure 11's series order.
	type uw [4]float64
	const (
		mNoPI = iota
		mSingle
		mMulti
		mLimit
	)

	// One cell per run: simulate the steady state and return the normalized
	// UW/TW contribution of every (t, method) point. The contributions are
	// then summed strictly in run order, so the final figure matches the
	// sequential accumulation bit for bit.
	seed := func(r int) cellSeed { return cellSeed{off: 904537 + int64(r)*7919} }
	cells, err := runCells(cfg.Common, cfg.Runs, seed, func(_ int, cl *cell) ([]uw, error) {
		snaps, err := runMaintenanceOnce(cl, cfg)
		if err != nil {
			return nil, err
		}
		// tfinish: system quiescent time under no interruption = total true
		// remaining work / C (work-conserving).
		totalRem := 0.0
		tw := 0.0
		for _, s := range snaps {
			totalRem += s.trueRem
			tw += s.trueCost
		}
		tfinish := totalRem / cfg.RateC
		if tfinish <= 0 || tw <= 0 {
			return nil, fmt.Errorf("experiments: degenerate maintenance run (tfinish=%g, tw=%g)", tfinish, tw)
		}
		cell := make([]uw, len(cfg.TFracs)) // indexed like cfg.TFracs
		for ti, frac := range cfg.TFracs {
			t := frac * tfinish
			uwMulti, err := evalMultiPI(snaps, cfg.RateC, t, mode)
			if err != nil {
				return nil, err
			}
			uwLimit, err := evalLimit(snaps, cfg.RateC, t, mode)
			if err != nil {
				return nil, err
			}
			cell[ti] = uw{
				mNoPI:   evalNoPI(snaps, cfg.RateC, t, mode) / tw,
				mSingle: evalSinglePI(snaps, cfg.RateC, t, mode) / tw,
				mMulti:  uwMulti / tw,
				mLimit:  uwLimit / tw,
			}
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	sums := make([]uw, len(cfg.TFracs))
	for _, cell := range cells {
		for ti, v := range cell {
			for m := range v {
				sums[ti][m] += v[m]
			}
		}
	}

	res := &MaintenanceResult{
		Fig11: metrics.Figure{
			Title:  fmt.Sprintf("Figure 11: unfinished work of the three methods vs theoretical limit (%s)", caseName),
			XLabel: "t / tfinish",
			YLabel: "UW / TW",
		},
	}
	var series [4]*metrics.Series
	for m, name := range [4]string{"no PI method", "single-query PI method", "multi-query PI method", "theoretical limitation"} {
		series[m] = res.Fig11.AddSeries(name)
	}
	var dNo, dSingle, dLimit []float64
	for ti, frac := range cfg.TFracs {
		v := sums[ti]
		for m := range v {
			v[m] /= float64(cfg.Runs)
			series[m].Add(frac, v[m])
		}
		if frac >= 0.999 {
			res.SingleAtTFinish = v[mSingle]
		} else {
			dNo = append(dNo, v[mNoPI]-v[mMulti])
			dSingle = append(dSingle, v[mSingle]-v[mMulti])
			dLimit = append(dLimit, v[mMulti]-v[mLimit])
		}
	}
	res.MultiVsNoPI = metrics.Mean(dNo)
	res.MultiVsSingle = metrics.Mean(dSingle)
	res.MultiVsLimit = metrics.Mean(dLimit)
	return res, nil
}

func (r *MaintenanceResult) report() *Report {
	return new(Report).figure("figure11", &r.Fig11).
		text("\nsingle-PI method at t=tfinish: UW/TW=%.2f (paper: 0.67)\n", r.SingleAtTFinish).
		text("multi-PI improvement vs no-PI: %.3f, vs single-PI: %.3f, excess over limit: %.3f (t<tfinish averages)\n",
			r.MultiVsNoPI, r.MultiVsSingle, r.MultiVsLimit)
}

// runMaintenanceOnce simulates the steady state for one run and returns the
// snapshots of the queries running at rt, with true costs filled in from the
// post-rt drain.
func runMaintenanceOnce(cl *cell, cfg MaintenanceConfig) ([]maintSnapshot, error) {
	zipf, err := cl.zipf()
	if err != nil {
		return nil, err
	}
	srv := cl.server(sched.Config{})
	nextIdx := 1
	newQuery := func() (*sched.Query, error) {
		q, err := buildPartQuery(cl.ds, srv, nextIdx, zipf.Sample(cl.rng), 0, workload.TemplateRetail)
		nextIdx++
		return q, err
	}

	finishes := 0
	replacing := true
	var submitErr error
	srv.OnStatus(func(f *sched.Query, _ sched.Status) {
		if f.Status != sched.StatusFinished && f.Status != sched.StatusFailed {
			return
		}
		finishes++
		if !replacing || submitErr != nil {
			return
		}
		q, err := newQuery()
		if err != nil {
			submitErr = err
			return
		}
		srv.Submit(q)
	})
	for i := 0; i < cfg.NumQueries; i++ {
		q, err := newQuery()
		if err != nil {
			return nil, err
		}
		// Start the initial mix at random points so early steady state is
		// less biased toward synchronized finishes.
		if err := prework(cl.ds, q, cl.rng.Float64()*0.9); err != nil {
			return nil, err
		}
		srv.Submit(q)
	}
	// Warm up: run until enough completions have churned the mix, plus a
	// small random extension so rt is not aligned with a completion.
	for finishes < cfg.WarmupFinishes && srv.Busy() {
		srv.Tick()
		if submitErr != nil {
			return nil, submitErr
		}
	}
	extra := cl.rng.Intn(20)
	for i := 0; i < extra && srv.Busy(); i++ {
		srv.Tick()
		if submitErr != nil {
			return nil, submitErr
		}
	}

	// Time rt: stop admissions (operation O1) and snapshot.
	replacing = false
	running := srv.Running()
	if len(running) == 0 {
		return nil, fmt.Errorf("experiments: no queries running at rt")
	}
	snaps := make([]maintSnapshot, 0, len(running))
	workAtRt := make(map[int]float64, len(running))
	for _, q := range running {
		speed := q.ObservedSpeed()
		if speed <= 0 {
			speed = fairShare(srv, q)
		}
		snaps = append(snaps, maintSnapshot{
			id:        q.ID,
			doneWork:  q.Runner.WorkDone(),
			estRemain: q.Runner.EstRemaining(),
			speed:     speed,
		})
		workAtRt[q.ID] = q.Runner.WorkDone()
	}

	// Drain to completion to learn true remaining costs.
	for srv.Busy() {
		srv.Tick()
	}
	for i := range snaps {
		q, ok := srv.Lookup(snaps[i].id)
		if !ok {
			return nil, fmt.Errorf("experiments: query %d vanished during drain", snaps[i].id)
		}
		if q.Status == sched.StatusFailed {
			return nil, fmt.Errorf("experiments: query %s failed: %w", q.Label, q.Err)
		}
		snaps[i].trueRem = q.Runner.WorkDone() - workAtRt[q.ID]
		snaps[i].trueCost = q.Runner.WorkDone()
	}
	return snaps, nil
}

// lostAtAbort returns the mode-dependent lost work of aborting a query that
// has completed `done` work in total (Case 1: the completed work is wasted;
// Case 2: the whole cost must be redone).
func lostAtAbort(s maintSnapshot, doneSinceRt float64, mode wm.LostWorkMode) float64 {
	if mode == wm.Case1CompletedWork {
		return s.doneWork + doneSinceRt
	}
	return s.trueCost
}

// workDoneBy returns how much work each query of prof, a profile of
// unit-weight queries, completes within its first t seconds: stage k runs
// every query still in it at C/W_k, so a query has done C·Σ dt_k/W_k over the
// part of each of its stages before t.
func workDoneBy(prof core.Profile, C, t float64) map[int]float64 {
	done := make(map[int]float64, len(prof.Order))
	perWeight, start := 0.0, 0.0
	for k, id := range prof.Order {
		if start < t {
			perWeight += C * math.Min(prof.StageDur[k], t-start) / prof.StageW[k]
			start += prof.StageDur[k]
		}
		done[id] = perWeight
	}
	return done
}

// keptUnfinished returns the lost work of queries kept at rt but still
// unfinished at deadline t: under equal-weight fair sharing their finish
// times follow the stage model over the true remaining costs.
func keptUnfinished(kept []maintSnapshot, C, t float64, mode wm.LostWorkMode) float64 {
	states := make([]core.QueryState, len(kept))
	for i, s := range kept {
		states[i] = core.QueryState{ID: s.id, Remaining: s.trueRem, Weight: 1, Done: s.doneWork}
	}
	prof := core.ComputeProfile(states, C)
	var doneBy map[int]float64
	if mode == wm.Case1CompletedWork {
		doneBy = workDoneBy(prof, C, t)
	}
	lost := 0.0
	for _, s := range kept {
		if prof.Finish[s.id] > t+1e-9 {
			lost += lostAtAbort(s, doneBy[s.id], mode)
		}
	}
	return lost
}

// evalNoPI: operations O1+O2 — nobody is aborted at rt; whatever has not
// finished by rt+t is aborted then.
func evalNoPI(snaps []maintSnapshot, C, t float64, mode wm.LostWorkMode) float64 {
	return keptUnfinished(snaps, C, t, mode)
}

// evalSinglePI: abort at rt every query whose single-query estimate c/s
// exceeds t (the single-query PI assumes current speeds persist and cannot
// anticipate the post-abort speed-up), then abort late finishers at rt+t.
func evalSinglePI(snaps []maintSnapshot, C, t float64, mode wm.LostWorkMode) float64 {
	lost := 0.0
	var kept []maintSnapshot
	for _, s := range snaps {
		est := core.SingleQueryRemainingTime(s.estRemain, s.speed)
		if est > t+1e-9 {
			lost += lostAtAbort(s, 0, mode)
			continue
		}
		kept = append(kept, s)
	}
	return lost + keptUnfinished(kept, C, t, mode)
}

// evalMultiPI: the §3.3 greedy knapsack over the PI's estimated remaining
// costs, then abort late finishers at rt+t.
func evalMultiPI(snaps []maintSnapshot, C, t float64, mode wm.LostWorkMode) (float64, error) {
	states := make([]core.QueryState, len(snaps))
	for i, s := range snaps {
		states[i] = core.QueryState{ID: s.id, Remaining: s.estRemain, Weight: 1, Done: s.doneWork}
	}
	plan, err := wm.PlanMaintenance(states, C, t, mode)
	if err != nil {
		return 0, err
	}
	return evalAbortSet(snaps, plan.Abort, C, t, mode), nil
}

// evalLimit: the theoretical limitation — the exact optimal abort set
// computed from the true run-to-completion costs.
func evalLimit(snaps []maintSnapshot, C, t float64, mode wm.LostWorkMode) (float64, error) {
	states := make([]core.QueryState, len(snaps))
	for i, s := range snaps {
		states[i] = core.QueryState{ID: s.id, Remaining: s.trueRem, Weight: 1, Done: s.doneWork}
	}
	plan, err := wm.PlanMaintenanceExact(states, C, t, mode)
	if err != nil {
		return 0, err
	}
	return evalAbortSet(snaps, plan.Abort, C, t, mode), nil
}

// evalAbortSet charges the lost work of queries aborted at rt plus that of
// kept queries that still miss the deadline.
func evalAbortSet(snaps []maintSnapshot, abort []int, C, t float64, mode wm.LostWorkMode) float64 {
	abortSet := make(map[int]bool, len(abort))
	for _, id := range abort {
		abortSet[id] = true
	}
	lost := 0.0
	var kept []maintSnapshot
	for _, s := range snaps {
		if abortSet[s.id] {
			lost += lostAtAbort(s, 0, mode)
			continue
		}
		kept = append(kept, s)
	}
	return lost + keptUnfinished(kept, C, t, mode)
}
