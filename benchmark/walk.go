package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"mqpi/internal/cluster"
	"mqpi/internal/core"
	"mqpi/internal/engine"
	"mqpi/internal/engine/exec"
	"mqpi/internal/engine/plan"
	"mqpi/internal/engine/sql"
	"mqpi/internal/sched"
	"mqpi/internal/service"
	"mqpi/internal/wm"
	"mqpi/internal/workload"
)

// The layer walk times each layer's public functions on a shadow stack the
// driver owns: the raw engine, scheduler and estimators first, then a
// quiescent service.Manager, then a two-shard cluster. Everything is at the
// depth the live workloads run at (the names carry it: n1000 is 1000 queries
// in the system, r64_q936 is 64 running and 936 queued, h2000 is 2000
// terminated), so a layer's number can be set against the end-to-end one.
// Each number is a median over repeated calls.

const us = 1e3 // nanoseconds per microsecond

// perCall times k calls of f together and returns the median per-call
// nanoseconds over a few such batches: for calls too short to time singly.
func perCall(k int, f func(i int)) float64 {
	return medianOf(7, func() {
		for i := 0; i < k; i++ {
			f(i)
		}
	}) / float64(k)
}

// clampSelf is span self-time arithmetic on medians: a span minus its
// separately timed children, floored at zero.
func clampSelf(span float64, children ...float64) float64 {
	for _, c := range children {
		span -= c
	}
	return max(span, 0)
}

// prepareParts times DB.Prepare and, separately, the three steps it is made
// of, over the same statements.
func prepareParts(db *engine.DB, ops []queryOp) (parse, planT, build, prepare float64) {
	planner := plan.NewPlanner(db.Catalog())
	var ps, pl, bd, pr []float64
	for _, op := range ops {
		text := op.SQL()
		t0 := time.Now()
		sel, err := sql.ParseSelect(text)
		t1 := time.Now()
		if err != nil {
			panic(err) // the schedule renders only valid SQL
		}
		node, err := planner.PlanSelect(sel)
		t2 := time.Now()
		if err != nil {
			panic(err)
		}
		exec.NewRunner(node)
		t3 := time.Now()
		if _, err := db.Prepare(text); err != nil {
			panic(err)
		}
		t4 := time.Now()
		ps = append(ps, float64(t1.Sub(t0)))
		pl = append(pl, float64(t2.Sub(t1)))
		bd = append(bd, float64(t3.Sub(t2)))
		pr = append(pr, float64(t4.Sub(t3)))
	}
	return median(ps), median(pl), median(bd), median(pr)
}

// estimateInput mirrors what the service's owner assembles for its per-tick
// estimate pass.
func estimateInput(srv *sched.Server) core.EstimateInput {
	speeds := make(map[int]float64)
	for _, q := range srv.Running() {
		speeds[q.ID] = q.ObservedSpeed()
	}
	return core.EstimateInput{Running: srv.StateRunning(), Queued: srv.StateQueued(),
		MPL: srv.MPL(), RateC: srv.RateC(), Speeds: speeds}
}

func layerWalk(seed int64, sz sizes, workers int) (metrics, error) {
	m := metrics{}
	n, hist := sz.WalkDepth, sz.WalkHistory
	ops := templates(rngFor(seed, 90), n+hist+200)
	rng := rngFor(seed, 91)
	if err := walkRaw(m, ops, n, hist, rng, workers); err != nil {
		return nil, err
	}
	rt := replayTier
	if sz.Shrunk {
		rt = rt.shrunk()
	}
	if err := walkExec(m, rt, rng, workers); err != nil {
		return nil, err
	}
	if err := walkService(m, ops, n, rng, workers); err != nil {
		return nil, err
	}
	if err := walkCluster(m, ops, n, workers); err != nil {
		return nil, err
	}
	return m, nil
}

// walkRaw: sql, plan, engine, sched and core on the live tier's data.
func walkRaw(m metrics, ops []queryOp, n, hist int, rng *rand.Rand, workers int) error {
	ds, err := liveTier.dataset()
	if err != nil {
		return err
	}
	db := ds.DB
	parse, planT, _, prepare := prepareParts(db, ops[:200])
	m.set("sql.parse_us", parse/us, 200)
	m.set("plan.plan_us", planT/us, 200)
	m.set("engine.prepare_us", prepare/us, 200)

	srv := sched.New(liveTier.schedConfig(workers))
	defer srv.Close()
	var admit []float64
	submit := func(op queryOp) *sched.Query {
		r, err := db.Prepare(op.SQL())
		if err != nil {
			panic(err)
		}
		r.CollectRows = false
		t0 := time.Now()
		q := srv.NewQuery("", op.SQL(), 0, r)
		srv.Submit(q)
		admit = append(admit, float64(time.Since(t0)))
		return q
	}
	for _, op := range ops[:n] {
		submit(op)
	}
	admit = admit[:0]
	for _, op := range ops[n : n+50] {
		submit(op)
	}
	m.set("sched.submit_us.n1000", median(admit)/us, len(admit))

	for i := 0; i < 4; i++ {
		srv.Tick() // let speeds and refined costs settle before timing
	}
	m.set("sched.tick_us.r64", medianOf(40, srv.Tick)/us, 40)
	m.set("sched.snapshot_us.n1000", medianOf(30, func() { srv.Snapshot() })/us, 30)
	m.set("sched.states_us.n1000", medianOf(30, func() { srv.StateRunning(); srv.StateQueued() })/us, 30)

	// The owner's pass: a tick changed the running few, then estimate all.
	est, _ := core.NewEstimator(core.EstimatorStage)
	var pass []float64
	for i := 0; i < 20; i++ {
		srv.Tick()
		in := estimateInput(srv)
		t0 := time.Now()
		est.Estimates(in, core.EnsembleState{})
		pass = append(pass, float64(time.Since(t0)))
	}
	m.set("core.estimates_us.r64_q936", median(pass)/us, len(pass))

	// The same queries with no admission limit: all running, the closed-form
	// path. Between calls a tick's worth of them move, as they would live.
	states := append(srv.StateRunning(), srv.StateQueued()...)
	for i := range states {
		if states[i].Weight <= 0 {
			states[i].Weight = 1
		}
	}
	move := func() {
		for i := 0; i < liveTier.MPL && i < len(states); i++ {
			states[i].Remaining *= 0.999
		}
	}
	all, _ := core.NewEstimator(core.EstimatorStage)
	in := core.EstimateInput{Running: states, RateC: liveTier.RateC, Speeds: map[int]float64{}}
	all.Estimates(in, core.EnsembleState{})
	m.set("core.estimates_us.r1000", medianOf(20, func() { move(); all.Estimates(in, core.EnsembleState{}) })/us, 20)
	scratch := medianOf(20, func() { move(); core.ComputeProfile(states, liveTier.RateC) })
	ip := core.NewIncrementalProfile()
	ip.Sync(states)
	var prof core.Profile
	incr := medianOf(20, func() { move(); ip.Sync(states); ip.ProfileInto(liveTier.RateC, &prof) })
	m.set("core.profile_scratch_us.n1000", scratch/us, 20)
	m.set("core.profile_incr_us.n1000", incr/us, 20)
	m.set("core.incr_over_scratch", incr/scratch, 20)

	// History: terminated queries stay in the server for good.
	var ids []int
	for _, q := range srv.Running() {
		ids = append(ids, q.ID)
	}
	for _, q := range srv.Queued() {
		ids = append(ids, q.ID)
	}
	for _, op := range ops[n+50 : n+50+hist] {
		q := submit(op)
		if err := srv.Abort(q.ID); err != nil {
			return fmt.Errorf("walk: %w", err)
		}
		ids = append(ids, q.ID)
	}
	m.set("sched.snapshot_us.n1000_h2000", medianOf(30, func() { srv.Snapshot() })/us, 30)
	snap := srv.Snapshot()
	picks := make([]int, 2000)
	for i := range picks {
		picks[i] = ids[rng.Intn(len(ids))]
	}
	m.set("sched.lookup_us.n1000_h2000", perCall(len(picks), func(i int) { snap.Lookup(picks[i]) })/us, 7*len(picks))
	return nil
}

// runSteps drives a runner to completion in scheduler-sized steps and returns
// wall nanoseconds and charged U.
func runSteps(r *exec.Runner) (ns, u float64) {
	r.CollectRows = false
	t0 := time.Now()
	for done := false; !done; {
		c, d, err := r.Step(500)
		if err != nil {
			panic(err)
		}
		u, done = u+c, d
	}
	return float64(time.Since(t0)), u
}

// walkExec: the executor alone and under the scheduler, on the replay data.
func walkExec(m metrics, t tier, rng *rand.Rand, workers int) error {
	ds, err := t.dataset()
	if err != nil {
		return err
	}
	db := ds.DB
	var ns, u float64
	for v := 0; v < 3; v++ { // the three index-probe templates over part_1
		r, err := db.Prepare(workload.QuerySQLVariant(1, workload.QueryTemplate(v)))
		if err != nil {
			return err
		}
		dn, du := runSteps(r)
		ns, u = ns+dn, u+du
	}
	m.set("exec.step_ns_per_u", ns/u, 3)

	scans := make([]queryOp, 16)
	for i := range scans {
		scans[i].K = 1 + rng.Intn(49)
	}
	ns, u = 0, 0
	for _, s := range scans[:4] {
		r, err := db.Prepare(s.SQL())
		if err != nil {
			return err
		}
		dn, du := runSteps(r)
		ns, u = ns+dn, u+du
	}
	m.set("exec.scan_ns_per_u", ns/u, 4)

	// Sixteen concurrent scans through the scheduler, folded and not: the
	// same charged work, so the ratio is what sharing buys in wall-clock.
	group := func(fold bool) (nsPerU float64, fs sched.FoldStats) {
		cfg := scanTier.schedConfig(workers)
		cfg.Fold = fold
		srv := sched.New(cfg)
		defer srv.Close()
		for _, s := range scans {
			r, err := db.Prepare(s.SQL())
			if err != nil {
				panic(err)
			}
			r.CollectRows = false
			srv.Submit(srv.NewQuery("", s.SQL(), 0, r))
		}
		t0 := time.Now()
		srv.RunUntilIdle(1e9)
		wall := float64(time.Since(t0))
		charged := 0.0
		for _, q := range srv.Finished() {
			charged += srv.InfoOf(q).Done
		}
		return wall / charged, srv.FoldStats()
	}
	solo, _ := group(false)
	folded, fs := group(true)
	m.set("exec.fold_ns_per_u", folded, len(scans))
	m.set("exec.fold_over_solo", folded/solo, len(scans))
	m.set("exec.pages_saved_share", float64(fs.PagesSaved)/float64(fs.PagesSaved+fs.Fetches), len(scans))

	// A whole tick at the replay's depth: eight index-probe queries running.
	srv := sched.New(t.schedConfig(workers))
	defer srv.Close()
	for i := 0; i < 2*t.MPL; i++ {
		r, err := db.Prepare(workload.QuerySQL(1))
		if err != nil {
			return err
		}
		r.CollectRows = false
		srv.Submit(srv.NewQuery("", "", 0, r))
	}
	srv.Tick()
	m.set("sched.tick_us.r8", medianOf(40, srv.Tick)/us, 40)
	return nil
}

// walkService: a quiescent manager (manual clock, so nothing but the caller
// moves it) on the live tier's data.
func walkService(m metrics, ops []queryOp, n int, rng *rand.Rand, workers int) error {
	t := liveTier
	t.Tick = -1
	st, err := startStack(t, workers)
	if err != nil {
		return err
	}
	defer st.close()
	mgr := st.m
	var times []float64
	var ids []int
	submit := func(op queryOp) error {
		t0 := time.Now()
		v, err := mgr.Submit(service.SubmitRequest{SQL: op.SQL()})
		times = append(times, float64(time.Since(t0)))
		ids = append(ids, v.ID)
		return err
	}
	for _, op := range ops[:n] {
		if err := submit(op); err != nil {
			return fmt.Errorf("walk: %w", err)
		}
	}
	m.set("service.submit_us.n10", median(times[:10])/us, 10)
	// At depth, direct calls and calls through the handler take turns, so
	// both see the same depth and the difference is the handler's own share:
	// mux, JSON decode and encode.
	c := newClient(st.h, &gate{}, time.Now(), false)
	times = times[:0]
	var viaHTTP []float64
	for i, op := range ops[n : n+60] {
		if i%2 == 0 {
			if err := submit(op); err != nil {
				return fmt.Errorf("walk: %w", err)
			}
			continue
		}
		v, d, _ := c.submit(op.SQL(), "", time.Time{})
		viaHTTP = append(viaHTTP, float64(d))
		ids = append(ids, v.ID)
	}
	direct := median(times)
	m.set("service.submit_us.n1000", direct/us, len(times))
	m.set("service.http_submit_overhead_us", clampSelf(median(viaHTTP), direct)/us, len(viaHTTP))
	m.set("service.publish_self_us.n1000",
		clampSelf(direct/us, m["engine.prepare_us"].V, m["sched.submit_us.n1000"].V), len(times))

	// One quantum is one tick.
	perTick := medianOf(20, func() { mgr.Advance(t.Quantum) }) / us
	m.set("service.advance_us_per_tick.n1000", perTick, 20)
	m.set("service.aftertick_self_us.n1000", clampSelf(perTick, m["sched.tick_us.r64"].V), 20)

	// The first poll after an epoch bump computes the epoch's estimates; the
	// polls after it share them.
	var miss []float64
	for i := 0; i < 20; i++ {
		mgr.Advance(t.Quantum)
		t0 := time.Now()
		mgr.Progress(ids[0])
		miss = append(miss, float64(time.Since(t0)))
	}
	picks := make([]int, 500)
	for i := range picks {
		picks[i] = ids[rng.Intn(len(ids))]
	}
	hit := perCall(len(picks), func(i int) { mgr.Progress(picks[i]) })
	m.set("service.progress_miss_us", median(miss)/us, len(miss))
	m.set("service.progress_hit_us", hit/us, 7*len(picks))
	v, err := mgr.Progress(ids[0])
	if err != nil {
		return fmt.Errorf("walk: %w", err)
	}
	m.set("service.encode_view_us", perCall(200, func(int) { json.Marshal(v) })/us, 7*200)
	ov, _ := mgr.Overview()
	m.set("service.overview_ms.n1000", medianOf(9, func() { mgr.Overview() })/1e6, 9)
	m.set("service.encode_overview_ms.n1000", medianOf(5, func() { json.Marshal(ov) })/1e6, 5)

	pollHTTP := perCall(len(picks), func(i int) { c.poll(picks[i], false) })
	m.set("service.http_poll_overhead_us", clampSelf(pollHTTP, hit)/us, 7*len(picks))

	m.set("service.priority_us.n1000", medianOf(20, func() { mgr.SetPriority(ids[rng.Intn(n)], 1+rng.Intn(3)) })/us, 20)
	last := len(ids)
	m.set("service.abort_us.n1000", medianOf(20, func() { last--; mgr.Abort(ids[last]) })/us, 20)

	// The section 3 planners, over the snapshot at depth.
	m.set("wm.speedup_single_ms.n1000", medianOf(9, func() { mgr.SpeedUpSingle(ids[0], 3) })/1e6, 9)
	deadline := float64(ov.QuiescentETA) / 2
	m.set("wm.maintenance_ms.n1000",
		medianOf(9, func() { mgr.PlanMaintenance(deadline, wm.Case2TotalCost, false) })/1e6, 9)
	return nil
}

// walkCluster: what the front door adds over the shard it routes to. Two
// shards, least-loaded routing, half the depth on each.
func walkCluster(m metrics, ops []queryOp, n, workers int) error {
	t := liveTier
	t.Tick = -1
	var dbErr error
	cl, err := cluster.New(cluster.Config{Shards: 2, Routing: "least-loaded", Service: t.serviceConfig(workers),
		OpenDB: func() *engine.DB {
			ds, err := t.dataset()
			if err != nil {
				dbErr = err
				return engine.Open()
			}
			return ds.DB
		}})
	if err != nil {
		return err
	}
	defer cl.Close()
	if dbErr != nil {
		return dbErr
	}
	var gids []int
	for _, op := range ops[:n] {
		v, err := cl.Submit(cluster.SubmitRequest{SubmitRequest: service.SubmitRequest{SQL: op.SQL()}})
		if err != nil {
			return fmt.Errorf("walk: %w", err)
		}
		gids = append(gids, v.ID)
	}
	depth, sum := 0.0, 0.0
	for _, l := range cl.Loads() {
		d := float64(l.Admitted + l.Queued)
		depth, sum = max(depth, d), sum+d
	}
	m.set("cluster.shard_imbalance", depth/(sum/2), 2)

	shard := cl.Shard(0)
	sov, _ := shard.Overview()
	local := sov.Running[0].ID
	front := perCall(500, func(i int) { cl.Progress(gids[i%len(gids)]) })
	behind := perCall(500, func(int) { shard.Progress(local) })
	m.set("cluster.progress_overhead_us", clampSelf(front, behind)/us, 7*500)

	merged := medianOf(5, func() { cl.Overview() })
	shards := medianOf(5, func() { cl.Shard(0).Overview(); cl.Shard(1).Overview() })
	m.set("cluster.overview_merge_ms", clampSelf(merged, shards)/1e6, 5)

	// Alternate so both sit at the same depth while they are compared.
	var viaFront, viaShard []float64
	for i, op := range ops[n : n+40] {
		t0 := time.Now()
		if i%2 == 0 {
			cl.Submit(cluster.SubmitRequest{SubmitRequest: service.SubmitRequest{SQL: op.SQL()}})
			viaFront = append(viaFront, float64(time.Since(t0)))
		} else {
			shard.Submit(service.SubmitRequest{SQL: op.SQL()})
			viaShard = append(viaShard, float64(time.Since(t0)))
		}
	}
	m.set("cluster.submit_overhead_us", clampSelf(median(viaFront), median(viaShard))/us, len(viaFront))
	return nil
}
