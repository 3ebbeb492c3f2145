package sim

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"mqpi/internal/core"
	"mqpi/internal/service"
)

// A checker validates one shard's state after every simulated action — there
// is one per shard, each with its own history, and only the shard an action
// was routed to is told it was mutated or perturbed (an advance or a DML
// broadcast tells all of them):
//
//	I1  epoch monotonicity — the published snapshot epoch and the virtual
//	    clock never move backwards, and every mutation publishes a fresh
//	    epoch;
//	I2  MPL — admitted queries (running + blocked) never exceed the limit;
//	I3  slot conservation — a non-empty admission queue implies every MPL
//	    slot is occupied (no free-slot starvation);
//	I4  work monotonicity — no query's completed work ever decreases;
//	I5  work conservation — total completed work never exceeds C×now (plus
//	    tuple-granularity slack), and an advance during which some query ran
//	    throughout delivers at least C×Δt of aggregate work;
//	I6  estimate consistency — every published view's single- and multi-query
//	    ETA (and the quiescent ETA) is bit-identical to recomputing
//	    core.ComputeEstimates from the same published state, position by
//	    position, and to what a poll of that one query finds by id: the read
//	    path re-predicts at every boundary, never serving stale estimates or
//	    another query's;
//	I7  stage-model exactness — between unplanned perturbations (arrivals,
//	    block/unblock, priority changes, aborts, DML), each query's measured
//	    finish time matches its last prediction, and predictions do not
//	    drift, within a quantization tolerance;
//	I8  metrics consistency — counters never decrease, depth gauges match
//	    the published snapshot, lifecycle counters match the terminated set;
//	I9  event lifecycle ordering — no query finishes before it was admitted,
//	    is admitted before it was submitted, or unblocks before it blocked;
//	I10 incremental-profile identity — a single incremental stage structure,
//	    patched across every action of the run, materializes a profile
//	    bit-identical (Order, StageDur, Finish, Shared) to core.ComputeProfile
//	    built from scratch on the same published states;
//	I11 fold conservation — shared-scan folding moves only the engine-cost
//	    plane: no query's cost exceeds its charged work, the registry's saved
//	    pages equal Σ(done−cost) over every query ever admitted exactly (all
//	    charges are whole units, so the equality is float-exact), and with
//	    folding never enabled the two planes are identical.
//	I13 estimator-plane transparency — a run-long stage-mode core.Estimator
//	    fed the published state returns a bundle bit-identical to
//	    core.ComputeEstimates (no blend weights, degenerate bands), and every
//	    live view's band is degenerate at its point estimate
//	    (ETALow == MultiETA == ETAHigh, bitwise): the pluggable estimate
//	    plane is a perfect wrapper until a non-stage mode is opted into.
//	I14 oracle agreement — on every state, with or without an admission
//	    queue, each published multi-query ETA and the quiescent ETA agree
//	    with core.SimulateProfile, the event-stepped replay of §2.2–2.3, on
//	    the same published state: +Inf for +Inf, finite values within
//	    1e-9·max(1, |oracle|). I6 and I13 compare the finish-tag pass with
//	    itself, so they cannot see it drift from the model; this can.
//
// The router pass (checkRouter) then checks, on the front door's merged
// overview and counters, what no single shard can see:
//
//	C1  placement — every global id the front door handed out appears in the
//	    merged view, and nothing else does;
//	C2  gid uniqueness — no global id appears twice (two shards, or two
//	    sections);
//	C3  no lost work — the merged sections add up to the accepted
//	    submissions: an abort moves a query between sections, never drops it;
//	C4  clock bound — no shard's virtual clock outruns the total the driver
//	    advanced the tier by;
//	C5  admission ledger — the per-shard routed counters sum to the accepted
//	    submissions and the rejected counter equals the refusals observed.
//
// I12 — fold on/off runs of the same seed agree on every charged-plane
// observable — is a cross-run property, checked by TestFoldSimMatrix rather
// than by this per-action checker. Its estimator-plane sibling — stage-mode
// traces byte-identical between Estimator "" and "stage" configs — lives in
// TestSimEstimatorMatrix. The estimate-exactness invariants (I6, I7, I13, I14)
// only run in stage mode; ensemble modes serve blended heuristic points that
// the paper's exact stage model does not govern.
type checker struct {
	m *service.Manager
	// tag prefixes every line this checker traces and every violation it
	// reports: "" on a one-shard tier, "[i] " for shard i otherwise.
	tag       string
	rateC     float64
	quantum   float64
	mpl       int
	slackPerQ float64 // per-query work-accounting slop, in U's

	lastEpoch uint64
	lastSeq   int64
	lastNow   float64
	counters  map[string]float64
	done      map[int]float64 // latest per-query completed work
	prevDone  map[int]float64 // per-query completed work at the previous check
	prevEst   map[int]float64 // per-query Done+Remaining at the previous check
	predAbs   map[int]float64 // last finite absolute predicted finish, by query
	predAt    map[int]float64 // virtual time at which that prediction was read
	predSlack map[int]float64 // credit-displacement allowance at prediction time, seconds
	prevRun   map[int]bool    // queries with status "running" at the last check
	seen      map[int]map[string]bool
	foldEver  bool // folding was enabled at some check (I11's off-mode gate)

	// exactChecked / exactVoided count the checks where the stage-model
	// drift invariant ran vs. was voided because some query left the fluid
	// model (cost refinement or chunk-granularity burst/payback). Tests
	// assert exactChecked dominates, so I7 cannot silently go vacuous.
	exactChecked int
	exactVoided  int
	// oracleChecked counts the states I14 ran on and queueChecked those of
	// them with a non-empty admission queue, so a matrix that never queued
	// anything fails too.
	oracleChecked, queueChecked int

	// incProf is I10's long-lived incremental stage structure: one instance
	// survives the whole run, patched (never rebuilt) at every check, so the
	// invariant exercises the structure's event path rather than a fresh
	// build. incOut is its reused materialization target.
	incProf *core.IncrementalProfile
	incOut  core.Profile

	// stageMode gates the estimate-exactness invariants (I6, I7, I13, I14): they
	// only hold for the exact stage plane, not for blended ensemble points.
	// plane is I13's run-long stage-mode Estimator instance — like incProf,
	// one instance survives the whole run, so any state the pluggable plane
	// accidentally accreted would surface as drift from the pure oracle.
	stageMode bool
	plane     core.Estimator

	violations *[]string // the run's, shared with the other checkers
}

// checkCtx tells a shard's checker what the action just applied did to it.
type checkCtx struct {
	action   int
	mutated  bool // invoked a mutating Manager method (publishes an epoch)
	advanced bool // the action was a Advance (virtual time may have moved)
	// perturbed marks unplanned changes to the query mix (submission, block,
	// unblock, abort, priority, DML): stage-model predictions taken before
	// the action are void.
	perturbed bool
}

// overshootSlack bounds the work-accounting slop per query: one indivisible
// work chunk (a page, or one correlated-subquery evaluation) may overshoot
// its budget per settle, and balances carry between rounds. The checker adds
// the largest single charge on top — sort materialization bills 2×pages of
// the sorted set in one chunk, which scales with the table size.
const overshootSlack = 12.0

func newChecker(m *service.Manager, cfg Config, tag string, violations *[]string) *checker {
	stage := cfg.Estimator == "" || cfg.Estimator == core.EstimatorStage
	var plane core.Estimator
	if stage {
		var err error
		if plane, err = core.NewEstimator(core.EstimatorStage); err != nil {
			panic(err) // unreachable: the stage mode always constructs
		}
	}
	return &checker{
		m:          m,
		tag:        tag,
		violations: violations,

		rateC:     cfg.RateC,
		quantum:   cfg.Quantum,
		slackPerQ: overshootSlack + 2*math.Ceil(float64(cfg.Rows)/64),
		mpl:       cfg.MPL,
		counters:  make(map[string]float64),
		done:      make(map[int]float64),
		prevDone:  make(map[int]float64),
		prevEst:   make(map[int]float64),
		predAbs:   make(map[int]float64),
		predAt:    make(map[int]float64),
		predSlack: make(map[int]float64),
		prevRun:   make(map[int]bool),
		seen:      make(map[int]map[string]bool),
		incProf:   core.NewIncrementalProfile(),
		stageMode: stage,
		plane:     plane,
	}
}

func (c *checker) fail(tr *strings.Builder, ctx checkCtx, format string, args ...interface{}) {
	violate(tr, c.violations, ctx.action, c.tag+fmt.Sprintf(format, args...))
}

// violate records one violation in the run's list and in its trace.
func violate(tr *strings.Builder, violations *[]string, action int, msg string) {
	v := fmt.Sprintf("action %d: %s", action, msg)
	*violations = append(*violations, v)
	fmt.Fprintf(tr, "VIOLATION %s\n", v)
}

func isFinite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// check runs every invariant against the current service state and appends
// the new events plus a state line to the trace.
func (c *checker) check(tr *strings.Builder, ctx checkCtx) {
	ov, err := c.m.Overview()
	if err != nil {
		c.fail(tr, ctx, "overview: %v", err)
		return
	}

	// New events since the last check, in global sequence order.
	var newEvents []service.Event
	for _, ev := range c.m.Events(0) {
		if ev.Seq > c.lastSeq {
			newEvents = append(newEvents, ev)
		}
	}
	for _, ev := range newEvents {
		fmt.Fprintf(tr, "%se%04d t=%s q%d %s %s\n", c.tag, ev.Seq, g(ev.Virtual), ev.QueryID, ev.Type, ev.Detail)
		if ev.Seq > c.lastSeq {
			c.lastSeq = ev.Seq
		}
	}

	// I1: epoch monotonicity.
	if ov.Epoch < c.lastEpoch {
		c.fail(tr, ctx, "I1 epoch moved backwards: %d -> %d", c.lastEpoch, ov.Epoch)
	}
	if ctx.mutated && ov.Epoch == c.lastEpoch {
		c.fail(tr, ctx, "I1 mutation did not publish a new epoch (still %d)", ov.Epoch)
	}
	if ov.Now < c.lastNow-1e-9 {
		c.fail(tr, ctx, "I1 virtual time moved backwards: %s -> %s", g(c.lastNow), g(ov.Now))
	}

	// I2: MPL never exceeded (blocked queries hold their slot).
	if c.mpl > 0 && len(ov.Running) > c.mpl {
		c.fail(tr, ctx, "I2 MPL exceeded: %d admitted > %d", len(ov.Running), c.mpl)
	}
	// I3: slot conservation.
	if c.mpl > 0 && len(ov.Queued) > 0 && len(ov.Running) < c.mpl {
		c.fail(tr, ctx, "I3 admission queue non-empty (%d) with free MPL slots (%d/%d)",
			len(ov.Queued), len(ov.Running), c.mpl)
	}

	// Gather every view; all terminated queries stay in Finished forever.
	all := make([]service.QueryView, 0, len(ov.Running)+len(ov.Queued)+len(ov.Scheduled)+len(ov.Finished))
	all = append(all, ov.Running...)
	all = append(all, ov.Queued...)
	all = append(all, ov.Scheduled...)
	all = append(all, ov.Finished...)

	// I4 + I5: per-query work monotonicity and global work conservation.
	totalDone := 0.0
	for _, v := range all {
		if prev, ok := c.done[v.ID]; ok && v.Done < prev-1e-9 {
			c.fail(tr, ctx, "I4 q%d work decreased: %s -> %s", v.ID, g(prev), g(v.Done))
		}
		c.done[v.ID] = v.Done
		totalDone += v.Done
	}
	slack := c.slackPerQ * float64(len(c.done)+1)
	if budget := c.rateC * ov.Now; totalDone > budget+slack {
		c.fail(tr, ctx, "I5 total work %s exceeds budget C*now=%s (+%s slack)",
			g(totalDone), g(budget), g(slack))
	}
	prevTotal := 0.0
	for _, d := range c.prevDone {
		prevTotal += d
	}
	if ctx.advanced && ov.Now > c.lastNow {
		// Work conservation lower bound needs a witness that was runnable for
		// the whole advance: a query running at both checks never left the
		// running state in between (no action intervened).
		witness := false
		for _, v := range ov.Running {
			if v.Status == "running" && c.prevRun[v.ID] {
				witness = true
				break
			}
		}
		if witness {
			want := c.rateC*(ov.Now-c.lastNow) - slack
			if totalDone-prevTotal < want {
				c.fail(tr, ctx, "I5 advance %s..%s delivered %s U, want >= %s U (work-conserving)",
					g(c.lastNow), g(ov.Now), g(totalDone-prevTotal), g(want))
			}
		}
	}

	// I11: fold conservation. Folding may only move the cost plane, and the
	// registry's lifetime saved-pages counter must account for the work/cost
	// gap of every query ever admitted — including aborted and failed ones,
	// whose meters freeze with their rides intact.
	if ov.Fold.Enabled {
		c.foldEver = true
	}
	savedSum := 0.0
	for _, v := range all {
		if v.Cost > v.Done {
			c.fail(tr, ctx, "I11 q%d engine cost %s exceeds charged work %s", v.ID, g(v.Cost), g(v.Done))
		}
		if !c.foldEver && v.Cost != v.Done {
			c.fail(tr, ctx, "I11 q%d cost %s != done %s with folding never enabled", v.ID, g(v.Cost), g(v.Done))
		}
		savedSum += v.Done - v.Cost
	}
	if savedSum != float64(ov.Fold.PagesSaved) {
		c.fail(tr, ctx, "I11 sum(done-cost) = %s, registry saved %d pages (must be exact)",
			g(savedSum), ov.Fold.PagesSaved)
	}

	// I6: estimate consistency — recompute the bundle from the published
	// views and compare bit-for-bit.
	c.checkEstimates(tr, ctx, &ov)

	// I7: stage-model exactness over the batch's events.
	c.checkExactness(tr, ctx, &ov, newEvents)

	// I8: metrics consistency.
	c.checkMetrics(tr, ctx, &ov)

	// I9: event lifecycle ordering.
	c.checkLifecycle(tr, ctx, newEvents)

	// Bookkeeping for the next check.
	c.lastEpoch = ov.Epoch
	c.lastNow = ov.Now
	c.prevDone = make(map[int]float64, len(c.done))
	for id, d := range c.done {
		c.prevDone[id] = d
	}
	c.prevRun = make(map[int]bool)
	c.predAbs = make(map[int]float64)
	c.predAt = make(map[int]float64)
	for _, v := range ov.Running {
		if v.Status == "running" {
			c.prevRun[v.ID] = true
		}
	}
	c.prevEst = make(map[int]float64)
	c.predSlack = make(map[int]float64)
	credSlack := c.creditSlack(&ov)
	for _, v := range append(append([]service.QueryView(nil), ov.Running...), ov.Queued...) {
		c.prevEst[v.ID] = v.Done + v.Remaining
		if eta := float64(v.MultiETA); (v.Status == "running" || v.Status == "queued") && isFinite(eta) {
			c.predAbs[v.ID] = ov.Now + eta
			c.predAt[v.ID] = ov.Now
			c.predSlack[v.ID] = credSlack(v.Weight)
		}
	}

	// State line: full-precision summary, no wall-clock values.
	nRun, nBlk := 0, 0
	for _, v := range ov.Running {
		if v.Status == "blocked" {
			nBlk++
		} else {
			nRun++
		}
	}
	fmt.Fprintf(tr, "%ss%03d now=%s epoch=%d run=%d blk=%d queued=%d sched=%d fin=%d done=%s\n",
		c.tag, ctx.action, g(ov.Now), ov.Epoch, nRun, nBlk, len(ov.Queued), len(ov.Scheduled), len(ov.Finished), g(totalDone))
	if debugViews {
		for _, v := range append(append([]service.QueryView(nil), ov.Running...), ov.Queued...) {
			fmt.Fprintf(tr, "%s  dbg q%d %s w=%s done=%s rem=%s eta=%s\n",
				c.tag, v.ID, v.Status, g(v.Weight), g(v.Done), g(v.Remaining), g(float64(v.MultiETA)))
		}
	}
}

// checkRouter is the router pass: C1–C5 on the merged overview, then — when
// there is a front door in front of the one shard's own lines — the tier's
// state line.
func (s *sim) checkRouter() {
	fail := func(format string, args ...interface{}) {
		violate(&s.tr, &s.violations, s.actionN, fmt.Sprintf(format, args...))
	}
	ov, err := s.c.Overview()
	if err != nil {
		fail("merged overview: %v", err)
		return
	}

	seen := map[int]string{}
	sections := []struct {
		name  string
		views []service.QueryView
	}{{"running", ov.Running}, {"queued", ov.Queued}, {"scheduled", ov.Scheduled}, {"finished", ov.Finished}}
	total := 0
	for _, sec := range sections {
		total += len(sec.views)
		for _, v := range sec.views {
			if prev, dup := seen[v.ID]; dup {
				fail("C2 gid %d appears in both %s and %s", v.ID, prev, sec.name)
			}
			seen[v.ID] = sec.name
		}
	}
	if len(seen) != len(s.accepted) {
		fail("C1 merged view holds %d queries, accepted %d", len(seen), len(s.accepted))
	}
	for _, gid := range s.accepted {
		if _, ok := seen[gid]; !ok {
			fail("C1 accepted gid %d vanished from the merged view", gid)
		}
	}
	if total != s.submitted {
		fail("C3 view total %d != %d accepted submissions", total, s.submitted)
	}
	for i, sh := range ov.Shards {
		if sh.Now > s.advanced+1e-9 {
			fail("C4 shard %d clock %s beyond advanced total %s", i, g(sh.Now), g(s.advanced))
		}
	}
	routed := uint64(0)
	for _, n := range s.c.Metrics().RoutedCounts() {
		routed += n
	}
	if routed != uint64(s.submitted) {
		fail("C5 routed %d != accepted %d", routed, s.submitted)
	}
	if got := s.c.Metrics().Rejected(); got != uint64(s.rejected) {
		fail("C5 rejected counter %d != observed %d", got, s.rejected)
	}

	if !s.c.FrontDoor() {
		return
	}
	// Per-shard section counts, clocks and owed work as the front door reports
	// them — nothing wall-clock- or worker-dependent.
	fmt.Fprintf(&s.tr, "state")
	for _, sh := range ov.Shards {
		fmt.Fprintf(&s.tr, " s%d[now=%s r=%d q=%d s=%d f=%d rem=%s]",
			sh.Shard, g(sh.Now), sh.Running, sh.Queued, sh.Scheduled, sh.Finished, g(sh.RemainingU))
	}
	fmt.Fprintf(&s.tr, " rejected=%d\n", s.rejected)
}

func (c *checker) checkEstimates(tr *strings.Builder, ctx checkCtx, ov *service.Overview) {
	running := make([]core.QueryState, 0, len(ov.Running))
	speeds := make(map[int]float64, len(ov.Running))
	for _, v := range ov.Running {
		running = append(running, core.QueryState{ID: v.ID, Remaining: v.Remaining, Weight: v.Weight, Done: v.Done, Fold: v.FoldGroup})
		speeds[v.ID] = v.Speed
	}
	queued := make([]core.QueryState, 0, len(ov.Queued))
	for _, v := range ov.Queued {
		queued = append(queued, core.QueryState{ID: v.ID, Remaining: v.Remaining, Weight: v.Weight, Done: v.Done})
	}

	// I10: the run-long incremental profile, synced to the published running
	// set, must materialize bit-for-bit what a from-scratch build produces.
	// It concerns the stage structure, not the estimate surface, so it runs
	// in every estimator mode.
	c.checkIncremental(tr, ctx, running, ov.RateC)

	if !c.stageMode {
		return
	}
	in := core.EstimateInput{
		Running: running,
		Queued:  queued,
		MPL:     ov.MPL,
		RateC:   ov.RateC,
		Speeds:  speeds,
	}
	want := core.ComputeEstimates(in)
	sameFloat := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	// Estimates are positional: want.PerQuery[i] belongs to query i of
	// running ++ queued, which is the order the overview lists them in. The
	// poll of one query finds its estimate by id instead, and must find the
	// same one — the ids line up with the positions.
	views := append(append([]service.QueryView(nil), ov.Running...), ov.Queued...)
	for i, v := range views {
		w := want.PerQuery[i]
		if p, err := c.m.Progress(v.ID); err != nil || p.ID != v.ID ||
			!sameFloat(float64(p.MultiETA), float64(v.MultiETA)) || !sameFloat(float64(p.SingleETA), float64(v.SingleETA)) {
			c.fail(tr, ctx, "I6 q%d polled by id (%s,%s) (err %v), at position %d of the overview (%s,%s)", v.ID,
				g(float64(p.SingleETA)), g(float64(p.MultiETA)), err, i, g(float64(v.SingleETA)), g(float64(v.MultiETA)))
		}
		if !sameFloat(float64(v.MultiETA), w.MultiQuery) {
			c.fail(tr, ctx, "I6 q%d multi ETA stale: view %s, recomputed %s",
				v.ID, g(float64(v.MultiETA)), g(w.MultiQuery))
		}
		if !sameFloat(float64(v.SingleETA), w.SingleQuery) {
			c.fail(tr, ctx, "I6 q%d single ETA stale: view %s, recomputed %s",
				v.ID, g(float64(v.SingleETA)), g(w.SingleQuery))
		}
		// I13, view form: stage-mode bands are degenerate at the point.
		if !sameFloat(float64(v.ETALow), float64(v.MultiETA)) || !sameFloat(float64(v.ETAHigh), float64(v.MultiETA)) {
			c.fail(tr, ctx, "I13 q%d stage-mode band [%s,%s] not degenerate at point %s",
				v.ID, g(float64(v.ETALow)), g(float64(v.ETAHigh)), g(float64(v.MultiETA)))
		}
	}
	if !sameFloat(float64(ov.QuiescentETA), want.Quiescent) {
		c.fail(tr, ctx, "I6 quiescent ETA stale: view %s, recomputed %s",
			g(float64(ov.QuiescentETA)), g(want.Quiescent))
	}

	// I13, plane form: the run-long pluggable stage estimator must be a
	// perfect, stateless wrapper — same input, bit-identical bundle to the
	// pure oracle, no blend weights, bands collapsed onto the point.
	got := c.plane.Estimates(in, core.EnsembleState{})
	if got.Weights != nil {
		c.fail(tr, ctx, "I13 stage estimator reported blend weights %v", got.Weights)
	}
	if len(got.PerQuery) != len(want.PerQuery) {
		c.fail(tr, ctx, "I13 stage estimator returned %d estimates, oracle %d",
			len(got.PerQuery), len(want.PerQuery))
		return
	}
	for i, w := range want.PerQuery {
		id, ge := in.Query(i).ID, got.PerQuery[i]
		if !sameFloat(ge.MultiQuery, w.MultiQuery) || !sameFloat(ge.SingleQuery, w.SingleQuery) {
			c.fail(tr, ctx, "I13 q%d plane ETA (%s,%s), oracle (%s,%s) (bitwise)",
				id, g(ge.SingleQuery), g(ge.MultiQuery), g(w.SingleQuery), g(w.MultiQuery))
		}
		if !sameFloat(ge.ETALow, w.ETALow) || !sameFloat(ge.ETAHigh, w.ETAHigh) {
			c.fail(tr, ctx, "I13 q%d plane band [%s,%s], oracle [%s,%s] (bitwise)",
				id, g(ge.ETALow), g(ge.ETAHigh), g(w.ETALow), g(w.ETAHigh))
		}
	}
	if !sameFloat(got.Quiescent, want.Quiescent) {
		c.fail(tr, ctx, "I13 plane quiescent %s, oracle %s (bitwise)", g(got.Quiescent), g(want.Quiescent))
	}

	// I14: what was published came from the finish-tag pass; hold it against
	// the event-stepped replay of the same state.
	c.oracleChecked++
	if len(queued) > 0 {
		c.queueChecked++
	}
	agrees := func(got, oracle float64) bool {
		if !isFinite(got) || !isFinite(oracle) {
			return sameFloat(got, oracle)
		}
		return math.Abs(got-oracle) <= 1e-9*math.Max(1, math.Abs(oracle))
	}
	oracle := core.SimulateProfile(running, ov.RateC, core.SimOptions{MPL: ov.MPL, Queued: queued}).Finish
	quiescent := 0.0
	for _, v := range views {
		o := oracle[v.ID]
		if !agrees(float64(v.MultiETA), o) {
			c.fail(tr, ctx, "I14 q%d multi ETA %s, event-stepped oracle %s", v.ID, g(float64(v.MultiETA)), g(o))
		}
		if isFinite(o) && o > quiescent {
			quiescent = o
		}
	}
	if !agrees(float64(ov.QuiescentETA), quiescent) {
		c.fail(tr, ctx, "I14 quiescent ETA %s, event-stepped oracle %s", g(float64(ov.QuiescentETA)), g(quiescent))
	}
}

// checkIncremental is invariant I10: patch the checker's long-lived
// incremental stage structure to the published running set and demand its
// materialized profile be bit-identical to core.ComputeProfile built from
// scratch. Because the same structure persists across all of the run's
// arrivals, finishes, blocks, priority flips, and cost refinements, any
// divergence between the O(log n) patch path and the O(n log n) oracle
// surfaces at the first action that breaks it.
func (c *checker) checkIncremental(tr *strings.Builder, ctx checkCtx, running []core.QueryState, rateC float64) {
	c.incProf.Sync(running)
	c.incProf.ProfileInto(rateC, &c.incOut)
	want := core.ComputeProfile(running, rateC)
	if len(c.incOut.Order) != len(want.Order) || len(c.incOut.Finish) != len(want.Finish) {
		c.fail(tr, ctx, "I10 incremental profile shape: %d stages/%d finishes, want %d/%d",
			len(c.incOut.Order), len(c.incOut.Finish), len(want.Order), len(want.Finish))
		return
	}
	for i, id := range want.Order {
		if c.incOut.Order[i] != id {
			c.fail(tr, ctx, "I10 stage %d is q%d, want q%d", i, c.incOut.Order[i], id)
			return
		}
		if math.Float64bits(c.incOut.StageDur[i]) != math.Float64bits(want.StageDur[i]) {
			c.fail(tr, ctx, "I10 stage %d duration %s, want %s (bitwise)",
				i, g(c.incOut.StageDur[i]), g(want.StageDur[i]))
			return
		}
	}
	for id, w := range want.Finish {
		got, ok := c.incOut.Finish[id]
		if !ok || (math.Float64bits(got) != math.Float64bits(w) && !(math.IsNaN(got) && math.IsNaN(w))) {
			c.fail(tr, ctx, "I10 q%d finish %s, want %s (bitwise)", id, g(got), g(w))
			return
		}
	}
	// The shared-stage inventory (fold groups in stage order, member IDs
	// ascending) must match exactly as well.
	if len(c.incOut.Shared) != len(want.Shared) {
		c.fail(tr, ctx, "I10 %d shared stages, want %d", len(c.incOut.Shared), len(want.Shared))
		return
	}
	for i, w := range want.Shared {
		got := c.incOut.Shared[i]
		if got.Fold != w.Fold || len(got.IDs) != len(w.IDs) {
			c.fail(tr, ctx, "I10 shared stage %d = g%d/%d members, want g%d/%d", i, got.Fold, len(got.IDs), w.Fold, len(w.IDs))
			return
		}
		for j := range w.IDs {
			if got.IDs[j] != w.IDs[j] {
				c.fail(tr, ctx, "I10 shared stage %d member %d is q%d, want q%d", i, j, got.IDs[j], w.IDs[j])
				return
			}
		}
	}
}

// checkExactness verifies the paper's central claim at run time: while the
// query mix changes only in ways the stage model plans for (its own finishes
// and queue admissions), measured finish times match predictions and
// predictions do not drift. Unplanned perturbations void predictions from
// their virtual time onward. The tolerance absorbs quantization — finishers
// are stamped at segment ends, queue refills happen at tick boundaries — and
// the remaining-cost refinement's drift, both of which scale with the quantum
// and the prediction horizon, not with the bug classes this invariant exists
// to catch (stale estimates, credit leaks, lost redistribution).
func (c *checker) checkExactness(tr *strings.Builder, ctx checkCtx, ov *service.Overview, events []service.Event) {
	if !c.stageMode {
		// Blended ensemble points are heuristics; the paper's exactness claim
		// (and hence this invariant) governs only the stage plane.
		return
	}
	perturbAt := math.Inf(1)
	if ctx.perturbed {
		perturbAt = math.Inf(-1) // the action itself voids every prediction
	}

	// A stage-model prediction for any query depends on the entire mix, so a
	// single query leaving the fluid model perturbs every prediction made
	// before this interval, not just its own. Two legitimate exits exist.
	// First, the engine refined a remaining-cost estimate (Assumption-2
	// drift, observable as a shift in Done+Remaining): that re-anchors the
	// model's input, so the interval is voided outright. Second, an
	// indivisible chunk (sort phase, correlated-subquery evaluation) can't be
	// split to match a credit share, so the scheduler banks or repays the
	// difference — observable directly as credit balances. Balances displace
	// finishes by a bounded amount (the deferred work drains at the query's
	// share rate), so instead of voiding, creditSlack widens the tolerance by
	// that bound. A credit LEAK stays detectable: leaked service leaves no
	// balance behind, so the late finish gets no extra allowance. The
	// exactChecked/exactVoided counters let tests assert the invariant still
	// runs on the vast majority of checks.
	views := append(append([]service.QueryView(nil), ov.Running...), ov.Queued...)
	fluid := true
	for _, v := range views {
		if c.costRefined(v.ID, v.Done+v.Remaining) {
			fluid = false
			break
		}
	}
	if fluid {
		for _, ev := range events {
			if ev.Type == service.EventFinished && c.costRefined(ev.QueryID, c.done[ev.QueryID]) {
				fluid = false
				break
			}
		}
	}
	slackNow := c.creditSlack(ov)

	boundaries := 0 // planned-but-quantized events: finishes, queue refills
	for _, ev := range events {
		switch ev.Type {
		case service.EventSubmitted, service.EventQueued, service.EventScheduled,
			service.EventBlocked, service.EventUnblocked, service.EventPriority,
			service.EventAborted, service.EventFailed:
			if ev.Virtual < perturbAt {
				perturbAt = ev.Virtual
			}
		case service.EventFinished:
			pred, ok := c.predAbs[ev.QueryID]
			if ok && fluid && ev.Virtual < perturbAt {
				tol := c.finishTol(pred, c.predAt[ev.QueryID], boundaries) + c.predSlack[ev.QueryID]
				if d := math.Abs(ev.Virtual - pred); d > tol {
					c.fail(tr, ctx, "I7 q%d finished at %s, last prediction %s (|Δ|=%s > tol %s)",
						ev.QueryID, g(ev.Virtual), g(pred), g(d), g(tol))
				}
			}
			boundaries++
		case service.EventAdmitted:
			boundaries++
		}
	}
	if !fluid {
		// Count the void only when the drift check below was otherwise
		// eligible: perturbed intervals never run it regardless of fluidity,
		// so counting them would inflate the vacuousness ratio.
		if math.IsInf(perturbAt, 1) {
			c.exactVoided++
		}
		return
	}
	if math.IsInf(perturbAt, 1) {
		// No unplanned perturbation and the mix stayed fluid: surviving
		// queries' predictions must be stable. Both endpoints' predictions
		// carry their own credit displacement, so both slacks apply.
		c.exactChecked++
		for _, v := range views {
			eta := float64(v.MultiETA)
			prev, ok := c.predAbs[v.ID]
			if !ok || !isFinite(eta) {
				continue
			}
			abs := ov.Now + eta
			tol := c.finishTol(prev, c.predAt[v.ID], boundaries) + c.predSlack[v.ID] + slackNow(v.Weight)
			if d := math.Abs(abs - prev); d > tol {
				c.fail(tr, ctx, "I7 q%d prediction drifted without perturbation: %s -> %s (|Δ|=%s > tol %s)",
					v.ID, g(prev), g(abs), g(d), g(tol))
			}
		}
	}
}

// creditSlack returns a function mapping a query's weight to the worst-case
// finish-time displacement, in seconds, that the mix's current credit
// balances can cause. The scheduler's total delivery is always C, so balances
// only defer or advance WHICH query receives service: at most T = Σ|credit|
// units of a query's modeled service can be displaced, and they drain at the
// query's share rate C·w/W. Predictions made while balances are materially
// nonzero may shift by up to T·W/(C·w) before the mix settles.
func (c *checker) creditSlack(ov *service.Overview) func(weight float64) float64 {
	total, weights := 0.0, 0.0
	for _, v := range ov.Running {
		if v.Status == "running" {
			total += math.Abs(v.Credit)
			weights += v.Weight
		}
	}
	return func(weight float64) float64 {
		if total == 0 || weight <= 0 || weights <= 0 {
			return 0
		}
		return total * weights / (c.rateC * weight)
	}
}

// costRefined reports whether query id's total cost estimate shifted
// materially from its value at the last check (estNow is Done+Remaining for a
// live query, or the final measured work for a finisher): the engine's
// remaining-work refinement re-anchored the stage model's input, so
// predictions made against the old cost are void. The paper's exactness claim
// is conditional on known costs (Assumption 2).
func (c *checker) costRefined(id int, estNow float64) bool {
	pe, ok := c.prevEst[id]
	if !ok {
		return false
	}
	return math.Abs(estNow-pe) > math.Max(2, 0.02*pe)
}

// finishTol is the stage-model exactness tolerance for a prediction made at
// predAt with absolute finish pred: quantization (1.5 quanta, plus one
// quantum per planned boundary crossed — each finish/refill realigns service
// to tick granularity) plus a refinement allowance proportional to how far
// out the prediction looked.
func (c *checker) finishTol(pred, predAt float64, boundaries int) float64 {
	horizon := math.Max(0, pred-predAt)
	return 1.5*c.quantum + float64(boundaries)*c.quantum + 0.08*horizon + 4/c.rateC
}

func (c *checker) checkMetrics(tr *strings.Builder, ctx checkCtx, ov *service.Overview) {
	vals := parseMetrics(c.m.Metrics().Text())

	// Counters never decrease.
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !isCounterLine(k) {
			continue
		}
		if prev, ok := c.counters[k]; ok && vals[k] < prev {
			c.fail(tr, ctx, "I8 counter %s decreased: %s -> %s", k, g(prev), g(vals[k]))
		}
	}
	c.counters = vals

	// Depth gauges match the published snapshot.
	nRun, nBlk := 0, 0
	for _, v := range ov.Running {
		if v.Status == "blocked" {
			nBlk++
		} else {
			nRun++
		}
	}
	gauge := func(name string, want int) {
		if got, ok := vals[name]; !ok || got != float64(want) {
			c.fail(tr, ctx, "I8 gauge %s = %s, snapshot says %d", name, g(vals[name]), want)
		}
	}
	gauge("mqpi_queries_running", nRun)
	gauge("mqpi_queries_blocked", nBlk)
	gauge("mqpi_queries_queued", len(ov.Queued))
	gauge("mqpi_queries_scheduled", len(ov.Scheduled))
	if got := vals["mqpi_snapshot_epoch"]; got != float64(ov.Epoch) {
		c.fail(tr, ctx, "I8 snapshot epoch gauge %s != overview epoch %d", g(got), ov.Epoch)
	}

	// Lifecycle counters match the terminated set (the done list is complete).
	nFin, nFail, nAbort := 0, 0, 0
	for _, v := range ov.Finished {
		switch v.Status {
		case "finished":
			nFin++
		case "failed":
			nFail++
		case "aborted":
			nAbort++
		}
	}
	gauge("mqpi_queries_finished_total", nFin)
	gauge("mqpi_queries_failed_total", nFail)
	gauge("mqpi_queries_aborted_total", nAbort)
	total := len(ov.Running) + len(ov.Queued) + len(ov.Scheduled) + len(ov.Finished)
	gauge("mqpi_queries_submitted_total", total)
}

var lifecyclePrereq = map[string][]string{
	service.EventQueued:    {service.EventSubmitted},
	service.EventAdmitted:  {service.EventSubmitted},
	service.EventBlocked:   {service.EventAdmitted},
	service.EventUnblocked: {service.EventBlocked},
	service.EventPriority:  {service.EventSubmitted, service.EventScheduled},
	service.EventRevised:   {service.EventSubmitted},
	service.EventFinished:  {service.EventAdmitted},
	service.EventFailed:    {service.EventAdmitted},
	service.EventAborted:   {service.EventSubmitted, service.EventScheduled},
}

func (c *checker) checkLifecycle(tr *strings.Builder, ctx checkCtx, events []service.Event) {
	for _, ev := range events {
		prereqs, checked := lifecyclePrereq[ev.Type]
		if checked {
			satisfied := false
			for _, p := range prereqs {
				if c.seen[ev.QueryID][p] {
					satisfied = true
					break
				}
			}
			if !satisfied {
				c.fail(tr, ctx, "I9 q%d event %q (seq %d) before any of %v",
					ev.QueryID, ev.Type, ev.Seq, prereqs)
			}
		}
		if c.seen[ev.QueryID] == nil {
			c.seen[ev.QueryID] = make(map[string]bool)
		}
		c.seen[ev.QueryID][ev.Type] = true
	}
}

// parseMetrics extracts "name value" and "name{labels} value" samples from
// the Prometheus text exposition format.
func parseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

func isCounterLine(key string) bool {
	name := key
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	return strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_count") ||
		strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_bucket")
}

// debugViews, when true, appends per-query detail lines to the trace.
var debugViews = false
