// Package sim is the deterministic workload simulator and invariant checker
// for the full progress-indicator stack: a cluster.Cluster front door (routing,
// token-bucket admission, global ids) over Config.Shards replicas — one by
// default, which is the plain service — each a service.Manager (owner
// goroutine, epoch-stamped snapshots, lock-free reads) over a sched.Server
// (three-phase tick, MPL admission, weighted fair sharing) over the real SQL
// engine. There is one driver: Run.
//
// A single rand.Source seeds everything — the dataset, the SQL workload, the
// action stream (staggered arrivals, priority changes, block/unblock/abort,
// DML through Exec, §3.1–3.3 planner calls, irregular virtual-time advances) —
// so any failure reproduces exactly from its seed:
//
//	go test ./internal/sim -run TestSimMatrix       # the CI seed matrix
//	go run ./cmd/mqpi-bench -sim -seed 17 -workers 4 # replay one cell, full trace
//
// After every action one checker per shard validates that shard's state (see
// invariants.go for I1–I9 and I11–I14: work conservation, stage-model
// exactness, re-prediction at boundaries, epoch monotonicity, MPL, slot
// conservation, metrics/view consistency, event lifecycle ordering, ...), and
// one router pass validates on the merged overview what no shard can see
// (placement, gid uniqueness, no lost work, admission accounting). Every run
// also emits a canonical text trace containing no wall-clock values, so a run
// at Workers=1 must be byte-identical to the same seed at Workers=4 — the
// tentpole bit-identity guarantee of the parallel execute phase, checked end
// to end.
// With more than one shard each shard's event and state lines carry a "[i] "
// tag and name queries by the shard's own ids (global id = (local-1)·Shards +
// i + 1); action lines always name global ids.
//
// The action stream can alternatively be driven by an opaque byte script
// (Config.Script), which is what the FuzzSim native fuzz target mutates.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"mqpi/internal/cluster"
	"mqpi/internal/core"
	"mqpi/internal/engine"
	"mqpi/internal/engine/types"
	"mqpi/internal/sched"
	"mqpi/internal/service"
	"mqpi/internal/wm"
)

// Config parameterizes one simulation run. The zero value of every field is
// replaced by the defaults in withDefaults; only Seed and Workers normally
// need setting.
type Config struct {
	// Seed drives all randomness: dataset values, SQL workload, and (unless
	// Script is set) the action stream.
	Seed int64
	// Shards is the number of replicas behind the front door (default 1: the
	// plain service, identity global ids). Every shard gets the same dataset,
	// built from Seed.
	Shards int
	// Routing is the front door's placement policy (cluster.RoutingPolicies;
	// "" means round-robin).
	Routing string
	// AdmitRate/AdmitBurst/AdmitQueue configure the front door's token bucket;
	// the default rate 0 disables admission so every submission routes.
	AdmitRate  float64
	AdmitBurst float64
	AdmitQueue bool
	// Workers is the scheduler's execute-phase worker pool size. The trace is
	// byte-identical at every setting; the seed matrix runs 1/2/4.
	Workers int
	// Steps is the number of actions to generate (default 48). Ignored when
	// Script is set (the script length decides).
	Steps int
	// MPL is each shard's admission limit (default 3).
	MPL int
	// RateC is the processing rate in U/s (default 10).
	RateC float64
	// Quantum is the virtual-time step in seconds (default 0.5).
	Quantum float64
	// Rows is the cardinality of each shard's two scan tables (default 1536).
	Rows int
	// Script, when non-nil, replaces the rng-driven action stream with an
	// opaque byte stream: each action consumes two bytes (opcode selector,
	// argument). The dataset is still built from Seed. This is the FuzzSim
	// entry point.
	Script []byte
	// Fold starts the run with shared-scan folding enabled on every shard:
	// same-table, same-priority seq scans ride one cursor. Folding moves only
	// the engine cost plane; every charged-plane observable must be unaffected
	// (I12). Least-loaded routing is fold-aware, so under it placement may
	// differ from a fold-off run.
	Fold bool
	// NoDML remaps DML actions to advances, freezing relation cardinalities.
	// A concurrent insert can legitimately be seen by a folded scan (which
	// starts mid-table) and missed by the solo scan of the same query, so the
	// fold-on/fold-off comparison is only exact with the data frozen.
	NoDML bool
	// Estimator selects the service's estimate plane (core.EstimatorModes;
	// "" means the default stage path). TestSimEstimatorMatrix runs "" and
	// "stage" runs of the same seed and demands byte-identical traces, and a
	// "calibrated" run beside them that must pass every invariant on as many
	// checks: its points are the stage points, only its bands differ (I13).
	Estimator string
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Steps <= 0 {
		c.Steps = 48
	}
	if c.MPL <= 0 {
		c.MPL = 3
	}
	if c.RateC <= 0 {
		c.RateC = 10
	}
	if c.Quantum <= 0 {
		c.Quantum = 0.5
	}
	if c.Rows <= 0 {
		c.Rows = 1536
	}
	return c
}

// Result is the outcome of one simulation run.
type Result struct {
	// Trace is the canonical action/event/state trace. It contains no
	// wall-clock values and no worker counts, so it must be byte-identical
	// across runs of the same seed at different Config.Workers.
	Trace string
	// Violations lists every invariant violation, annotated with the action
	// index at which it was detected. Empty on a clean run.
	Violations []string
	// Actions is the number of actions applied.
	Actions int
	// Submitted counts accepted submissions, Rejected those the admission
	// bucket refused; Finished/Failed/Aborted count query outcomes.
	Submitted, Rejected, Finished, Failed, Aborted int
	// Plans counts the §3.1–3.3 planner calls that returned an answer.
	Plans int
	// ExactChecked counts the per-shard checks where the stage-model
	// exactness invariant (I7) actually ran; ExactVoided counts those where it
	// was voided because a query left the fluid model (cost refinement or
	// chunk-granularity burst/payback). Tests assert the checked share
	// dominates, so the invariant cannot silently go vacuous.
	ExactChecked, ExactVoided int
	// OracleChecked counts the per-shard checks I14 held against the
	// event-stepped oracle, QueueChecked those of them made with a non-empty
	// admission queue.
	OracleChecked, QueueChecked int
	// Final summarizes every query's last published view in ID order. The
	// I12 cross-run comparison keys on it: a fold-on run must agree with the
	// fold-off baseline on everything except the cost plane.
	Final []QueryOutcome
}

// QueryOutcome is one query's terminal charged-plane view plus its engine
// cost.
type QueryOutcome struct {
	ID         int
	Status     string
	Done       float64
	Cost       float64
	FinishTime float64
}

// Run executes one simulation to completion (all actions, then a drain) and
// returns its trace and any invariant violations. Engine/build errors — which
// indicate a broken harness rather than a broken invariant — are returned as
// error.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	defer s.c.Close()
	return s.run()
}

// opKind enumerates the simulator's action repertoire.
type opKind uint8

const (
	opSubmit opKind = iota
	opSubmitDelayed
	opAdvance
	opBlock
	opUnblock
	opAbort
	opSetPriority
	opExec
	opPlan
	opDiagram
)

// opTable maps the low 4 bits of an opcode byte to an action, with repeats
// providing the weighting (submissions and advances dominate, as in a real
// workload). A fuzz script and the pre-rolled seeded stream select through
// this table alike.
var opTable = [16]opKind{
	opSubmit, opSubmit, opSubmit, opSubmitDelayed,
	opAdvance, opAdvance, opAdvance, opAdvance, opAdvance,
	opBlock, opUnblock, opAbort, opSetPriority,
	opExec, opPlan, opDiagram,
}

var opNames = [...]string{
	opSubmit: "submit", opSubmitDelayed: "submit-delayed", opAdvance: "advance",
	opBlock: "block", opUnblock: "unblock", opAbort: "abort", opSetPriority: "priority",
	opExec: "exec", opPlan: "plan", opDiagram: "diagram",
}

func (k opKind) String() string { return opNames[k] }

// opFor maps an opcode byte to an action under the run's config: NoDML turns
// DML into advances (same argument, so the advance amount is unchanged).
func (s *sim) opFor(op byte) opKind {
	kind := opTable[op&15]
	if s.cfg.NoDML && kind == opExec {
		kind = opAdvance
	}
	return kind
}

// sim is one run's mutable state.
type sim struct {
	cfg  Config
	c    *cluster.Cluster
	chks []*checker // one per shard, in shard order
	tr   strings.Builder

	script  []byte // the action stream: two bytes per action, opcode then argument
	actionN int
	execN   int // deterministic counter for DML value generation

	submitted, rejected, aborted, plans int
	// accepted lists every global id the front door handed out and advanced
	// totals the virtual seconds pushed through it: the router pass's ledger.
	accepted   []int
	advanced   float64
	violations []string // every checker's, in detection order
}

// Table geometry: two scan relations of cfg.Rows tuples each and one small
// outer relation driving the correlated-subquery template through the t0
// index, mirroring the paper's part/lineitem shape at toy scale.
const (
	keyRangeT0 = 251 // distinct keys in t0 (prime, so i%range cycles evenly)
	keyRangeT1 = 97
	partRows   = 48
)

// buildDB draws one shard's dataset from rng.
func buildDB(rng *rand.Rand, rows int) (*engine.DB, error) {
	db := engine.Open()
	for _, table := range []string{"t0", "t1", "part"} {
		if _, err := db.Exec("CREATE TABLE " + table + " (k BIGINT, v DOUBLE)"); err != nil {
			return nil, err
		}
	}
	cat := db.Catalog()
	for i := 0; i < rows; i++ {
		r0 := types.Row{types.NewInt(int64(i % keyRangeT0)), types.NewFloat(rng.Float64() * 100)}
		if err := cat.Insert("t0", r0); err != nil {
			return nil, err
		}
		r1 := types.Row{types.NewInt(int64(i % keyRangeT1)), types.NewFloat(rng.Float64() * 100)}
		if err := cat.Insert("t1", r1); err != nil {
			return nil, err
		}
	}
	for i := 0; i < partRows; i++ {
		row := types.Row{types.NewInt(int64(rng.Intn(keyRangeT0))), types.NewFloat(rng.Float64() * 100)}
		if err := cat.Insert("part", row); err != nil {
			return nil, err
		}
	}
	if _, err := db.Exec(`CREATE INDEX t0_k ON t0 (k)`); err != nil {
		return nil, err
	}
	if err := db.Analyze(); err != nil {
		return nil, err
	}
	return db, nil
}

func newSim(cfg Config) (*sim, error) {
	if err := core.ValidEstimator(cfg.Estimator); err != nil {
		return nil, err
	}
	// The shards are replicas: each dataset is drawn from its own stream of
	// the same seed, and the action stream continues from the state every one
	// of those streams is left in.
	var rng *rand.Rand
	c, _, err := cluster.Serve(cluster.Config{
		Shards:     cfg.Shards,
		Routing:    cfg.Routing,
		AdmitRate:  cfg.AdmitRate,
		AdmitBurst: cfg.AdmitBurst,
		AdmitQueue: cfg.AdmitQueue,
		Service: service.Config{
			Sched: sched.Config{
				RateC:   cfg.RateC,
				MPL:     cfg.MPL,
				Quantum: cfg.Quantum,
				Workers: cfg.Workers,
				Fold:    cfg.Fold,
				Weights: map[int]float64{0: 1, 1: 2, 2: 4},
			},
			TickEvery: -1, // manual clock: virtual time moves only through Advance
			EventCap:  4096,
			Estimator: cfg.Estimator,
		},
	}, func() (*engine.DB, error) {
		rng = rand.New(rand.NewSource(cfg.Seed))
		return buildDB(rng, cfg.Rows)
	})
	if err != nil {
		return nil, err
	}
	s := &sim{cfg: cfg, c: c, script: cfg.Script}
	for i := 0; i < cfg.Shards; i++ {
		tag := ""
		if cfg.Shards > 1 {
			tag = fmt.Sprintf("[%d] ", i)
		}
		s.chks = append(s.chks, newChecker(c.Shard(i), cfg, tag, &s.violations))
	}
	if s.script == nil {
		// No script: roll one from the seed's stream, where the datasets left it.
		s.script = make([]byte, 2*cfg.Steps)
		for i := range s.script {
			s.script[i] = byte(rng.Intn(256))
		}
	}
	return s, nil
}

// allShards is what apply reports, in place of a shard index, for an action
// that went to every shard (or to none).
const allShards = -1

// check runs every shard's checker and then the router pass. ctx describes
// what the action did to shard (or to allShards); any other shard saw nothing.
func (s *sim) check(shard int, ctx checkCtx) {
	for i, chk := range s.chks {
		c := checkCtx{}
		if shard == allShards || shard == i {
			c = ctx
		}
		c.action = s.actionN
		chk.check(&s.tr, c)
	}
	s.checkRouter()
}

func (s *sim) run() (*Result, error) {
	// Initial state line anchors the trace.
	s.check(allShards, checkCtx{})
	for pos := 0; pos+1 < len(s.script) && len(s.violations) == 0; pos += 2 {
		s.actionN++
		kind, arg := s.opFor(s.script[pos]), s.script[pos+1]
		shard, ctx, err := s.apply(kind, arg)
		if err != nil {
			return nil, fmt.Errorf("action %d (%s): %w", s.actionN, kind, err)
		}
		s.check(shard, ctx)
	}
	// Drain: advance until the tier is idle (or stalled on blocked queries),
	// so finish-time exactness is checked for every query that can still
	// finish.
	for i := 0; i < 64 && len(s.violations) == 0; i++ {
		ov, err := s.c.Overview()
		if err != nil {
			return nil, err
		}
		busy := false
		for _, q := range ov.Running {
			if q.Status == "running" {
				busy = true
			}
		}
		if !busy && len(ov.Scheduled) == 0 {
			break
		}
		s.actionN++
		fmt.Fprintf(&s.tr, "a%03d drain advance %s\n", s.actionN, g(4*s.cfg.Quantum))
		if err := s.advance(4 * s.cfg.Quantum); err != nil {
			return nil, err
		}
		s.check(allShards, checkCtx{mutated: true, advanced: true})
	}

	res := &Result{
		Trace:      s.tr.String(),
		Violations: s.violations,
		Actions:    s.actionN,
		Submitted:  s.submitted,
		Rejected:   s.rejected,
		Aborted:    s.aborted,
		Plans:      s.plans,
	}
	for _, chk := range s.chks {
		res.ExactChecked += chk.exactChecked
		res.ExactVoided += chk.exactVoided
		res.OracleChecked += chk.oracleChecked
		res.QueueChecked += chk.queueChecked
	}
	if ov, err := s.c.Overview(); err == nil {
		for _, q := range ov.Finished {
			switch q.Status {
			case "finished":
				res.Finished++
			case "failed":
				res.Failed++
			}
		}
		for _, sec := range [][]service.QueryView{ov.Running, ov.Queued, ov.Scheduled, ov.Finished} {
			for _, v := range sec {
				res.Final = append(res.Final, QueryOutcome{
					ID: v.ID, Status: v.Status, Done: v.Done, Cost: v.Cost, FinishTime: v.FinishTime,
				})
			}
		}
		sort.Slice(res.Final, func(i, j int) bool { return res.Final[i].ID < res.Final[j].ID })
	}
	return res, nil
}

// g formats a float with full precision: traces must be bit-comparable.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (s *sim) advance(v float64) error {
	s.advanced += v
	return s.c.Advance(v)
}

// locate is the front door's id bijection, stated independently of it: global
// id gid is query `local` of shard (gid-1) mod Shards.
func (s *sim) locate(gid int) (shard, local int) {
	return (gid - 1) % s.cfg.Shards, (gid-1)/s.cfg.Shards + 1
}

// target picks a query of class and names it the way its shard does. The
// actions that address a shard rather than a query (planners, diagram) go to the shard of the query their argument picks — shard 0, which
// a failed pick names, when there is none.
func (s *sim) target(arg byte, class string) (shard, local int, ok bool) {
	gid, ok := s.pick(arg, class)
	if !ok {
		return 0, 0, false
	}
	shard, local = s.locate(gid)
	return shard, local, true
}

// apply performs one action through the front door and reports which shard
// it touched (or allShards) and what that shard's checker needs to know about
// it. Action errors that are part of the service contract (unknown ID, wrong
// state, admission) are traced, not fatal; only harness breakage is returned
// as error. A line about one shard's own output — a planner answer or a
// diagram — carries that shard's tag and names its local ids.
func (s *sim) apply(kind opKind, arg byte) (int, checkCtx, error) {
	switch kind {
	case opSubmit, opSubmitDelayed:
		return s.doSubmit(kind == opSubmitDelayed, arg)
	case opAdvance:
		v := s.cfg.Quantum * (0.3 + 3.7*float64(arg)/255)
		fmt.Fprintf(&s.tr, "a%03d advance %s\n", s.actionN, g(v))
		return allShards, checkCtx{mutated: true, advanced: true}, s.advance(v)
	case opBlock:
		return s.onQuery(kind, arg, "running", "no runnable", "", s.c.Block)
	case opUnblock:
		return s.onQuery(kind, arg, "blocked", "no blocked", "", s.c.Unblock)
	case opAbort:
		return s.onQuery(kind, arg, "any", "no active", "", func(gid int) error {
			err := s.c.Abort(gid)
			if err == nil {
				s.aborted++
			}
			return err
		})
	case opSetPriority:
		prio := int(arg>>4) % 3
		return s.onQuery(kind, arg, "active", "no active", fmt.Sprintf("=%d", prio),
			func(gid int) error { return s.c.SetPriority(gid, prio) })
	case opExec:
		return s.doExec(arg)
	case opPlan:
		s.doPlan(arg)
		return allShards, checkCtx{}, nil
	case opDiagram:
		shard, _, _ := s.target(arg, "any")
		d, err := s.c.Shard(shard).Diagram(48)
		fmt.Fprintf(&s.tr, "a%03d %sdiagram %d bytes\n%s", s.actionN, s.chks[shard].tag, len(d), d)
		return allShards, checkCtx{}, err
	default:
		return 0, checkCtx{}, fmt.Errorf("sim: unknown op %d", uint8(kind))
	}
}

// onQuery applies a per-query operation to the query pick selects from class,
// tracing it as "<kind> q<gid><detail>" (or as a skip, for lack of `none`).
func (s *sim) onQuery(kind opKind, arg byte, class, none, detail string, op func(gid int) error) (int, checkCtx, error) {
	gid, ok := s.pick(arg, class)
	if !ok {
		fmt.Fprintf(&s.tr, "a%03d %s skip (%s)\n", s.actionN, kind, none)
		return allShards, checkCtx{}, nil
	}
	err := op(gid)
	fmt.Fprintf(&s.tr, "a%03d %s q%d%s err=%v\n", s.actionN, kind, gid, detail, err)
	shard, _ := s.locate(gid)
	return shard, checkCtx{mutated: true, perturbed: err == nil}, nil
}

// querySQL renders the SQL workload. All templates are scan-driven with
// accurate optimizer statistics, which is what makes the stage-model
// exactness invariant meaningful (Assumption 2: remaining costs are known).
func querySQL(arg byte) string {
	table := "t0"
	keys := keyRangeT0
	if arg&8 != 0 {
		table = "t1"
		keys = keyRangeT1
	}
	p := int(arg) % keys
	switch (arg >> 4) % 5 {
	case 0:
		return fmt.Sprintf("select sum(v) from %s", table)
	case 1:
		return fmt.Sprintf("select count(*) from %s where k < %d", table, p)
	case 2:
		return fmt.Sprintf("select k, v from %s where v > %d order by v limit 5", table, p%90)
	case 3:
		return fmt.Sprintf("select sum(v), count(*) from %s where k >= %d", table, p)
	default:
		// The paper's correlated shape: outer scan over part, index-probe
		// subquery into t0 per outer row.
		return fmt.Sprintf("select count(*) from part p where (select sum(l.v) from t0 l where l.k = p.k) > %d", 10*(int(arg)%40))
	}
}

// sessionPool is small on purpose: sessions must collide across submissions
// so affinity routing actually groups work (and abort churn hits live keys).
const sessionPool = 6

func (s *sim) doSubmit(delayed bool, arg byte) (int, checkCtx, error) {
	req := cluster.SubmitRequest{
		SubmitRequest: service.SubmitRequest{
			Label:    fmt.Sprintf("q%d", s.submitted+s.rejected+1),
			SQL:      querySQL(arg),
			Priority: int(arg) % 3,
		},
		Session: fmt.Sprintf("session-%d", int(arg>>2)%sessionPool),
	}
	if delayed {
		req.Delay = s.cfg.Quantum * (0.5 + float64(arg%16))
	}
	view, err := s.c.Submit(req)
	if errors.Is(err, cluster.ErrAdmission) {
		s.rejected++
		fmt.Fprintf(&s.tr, "a%03d submit rejected (admission)\n", s.actionN)
		return allShards, checkCtx{}, nil
	}
	if err != nil {
		return 0, checkCtx{}, err
	}
	s.submitted++
	s.accepted = append(s.accepted, view.ID)
	fmt.Fprintf(&s.tr, "a%03d submit id=%d prio=%d delay=%s status=%s sql=%q\n",
		s.actionN, view.ID, req.Priority, g(req.Delay), view.Status, req.SQL)
	shard, _ := s.locate(view.ID)
	return shard, checkCtx{mutated: true, perturbed: true}, nil
}

func (s *sim) doExec(arg byte) (int, checkCtx, error) {
	table := "t0"
	keys := keyRangeT0
	if arg&4 != 0 {
		table = "t1"
		keys = keyRangeT1
	}
	s.execN++
	var stmt string
	switch arg % 3 {
	case 0:
		stmt = fmt.Sprintf("insert into %s values (%d, %d.5), (%d, %d.25)",
			table, int(arg)%keys, s.execN, (int(arg)+7)%keys, s.execN)
	case 1:
		stmt = fmt.Sprintf("delete from %s where k = %d", table, int(arg)%keys)
	default:
		stmt = fmt.Sprintf("update %s set v = v + 1 where k = %d", table, int(arg)%keys)
	}
	n, err := s.c.Exec(stmt)
	if err != nil {
		return 0, checkCtx{}, fmt.Errorf("exec %q: %w", stmt, err)
	}
	fmt.Fprintf(&s.tr, "a%03d exec %q rows=%d\n", s.actionN, stmt, n)
	// DML changes relation cardinalities under running scans: every estimate
	// may legitimately move, so it perturbs predictions for all queries, on
	// every replica.
	return allShards, checkCtx{mutated: true, perturbed: true}, nil
}

// doPlan asks a §3.1–3.3 question of the shard that owns the running query
// the argument picks: planners are pure reads of one shard's mix, not
// front-door routes.
func (s *sim) doPlan(arg byte) {
	shard, id, ok := s.target(arg, "running")
	m := s.c.Shard(shard)
	var what, answer string
	var err error
	switch arg % 3 {
	case 0:
		if !ok {
			fmt.Fprintf(&s.tr, "a%03d plan speedup-single skip\n", s.actionN)
			return
		}
		what = fmt.Sprintf("speedup-single q%d", id)
		var victims []wm.Victim
		victims, err = m.SpeedUpSingle(id, 1+int(arg>>6))
		answer = " ->"
		for _, v := range victims {
			answer += fmt.Sprintf(" q%d:%s", v.ID, g(v.Benefit))
		}
	case 1:
		what = "speedup-others"
		var v wm.Victim
		v, err = m.SpeedUpOthers()
		answer = fmt.Sprintf(" -> q%d:%s", v.ID, g(v.Benefit))
	default:
		what = "maintenance"
		deadline := s.cfg.Quantum * float64(4+int(arg>>3))
		var plan wm.MaintenancePlan
		plan, err = m.PlanMaintenance(deadline, wm.Case1CompletedWork, false)
		answer = fmt.Sprintf(" deadline=%s abort=%v lost=%s quiescent=%s",
			g(deadline), plan.Abort, g(plan.Lost), g(plan.Quiescent))
	}
	if err != nil {
		answer = fmt.Sprintf(" err=%v", err)
	} else {
		s.plans++
	}
	fmt.Fprintf(&s.tr, "a%03d %splan %s%s\n", s.actionN, s.chks[shard].tag, what, answer)
}

// pick deterministically selects a target query: candidates are gathered from
// the merged overview in global-ID order and indexed by arg.
func (s *sim) pick(arg byte, class string) (int, bool) {
	ov, err := s.c.Overview()
	if err != nil {
		return 0, false
	}
	var ids []int
	add := func(views []service.QueryView, statuses ...string) {
		for _, v := range views {
			for _, st := range statuses {
				if v.Status == st {
					ids = append(ids, v.ID)
				}
			}
		}
	}
	switch class {
	case "running":
		add(ov.Running, "running")
	case "blocked":
		add(ov.Running, "blocked")
	case "active":
		add(ov.Running, "running", "blocked")
		add(ov.Queued, "queued")
	default: // any: everything not yet terminated
		add(ov.Running, "running", "blocked")
		add(ov.Queued, "queued")
		add(ov.Scheduled, "scheduled")
	}
	if len(ids) == 0 {
		return 0, false
	}
	sort.Ints(ids)
	return ids[int(arg)%len(ids)], true
}
