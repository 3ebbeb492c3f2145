package exec

import (
	"math"

	"mqpi/internal/engine/plan"
	"mqpi/internal/engine/types"
)

// Runner drives a plan to completion in budgeted steps. It is the unit the
// multi-query scheduler interleaves, and it hosts the refined remaining-cost
// estimation of [Luo et al., SIGMOD'04/ICDE'05] that the paper's Assumption 2
// relies on: the optimizer estimate early on, interpolation from observed
// progress once enough of the driver input has been consumed.
//
// A Runner is single-owner: at most one goroutine may call its methods at a
// time, and a Step must complete before any other method (WorkDone,
// EstRemaining, Progress, another Step) is invoked — possibly from a
// different goroutine, with an intervening happens-before edge. Distinct
// Runners are independent and may be stepped concurrently; they share only
// read-only engine state (see the package comment).
type Runner struct {
	root   Operator // nil once done; see end
	plan   plan.Node
	ctx    *Ctx
	opened bool
	done   bool
	failed error
	fold   *FoldMember // shared-scan seat, set by FoldRegistry.Attach

	// CollectRows controls whether result rows are retained. Experiments
	// discard them; the shell and examples keep them.
	CollectRows bool
	rows        []types.Row
}

// NewRunner prepares a runner for the plan. Rows are collected by default.
func NewRunner(p plan.Node) *Runner {
	return &Runner{root: Build(p), plan: p, ctx: NewCtx(), CollectRows: true}
}

// Plan returns the underlying physical plan.
func (r *Runner) Plan() plan.Node { return r.plan }

// Schema returns the output schema.
func (r *Runner) Schema() types.Schema { return r.plan.Schema() }

// Rows returns the collected result rows (nil if CollectRows is false).
func (r *Runner) Rows() []types.Row { return r.rows }

// Done reports whether the query has finished (successfully or not).
func (r *Runner) Done() bool { return r.done }

// Err returns the terminal error, if execution failed.
func (r *Runner) Err() error { return r.failed }

// WorkDone returns the charged work units consumed so far — the progress
// plane, unchanged by scan sharing.
func (r *Runner) WorkDone() float64 { return r.ctx.Meter.Total() }

// CostDone returns the engine-cost units consumed so far: physical work
// after shared-scan deduplication. Equal to WorkDone for unfolded queries.
func (r *Runner) CostDone() float64 { return r.ctx.Meter.Cost() }

// foldTarget returns the driver seq-scan a fold would attach to: the
// left-most leaf of the operator tree, provided it is a sequential scan. The
// driver is opened exactly once per execution, unlike inner-side scans a
// nested-loop join re-opens per outer row, so it is the only scan a shared
// cursor can serve coherently.
func (r *Runner) foldTarget() *seqScan {
	op := r.root
	for {
		switch x := op.(type) {
		case *seqScan:
			return x
		case *filterOp:
			op = x.child
		case *projectOp:
			op = x.child
		case *nlJoin:
			op = x.l
		case *aggOp:
			op = x.child
		case *distinctOp:
			op = x.child
		case *sortOp:
			op = x.child
		case *limitOp:
			op = x.child
		default:
			return nil
		}
	}
}

// FoldGroup returns the fold group this runner attached to, or 0 if it never
// folded. The value survives detachment, for reporting.
func (r *Runner) FoldGroup() int {
	if r.fold == nil {
		return 0
	}
	return r.fold.groupID
}

// FoldAttached reports whether the runner currently rides a shared cursor.
func (r *Runner) FoldAttached() bool { return r.fold != nil && r.fold.Attached() }

// ReleaseFold force-detaches the runner from its shared cursor (block, abort,
// priority change, fold disabled). The scan finishes its lap solo; charged
// work and results are unaffected. No-op for unfolded or already-detached
// runners. Serial-phase only — never call while the runner may be mid-Step.
func (r *Runner) ReleaseFold() {
	if r.fold != nil && !r.fold.detached {
		r.fold.group.detach(r.fold)
	}
}

// Step executes until approximately budget additional work units have been
// consumed or the query completes. It returns the work actually consumed
// (one tuple's work is indivisible, so the last call may overshoot slightly)
// and whether the query is now done. A non-positive budget performs no work.
func (r *Runner) Step(budget float64) (consumed float64, done bool, err error) {
	if r.done {
		return 0, true, r.failed
	}
	if budget <= 0 {
		return 0, false, nil
	}
	start := r.ctx.Meter.Total()
	if !r.opened {
		if err := r.root.Open(r.ctx); err != nil {
			r.end(err)
			return r.ctx.Meter.Total() - start, true, err
		}
		r.opened = true
	}
	target := start + budget
	r.ctx.Limit = target
	defer func() { r.ctx.Limit = 0 }()
	for r.ctx.Meter.Total() < target {
		row, err := r.root.Next(r.ctx)
		if err == errYield {
			break
		}
		if err != nil {
			r.end(err)
			return r.ctx.Meter.Total() - start, true, err
		}
		if row == nil {
			r.end(r.root.Close())
			break
		}
		if r.CollectRows {
			r.rows = append(r.rows, row.Clone())
		}
	}
	return r.ctx.Meter.Total() - start, r.done, r.failed
}

// end marks the runner done, failed with err unless it is nil, and drops the
// operator tree: nothing reads it after the last Step, and a terminated query's
// sort buffers, aggregate maps and compiled sub-plans would otherwise live as
// long as the scheduler keeps the query.
func (r *Runner) end(err error) {
	r.done, r.failed, r.root = true, err, nil
}

// Run executes the query to completion. It must not be used on a folded
// runner: a shared cursor parks behind its slowest member (Step yields with
// no progress), and only the scheduler's group-aware execute phase steps the
// members in rotation.
func (r *Runner) Run() error {
	for {
		_, done, err := r.Step(math.MaxFloat64 / 4)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// Progress returns the driver-input fraction consumed, in [0, 1].
func (r *Runner) Progress() float64 {
	if r.done {
		return 1
	}
	if !r.opened {
		return 0
	}
	return math.Min(1, math.Max(0, r.root.Progress()))
}

// Refinement thresholds: below lowWatermark of driver progress the optimizer
// estimate is trusted entirely; above highWatermark the observed-progress
// interpolation is trusted entirely; in between the two are blended linearly.
const (
	lowWatermark  = 0.02
	highWatermark = 0.30
)

// EstRemainingOptimizer returns the optimizer-only remaining-cost estimate:
// the plan's total estimated cost minus work done (floored at zero).
func (r *Runner) EstRemainingOptimizer() float64 {
	if r.done {
		return 0
	}
	return math.Max(0, r.plan.EstCost()-r.WorkDone())
}

// EstRemaining returns the refined remaining-cost estimate in U's. This is
// the c_i the progress indicators consume.
func (r *Runner) EstRemaining() float64 {
	if r.done {
		return 0
	}
	opt := r.EstRemainingOptimizer()
	f := r.Progress()
	if f <= lowWatermark {
		return opt
	}
	interp := r.WorkDone() * (1 - f) / f
	if f >= highWatermark {
		return interp
	}
	w := (f - lowWatermark) / (highWatermark - lowWatermark)
	return (1-w)*opt + w*interp
}

// EstTotal returns the refined estimate of the query's total cost
// (work done + estimated remaining).
func (r *Runner) EstTotal() float64 { return r.WorkDone() + r.EstRemaining() }
