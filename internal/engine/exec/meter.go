// Package exec implements the volcano-style executor with the paper's
// work-unit accounting: every page touched (heap page, index node, or
// materialization page) charges 1 U against the query's WorkMeter. Execution
// is resumable in budgeted steps so the multi-query scheduler can interleave
// queries under weighted fair sharing.
//
// # Concurrency model
//
// Everything a running query mutates is query-private: the Runner, its
// operator tree (including the sub-query trees its compiled expressions hold
// and re-open), its Ctx/WorkMeter, and any materialized state (sort buffers,
// aggregation groups, collected rows). Everything it reads through the plan
// is shared but immutable during execution: plan nodes (costs are
// precomputed), catalog tables, heap pages, and B+-tree nodes. Distinct
// Runners may therefore be stepped by distinct goroutines concurrently —
// the scheduler's parallel execute phase relies on this — provided no DDL or
// DML mutates the underlying relations while any runner is mid-step. The
// layers above enforce that: the service runs DML on the owner goroutine,
// which only executes between ticks, never during the parallel phase.
package exec

// WorkMeter accumulates the work units (U's) a query has performed, on two
// planes:
//
//   - charged work (Total) is what the query's progress indicator sees — every
//     page the query logically processed, whether or not the engine had to
//     read it. Progress, ETAs, and the scheduler's credit settlement all use
//     this plane, so folding never changes a query's reported semantics.
//   - engine cost (Cost) is the deduplicated physical work: a page served from
//     a shared scan's current cursor position costs the engine nothing extra
//     for the second and later consumers. Cost <= Total always, with equality
//     whenever the query never rode a shared cursor.
type WorkMeter struct {
	total float64
	cost  float64
}

// Charge adds u work units on both planes (ordinary, unshared work).
func (m *WorkMeter) Charge(u float64) { m.total += u; m.cost += u }

// ChargePage adds one work unit (one page of bytes processed) on both planes.
func (m *WorkMeter) ChargePage() { m.total++; m.cost++ }

// ChargeShared adds u charged work units without engine cost: the physical
// read was already paid for by another member of the same shared scan.
func (m *WorkMeter) ChargeShared(u float64) { m.total += u }

// Total returns the charged work done so far.
func (m *WorkMeter) Total() float64 { return m.total }

// Cost returns the engine-cost plane: physical work actually performed on
// behalf of this query. Equal to Total for queries that never folded.
func (m *WorkMeter) Cost() float64 { return m.cost }

// Ctx is the per-query execution context threaded through all operators.
type Ctx struct {
	Meter *WorkMeter
	// Outer is the stack of enclosing-query rows for correlated sub-query
	// evaluation; Outer[len-1] is the nearest enclosing row.
	Outer []row
	// Limit, when positive, is the absolute meter level at which operators
	// with internal loops (Filter candidate rejection, aggregation drains,
	// joins, sorts) must yield back to the Runner so the scheduler's work
	// budget is respected. Scalar sub-plan evaluation is the indivisible
	// work quantum: the limit is suspended while one runs.
	Limit float64
}

// NewCtx returns a context with a fresh meter.
func NewCtx() *Ctx { return &Ctx{Meter: &WorkMeter{}} }

// OverBudget reports whether the work limit has been reached.
func (c *Ctx) OverBudget() bool { return c.Limit > 0 && c.Meter.Total() >= c.Limit }
