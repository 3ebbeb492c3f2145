// Package sched simulates the multi-query RDBMS of the paper's model in
// virtual time: the server processes C work units per second in total
// (Assumption 1) and divides them among running queries in proportion to the
// weights of their priorities (Assumption 3). An admission queue with an MPL
// limit, scheduled arrivals, and block/abort controls provide everything the
// experiments and the workload-management algorithms need.
//
// Queries execute for real — each one drives an exec.Runner over actual
// data — only the clock is virtual, which is what makes hour-long workloads
// reproducible in milliseconds.
//
// Virtual time and real execution are decoupled by the three-phase tick
// (allocate → execute → settle, see exec_phase.go): how much work each query
// receives per quantum is decided serially from the paper's stage model, but
// the work itself — stepping the runners — fans out across Config.Workers
// goroutines. Outcomes are bit-identical at every worker count.
//
// The server is the one owner of the query lifecycle: each time it sets a
// query's status it reports the change, with the status the query left, to the
// callback registered with OnStatus. The serving layer's event log and
// lifecycle counters are built from those reports alone.
package sched

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"

	"mqpi/internal/core"
	"mqpi/internal/engine/exec"
)

// Status is a query's lifecycle state.
type Status uint8

const (
	// StatusNew is the zero value: a query built by NewQuery that has been
	// neither submitted nor scheduled yet.
	StatusNew Status = iota
	StatusQueued
	StatusRunning
	StatusBlocked
	StatusFinished
	StatusAborted
	StatusFailed
	// StatusScheduled marks a query handed to ScheduleArrival that has not
	// reached its arrival time yet.
	StatusScheduled
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusNew:
		return "new"
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusBlocked:
		return "blocked"
	case StatusFinished:
		return "finished"
	case StatusAborted:
		return "aborted"
	case StatusFailed:
		return "failed"
	case StatusScheduled:
		return "scheduled"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Query is one query under the server's control.
type Query struct {
	ID       int
	Label    string
	SQL      string
	Priority int
	Runner   *exec.Runner

	Status     Status
	SubmitTime float64
	StartTime  float64
	FinishTime float64 // finish, abort, or failure time
	Err        error

	credit      float64
	tracker     *core.SpeedTracker
	foldChecked bool // fold eligibility decided (exactly-once attach)
}

// foldID returns the query's live fold-group ID, or 0 when it is not riding a
// shared cursor (never folded, detached, or no runner).
func (q *Query) foldID() int {
	if q.Runner != nil && q.Runner.FoldAttached() {
		return q.Runner.FoldGroup()
	}
	return 0
}

// ObservedSpeed returns the query's execution speed in U/s as monitored over
// the speed window — the s in the single-query PI's t = c/s.
func (q *Query) ObservedSpeed() float64 {
	if q.tracker == nil {
		return 0
	}
	return q.tracker.Speed()
}

// State converts the query to the PI's abstract view, using the refined
// remaining-cost estimate.
func (q *Query) State() core.QueryState {
	return core.QueryState{
		ID:        q.ID,
		Remaining: q.Runner.EstRemaining(),
		Weight:    0, // filled by the server, which knows the weight table
		Done:      q.Runner.WorkDone(),
		Fold:      q.foldID(),
	}
}

// Config configures a Server.
type Config struct {
	// RateC is the paper's constant processing rate C in U/s.
	RateC float64
	// RateFunc, when non-nil, makes the total processing rate depend on the
	// number of runnable queries — deliberately violating the paper's
	// Assumption 1 for the robustness experiments (§4.1: thrashing under
	// load, speed-up when queries leave). It receives the runnable count
	// and returns the total rate in U/s. The PIs still assume RateC.
	RateFunc func(runnable int) float64
	// MPL caps concurrently admitted queries; 0 means unlimited.
	MPL int
	// Quantum is the virtual-time step in seconds (default 0.5).
	Quantum float64
	// Weights maps priority to weight; missing priorities get weight 1.
	Weights map[int]float64
	// Workers caps the goroutines stepping runners during each tick's
	// execute phase. 0 or 1 keeps execution inline on the ticking goroutine
	// (the serial scheduler); n > 1 fans runner steps across a persistent
	// pool of n workers (the ticking goroutine included), created lazily and
	// released by Close. Virtual-time outcomes are bit-identical at every
	// setting: credits are fixed by the serial allocate phase before any
	// runner moves, and settlement folds results in admission order.
	Workers int
	// Fold enables shared-scan folding: admitted queries that seq-scan the
	// same relation at the same priority attach to one shared cursor, so each
	// page read charges every member's progress but costs the engine one
	// physical read. Progress, ETAs, and credit settlement are unchanged —
	// only the engine-cost plane (QueryInfo.Cost) shrinks. It is fixed for
	// the server's lifetime.
	Fold bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.RateC <= 0 {
		out.RateC = 100
	}
	if out.Quantum <= 0 {
		out.Quantum = 0.5
	}
	return out
}

// arrival is a scheduled future submission.
type arrival struct {
	at float64
	q  *Query
}

type arrivalHeap []arrival

func (h arrivalHeap) Len() int            { return len(h) }
func (h arrivalHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h arrivalHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x interface{}) { *h = append(*h, x.(arrival)) }
func (h *arrivalHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Server is the simulated multi-query RDBMS.
//
// All methods are owner-goroutine only: one goroutine drives the server at a
// time. Inside Tick's execute phase the server itself fans runner steps
// across its worker pool (Config.Workers); everything those workers touch is
// either query-private (the runner and its operator tree) or read-shared
// engine state, so no other method may run concurrently with Tick.
type Server struct {
	cfg      Config
	now      float64
	nextID   int
	running  []*Query
	queue    []*Query
	queued   queueCapture // the values of queue, index-aligned with it
	done     []*Query
	doneInfo []QueryInfo // Snapshot's capture of done[:len(doneInfo)], append-only
	arrivals arrivalHeap
	onStatus func(q *Query, from Status)

	pool      *execPool   // execute-phase workers, created lazily when Workers > 1
	scratch   tickScratch // reused allocate/execute/settle working set
	lastStats TickStats

	foldReg     *exec.FoldRegistry // shared-cursor registry; nil unless Config.Fold
	foldGrouped bool               // some live group has >= 2 members (per-segment cache)
}

// tickScratch is the tick's reusable working set: the SoA credit plane —
// runnable queries with their weights and credit balances in index-aligned
// slices — plus the execute phase's stepResult buffer and the retirement
// list. Buffers grow to the high-water mark of concurrent queries and stay,
// so a steady-state Tick (no finishes, no admissions) allocates nothing
// (pinned by TestTickSteadyStateAllocs and TestSharedScanSteadyStateAllocs).
type tickScratch struct {
	runnable []*Query
	weights  []float64
	credits  []float64
	results  []stepResult
	finished []*Query
	// Fold-mode partition scratch: the execute phase's work items (one per
	// solo query, one per fold group) and their shared index backing. Unused
	// — and unallocated — while no live group has two members.
	items    [][]int32
	itemBuf  []int32
	itemGids []int
}

func (t *tickScratch) ensure(n int) {
	if cap(t.runnable) < n {
		t.runnable = make([]*Query, 0, n)
		t.weights = make([]float64, n)
		t.credits = make([]float64, n)
	}
}

// New creates a server. Folding is on for the server's lifetime when
// Config.Fold is set.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), nextID: 1, onStatus: func(*Query, Status) {}}
	if s.cfg.Fold {
		s.foldReg = exec.NewFoldRegistry()
	}
	return s
}

// foldAttachPass folds newly admitted, not-yet-started queries in admission
// order, then refreshes the "any group actually shares" cache the execute
// partition keys on. Serial phase of the tick.
func (s *Server) foldAttachPass() {
	if s.foldReg == nil {
		return
	}
	for _, q := range s.running {
		if q.foldChecked || q.Status != StatusRunning {
			continue
		}
		q.foldChecked = true
		if q.Runner != nil {
			s.foldReg.Attach(q.Runner, q.Priority)
		}
	}
	s.foldGrouped = s.foldReg.HasSharing()
}

// buildItems partitions runnable into execute-phase work items: one item per
// solo query, one item — in admission order — per fold group, so a shared
// cursor is stepped by exactly one goroutine per round. Returns nil (the
// identity partition) while nothing actually shares. Item index slices are
// scratch-backed and valid until the next round.
func (s *Server) buildItems(runnable []*Query) [][]int32 {
	if !s.foldGrouped {
		return nil
	}
	if cap(s.scratch.itemBuf) < len(runnable) {
		s.scratch.itemBuf = make([]int32, 0, len(runnable))
	}
	// buf never grows past len(runnable) (each index appears exactly once),
	// so the item sub-slices below stay valid.
	buf := s.scratch.itemBuf[:0]
	items := s.scratch.items[:0]
	gids := s.scratch.itemGids[:0]
	for i, q := range runnable {
		gid := q.foldID()
		if gid != 0 {
			already := false
			for _, g := range gids {
				if g == gid {
					already = true
					break
				}
			}
			if already {
				continue
			}
		}
		start := len(buf)
		buf = append(buf, int32(i))
		if gid != 0 {
			for j := i + 1; j < len(runnable); j++ {
				if runnable[j].foldID() == gid {
					buf = append(buf, int32(j))
				}
			}
			gids = append(gids, gid)
		}
		items = append(items, buf[start:len(buf):len(buf)])
	}
	s.scratch.itemBuf, s.scratch.items, s.scratch.itemGids = buf, items, gids
	return items
}

// Close releases the execute-phase worker pool, if one was started. It is
// idempotent, and a server that never ticked in parallel has nothing to
// release. A closed server can still Tick — execution falls back inline.
func (s *Server) Close() {
	if s.pool != nil {
		s.pool.close()
	}
}

// Now returns the current virtual time in seconds.
func (s *Server) Now() float64 { return s.now }

// RateC returns the configured processing rate C.
func (s *Server) RateC() float64 { return s.cfg.RateC }

// MPL returns the admission limit (0 = unlimited).
func (s *Server) MPL() int { return s.cfg.MPL }

// Quantum returns the virtual-time step one Tick advances, in seconds.
func (s *Server) Quantum() float64 { return s.cfg.Quantum }

// WeightOf maps a priority to its weight (Assumption 3's weight table).
func (s *Server) WeightOf(priority int) float64 {
	if w, ok := s.cfg.Weights[priority]; ok {
		return w
	}
	return 1
}

// OnStatus registers the server's one lifecycle callback, replacing any
// earlier one. Each time the server sets a query's status — Submit, an arrival
// scheduled or landing, a queue refill, Block (a repeated one too), Unblock,
// Abort, a Tick retirement — it calls f then and there, on the owner goroutine,
// with the query in its new status and the status the query left. f must not
// be nil.
func (s *Server) OnStatus(f func(q *Query, from Status)) { s.onStatus = f }

// setStatus moves q to st and reports the change.
func (s *Server) setStatus(q *Query, st Status) {
	from := q.Status
	q.Status = st
	s.onStatus(q, from)
}

// NewQuery wraps a runner as a query ready for Submit.
func (s *Server) NewQuery(label, sqlText string, priority int, r *exec.Runner) *Query {
	q := &Query{
		ID:       s.nextID,
		Label:    label,
		SQL:      sqlText,
		Priority: priority,
		Runner:   r,
		tracker:  core.NewSpeedTrackerSized(speedWindow, s.trackerSamples()),
	}
	s.nextID++
	return q
}

// speedWindow is the span of virtual seconds over which a query's observed
// speed is measured.
const speedWindow = 10

// trackerSamples sizes a query's speed-tracker ring for one observation per
// quantum across the speed window (plus slack for the ≥2-sample retention
// rule), so steady ticking never regrows it.
func (s *Server) trackerSamples() int {
	n := int(speedWindow/s.cfg.Quantum) + 4
	if n < 8 {
		n = 8
	}
	if n > 4096 {
		n = 4096
	}
	return n
}

// Submit places a query in the server: it starts running immediately if an
// MPL slot is free, otherwise it waits in the admission queue.
func (s *Server) Submit(q *Query) { s.submitAt(q, s.now) }

// submitAt is Submit with an explicit submission timestamp, so arrivals that
// fall strictly inside a quantum record their true arrival time rather than
// the enclosing tick boundary.
func (s *Server) submitAt(q *Query, at float64) {
	q.SubmitTime = at
	if s.cfg.MPL > 0 && len(s.running) >= s.cfg.MPL {
		// The capture is taken in the new status, before the report, so a
		// callback that looks at the server sees queue and capture in step.
		from := q.Status
		q.Status = StatusQueued
		s.queue = append(s.queue, q)
		s.queued.push(s.InfoOf(q))
		s.onStatus(q, from)
		return
	}
	s.admitAt(q, at)
}

// ScheduleArrival submits the query automatically at virtual time at.
func (s *Server) ScheduleArrival(at float64, q *Query) {
	if at <= s.now {
		s.Submit(q)
		return
	}
	q.SubmitTime = at // the time it will be submitted
	heap.Push(&s.arrivals, arrival{at: at, q: q})
	s.setStatus(q, StatusScheduled)
}

func (s *Server) admit(q *Query) { s.admitAt(q, s.now) }

func (s *Server) admitAt(q *Query, at float64) {
	q.StartTime = at
	s.running = append(s.running, q)
	s.setStatus(q, StatusRunning)
}

// Busy reports whether any query is running, blocked, or queued, or any
// arrival is still scheduled.
func (s *Server) Busy() bool {
	return len(s.running) > 0 || len(s.queue) > 0 || len(s.arrivals) > 0
}

// Running returns the admitted queries (running and blocked), in admission
// order.
func (s *Server) Running() []*Query { return s.running }

// Queued returns the admission queue in FIFO order.
func (s *Server) Queued() []*Query { return s.queue }

// Finished returns all terminated queries (finished, aborted, failed).
func (s *Server) Finished() []*Query { return s.done }

// Lookup finds a query by ID among running, queued, and terminated queries.
func (s *Server) Lookup(id int) (*Query, bool) {
	for _, q := range s.running {
		if q.ID == id {
			return q, true
		}
	}
	for _, q := range s.queue {
		if q.ID == id {
			return q, true
		}
	}
	for _, q := range s.done {
		if q.ID == id {
			return q, true
		}
	}
	for _, a := range s.arrivals {
		if a.q.ID == id {
			return a.q, true
		}
	}
	return nil, false
}

// StateError is what Block, Unblock, SetPriority and Abort answer for a query
// in no state to take the operation. The ID is a field so that a tier which
// renumbers queries (the cluster's global ids) can report the one it was sent.
type StateError struct {
	ID      int
	Problem string
}

func (e *StateError) Error() string { return fmt.Sprintf("sched: query %d %s", e.ID, e.Problem) }

// Block suspends an admitted query (the §3.1 victim operation): it keeps its
// MPL slot but receives no capacity until Unblock.
func (s *Server) Block(id int) error {
	for _, q := range s.running {
		if q.ID == id {
			if q.Status != StatusRunning && q.Status != StatusBlocked {
				return &StateError{id, fmt.Sprintf("is %s, cannot block", q.Status)}
			}
			// Forfeit accrued scheduling credit: replaying it on Unblock
			// would give the victim more (or, after an overshoot, less) than
			// its fair share in its first quantum back.
			q.credit = 0
			// A blocked query receives no capacity, so a fold seat it kept
			// would park every peer at the shared cursor's barrier forever.
			// It finishes its lap solo after Unblock.
			if q.Runner != nil {
				q.Runner.ReleaseFold()
			}
			s.setStatus(q, StatusBlocked)
			return nil
		}
	}
	return &StateError{id, "is not admitted"}
}

// Unblock resumes a blocked query.
func (s *Server) Unblock(id int) error {
	for _, q := range s.running {
		if q.ID == id {
			if q.Status != StatusBlocked {
				return &StateError{id, fmt.Sprintf("is %s, cannot unblock", q.Status)}
			}
			s.setStatus(q, StatusRunning)
			return nil
		}
	}
	return &StateError{id, "is not admitted"}
}

// SetPriority changes the priority of a running, blocked, or queued query
// (the §3.1 "natural choice" for speeding a query up). It takes effect at
// the next quantum.
func (s *Server) SetPriority(id, priority int) error {
	for _, q := range s.running {
		if q.ID == id {
			// Fold groups hold equal-weight members only (that is what keeps a
			// member's charged progress identical to its solo run), so a query
			// changing priority class must leave its shared cursor.
			if q.Priority != priority && q.Runner != nil {
				q.Runner.ReleaseFold()
			}
			q.Priority = priority
			return nil
		}
	}
	for i, q := range s.queue {
		if q.ID == id {
			q.Priority = priority
			s.queued.set(i, s.InfoOf(q))
			return nil
		}
	}
	return &StateError{id, "is not active"}
}

// Abort terminates a query wherever it is (running, blocked, queued, or
// scheduled). Per §3.3 the abort itself is treated as free. The abort is
// reported before the refill of the slot it frees.
func (s *Server) Abort(id int) error {
	for i, q := range s.running {
		if q.ID == id {
			q.FinishTime = s.now
			q.credit = 0 // accrued credit dies with the query
			if q.Runner != nil {
				q.Runner.ReleaseFold() // free the fold seat, or peers barrier forever
			}
			s.running = append(s.running[:i], s.running[i+1:]...)
			s.done = append(s.done, q)
			s.setStatus(q, StatusAborted)
			s.fillSlots()
			return nil
		}
	}
	for i, q := range s.queue {
		if q.ID == id {
			q.FinishTime = s.now
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.queued.remove(i)
			s.done = append(s.done, q)
			s.setStatus(q, StatusAborted)
			return nil
		}
	}
	for i, a := range s.arrivals {
		if a.q.ID == id {
			q := a.q
			q.FinishTime = s.now
			heap.Remove(&s.arrivals, i)
			s.done = append(s.done, q)
			s.setStatus(q, StatusAborted)
			return nil
		}
	}
	return &StateError{id, "is not active"}
}

func (s *Server) fillSlots() {
	for len(s.queue) > 0 && (s.cfg.MPL <= 0 || len(s.running) < s.cfg.MPL) {
		q := s.queue[0]
		s.queue = s.queue[1:]
		s.queued.pop()
		s.admit(q)
	}
}

// distribute delivers rate×dt work units to the runnable queries in
// proportion to their weights. It does not advance s.now (the caller does);
// finishers are stamped with the end of the segment, s.now+dt.
func (s *Server) distribute(dt float64) {
	if dt <= 0 {
		return
	}
	// Fold newly admitted queries before credit is allocated, so a pair of
	// same-table scans submitted in the same quantum shares from page 0.
	s.foldAttachPass()
	// The segment runs on the scratch SoA credit plane: runnable queries,
	// their weights, and their credit balances live in index-aligned slices,
	// loaded once here and written back once at the end. The rounds below
	// therefore touch no maps (WeightOf is called once per query per segment;
	// priorities cannot change mid-Tick) and allocate nothing.
	s.scratch.ensure(len(s.running))
	runnable := s.scratch.runnable[:0]
	for _, q := range s.running {
		if q.Status == StatusRunning {
			runnable = append(runnable, q)
		}
	}
	s.scratch.runnable = runnable
	if len(runnable) == 0 {
		return
	}
	weights := s.scratch.weights[:len(runnable)]
	credits := s.scratch.credits[:len(runnable)]
	for i, q := range runnable {
		weights[i] = s.WeightOf(q.Priority)
		credits[i] = q.credit
	}
	rate := s.cfg.RateC
	if s.cfg.RateFunc != nil {
		rate = s.cfg.RateFunc(len(runnable))
	}
	budget := rate * dt
	// Work-conserving weighted fair sharing, run as repeated rounds of the
	// three-phase pipeline (see exec_phase.go): a query that finishes
	// mid-segment hands its surplus credit back during settlement, and the
	// pool is redistributed among the queries still runnable until the
	// segment's budget is exhausted or nothing is left to run. Each round
	// retires at least one query from `runnable` (budget only refills when
	// one finishes), so the loop does at most len(runnable)+1 rounds.
	for budget > 1e-9 && len(runnable) > 0 {
		// (1) allocate: fix every query's credit for this round, serially
		// and purely in virtual time. Each share depends only on the pool
		// and the weight table, never on another query's execution.
		W := 0.0
		for i := range runnable {
			W += weights[i]
		}
		if W <= 0 {
			break
		}
		pool := budget
		budget = 0
		for i := range runnable {
			credits[i] += pool * weights[i] / W
		}
		// (2) execute: step every runner against its fixed credit —
		// concurrently when Workers allows it. A query whose accrued credit
		// is still non-positive (a prior overshoot) steps with a
		// non-positive budget, which performs no work.
		results := s.executePhase(runnable, credits, s.buildItems(runnable))
		// (3) settle: fold consumed and leftover work back in admission
		// order, so float accumulation is independent of which worker
		// finished first and bit-identical to the serial scheduler.
		// Compaction happens in the same pass, in place, preserving
		// admission order across all three parallel slices.
		keep := 0
		for i, q := range runnable {
			r := results[i]
			credits[i] -= r.consumed
			if r.done {
				// A finisher whose driver scan never reached its lap's end
				// (LIMIT satisfied, execution error) must leave its fold seat,
				// or the surviving members would wait on it forever at the
				// cursor barrier.
				if q.Runner != nil {
					q.Runner.ReleaseFold()
				}
				q.FinishTime = s.now + dt
				if r.err != nil {
					q.Status = StatusFailed
					q.Err = r.err
				} else {
					q.Status = StatusFinished
				}
				// Reclaim the finisher's unconsumed share for the rest
				// of the segment. A finishing Step can overshoot by a
				// tuple, so only a positive remainder is returned.
				if credits[i] > 0 {
					budget += credits[i]
				}
				q.credit = 0
				continue
			}
			runnable[keep] = q
			weights[keep] = weights[i]
			credits[keep] = credits[i]
			keep++
		}
		runnable = runnable[:keep]
		weights = weights[:keep]
		credits = credits[:keep]
	}
	// Persist surviving balances back to the queries (blocked queries were
	// never loaded and keep theirs untouched).
	for i, q := range runnable {
		q.credit = credits[i]
	}
}

// Tick advances virtual time by one quantum: C×quantum work units are
// distributed among runnable queries in proportion to their weights. The
// quantum is split at arrival boundaries, so a query whose arrival time
// falls strictly inside the quantum is submitted *at* that time and served
// for the rest of the quantum, instead of silently losing up to one quantum
// of service by waiting for the next Tick (and having its SubmitTime skewed
// to the tick boundary). At the end of the quantum the finishers retire and
// are reported in query-ID order, and only then does the admission queue
// refill the slots they freed, each refill reported as it is admitted.
func (s *Server) Tick() {
	s.lastStats = TickStats{}
	end := s.now + s.cfg.Quantum
	for {
		// Submit arrivals due now (the heap guarantees anything left is due
		// strictly later, so each segment makes progress).
		for len(s.arrivals) > 0 && s.arrivals[0].at <= s.now+1e-12 {
			a := heap.Pop(&s.arrivals).(arrival)
			s.Submit(a.q)
		}
		segEnd := end
		if len(s.arrivals) > 0 && s.arrivals[0].at < segEnd {
			segEnd = s.arrivals[0].at
		}
		s.distribute(segEnd - s.now)
		s.now = segEnd
		if segEnd >= end-1e-12 {
			s.now = end
			break
		}
	}

	// Retire finished queries and refill MPL slots. Retirement is sorted by
	// query ID — not admission or completion order — so the `done` list, the
	// finish reports, and everything layered on them (the service's /events
	// stream) are byte-identical at every worker count. The finished
	// list lives in the tick scratch and is ordered by insertion sort (IDs are
	// unique; finishes per tick are few), so steady-state retirement neither
	// allocates the slice nor a sort.Slice closure.
	finished := s.scratch.finished[:0]
	kept := s.running[:0]
	for _, q := range s.running {
		if q.Status == StatusFinished || q.Status == StatusFailed {
			j := len(finished)
			finished = append(finished, q)
			for j > 0 && finished[j-1].ID > q.ID {
				finished[j] = finished[j-1]
				j--
			}
			finished[j] = q
			continue
		}
		kept = append(kept, q)
	}
	s.running = kept
	s.scratch.finished = finished
	s.done = append(s.done, finished...)
	if s.foldReg != nil {
		// Retire groups drained by this tick's detachments, folding their page
		// counters into the registry's lifetime totals.
		s.foldReg.Sweep()
	}

	// Speed observation happens after time advanced, so trackers see the
	// work/time pairing the PI would sample: the survivors, the finishers,
	// and the refills fillSlots admits (a query the callback itself submits is
	// first observed at the next tick). Finishers are reported (their status
	// was set when they finished, mid-segment) before fillSlots refills the
	// slots they freed, so the reports follow the order of the changes.
	for _, q := range s.running {
		q.tracker.Observe(s.now, q.Runner.WorkDone())
	}
	for _, q := range finished {
		q.tracker.Observe(s.now, q.Runner.WorkDone())
		s.onStatus(q, StatusRunning)
	}
	n := len(s.running)
	s.fillSlots()
	for _, q := range s.running[n:] {
		q.tracker.Observe(s.now, q.Runner.WorkDone())
	}
}

// RunUntil ticks until virtual time reaches t.
func (s *Server) RunUntil(t float64) {
	for s.now < t && s.Busy() {
		s.Tick()
	}
}

// Stalled reports whether the server can make no further progress on its
// own: no query is runnable and no arrival is pending, so every remaining
// query is blocked (or stuck behind blocked queries in the admission queue).
func (s *Server) Stalled() bool {
	if len(s.arrivals) > 0 {
		return false
	}
	for _, q := range s.running {
		if q.Status == StatusRunning {
			return false
		}
	}
	// Queued queries could only be admitted when a running query retires,
	// which cannot happen if nothing is runnable.
	return len(s.running) > 0 || len(s.queue) > 0
}

// RunUntilIdle ticks until no work remains, the server stalls (only blocked
// queries left), or maxTime is reached; it returns the stopping time.
func (s *Server) RunUntilIdle(maxTime float64) float64 {
	for s.Busy() && !s.Stalled() && s.now < maxTime {
		s.Tick()
	}
	return s.now
}

// StateRunning returns the PI view of admitted queries: refined remaining
// costs, weights (0 for blocked queries, which receive no capacity), and
// completed work.
func (s *Server) StateRunning() []core.QueryState {
	out := make([]core.QueryState, 0, len(s.running))
	for _, q := range s.running {
		st := q.State()
		if q.Status == StatusRunning {
			st.Weight = s.WeightOf(q.Priority)
		}
		out = append(out, st)
	}
	return out
}

// StateQueued returns the PI view of the admission queue in FIFO order.
func (s *Server) StateQueued() []core.QueryState {
	out := make([]core.QueryState, 0, len(s.queue))
	for _, q := range s.queue {
		st := q.State()
		st.Weight = s.WeightOf(q.Priority)
		out = append(out, st)
	}
	return out
}

// QueryInfo is a value snapshot of one query. Unlike *Query — whose fields
// the next Tick mutates — a QueryInfo is safe to retain, compare, or hand to
// another goroutine, which is what the serving layer does.
type QueryInfo struct {
	ID         int
	Label      string
	SQL        string
	Priority   int
	Status     Status
	SubmitTime float64
	StartTime  float64
	FinishTime float64
	Done       float64 // e_i: work completed, in U's
	Remaining  float64 // c_i: refined remaining-cost estimate, in U's
	Speed      float64 // observed execution speed over the speed window, U/s
	Weight     float64 // current scheduling weight (0 while blocked)
	// Credit is the accrued scheduling balance in U's: positive when the
	// runner could not spend its share yet (its next indivisible chunk
	// exceeds the balance), negative after a chunk overshot and the debt is
	// being paid down. Zero in steady fluid operation.
	Credit float64
	// Cost is the engine-cost plane in U's: physical work after shared-scan
	// deduplication. Equal to Done unless the query rode a shared cursor.
	Cost float64
	// FoldGroup is the shared-scan group the query currently rides, 0 when it
	// is not attached (never folded, or detached).
	FoldGroup int
	Err       string // terminal error, if the query failed
}

// InfoOf captures a value snapshot of q under this server's weight table.
func (s *Server) InfoOf(q *Query) QueryInfo {
	info := QueryInfo{
		ID:         q.ID,
		Label:      q.Label,
		SQL:        q.SQL,
		Priority:   q.Priority,
		Status:     q.Status,
		SubmitTime: q.SubmitTime,
		StartTime:  q.StartTime,
		FinishTime: q.FinishTime,
		Done:       q.Runner.WorkDone(),
		Remaining:  q.Runner.EstRemaining(),
		Speed:      q.ObservedSpeed(),
		Credit:     q.credit,
		Cost:       q.Runner.CostDone(),
		FoldGroup:  q.foldID(),
	}
	if q.Status == StatusRunning || q.Status == StatusQueued || q.Status == StatusScheduled {
		info.Weight = s.WeightOf(q.Priority)
	}
	if q.Err != nil {
		info.Err = q.Err.Error()
	}
	return info
}

// queueCapture is the admission queue as values, index-aligned with
// Server.queue: each queued query's QueryInfo and the PI state derived from it.
// A waiting query's values cannot change — its runner is not opened, its speed
// tracker has no samples and it holds no credit — so they are captured once, as
// it enters the queue, and every Snapshot shares the arrays instead of copying
// them. A snapshot holds a view capped at its length, so the arrays are only
// ever appended to past every view, or dropped from the head: an admission
// pops, a submit that queues pushes, and the two changes from inside the queue
// — an abort, a priority change — write fresh arrays (copy-on-write).
type queueCapture struct {
	infos  []QueryInfo
	states []core.QueryState
}

func (c *queueCapture) push(info QueryInfo) {
	c.infos = append(c.infos, info)
	c.states = append(c.states, info.state())
}

func (c *queueCapture) pop() { c.infos, c.states = c.infos[1:], c.states[1:] }

// remove drops entry i, into fresh arrays.
func (c *queueCapture) remove(i int) {
	c.infos = slices.Delete(slices.Clone(c.infos), i, i+1)
	c.states = slices.Delete(slices.Clone(c.states), i, i+1)
}

// set replaces entry i, in fresh arrays.
func (c *queueCapture) set(i int, info QueryInfo) {
	c.infos, c.states = slices.Clone(c.infos), slices.Clone(c.states)
	c.infos[i], c.states[i] = info, info.state()
}

// FoldStats summarizes a server's shared-scan folding state: live gauges plus
// lifetime counters. The zero value means folding is off.
type FoldStats struct {
	Groups     int    // live fold groups (>= 1 member)
	Members    int    // live attached members
	Attaches   uint64 // lifetime member attachments
	Fetches    uint64 // lifetime pages physically read by shared cursors
	PagesSaved uint64 // lifetime page reads avoided (consumptions served shared)
}

// FoldStats returns the server's current folding summary.
func (s *Server) FoldStats() FoldStats {
	if s.foldReg == nil {
		return FoldStats{}
	}
	st := s.foldReg.Stats()
	return FoldStats{
		Groups:     st.Groups,
		Members:    st.Members,
		Attaches:   st.Attaches,
		Fetches:    st.Fetches,
		PagesSaved: st.PagesSaved(),
	}
}

// FoldTables returns the sorted table names with a live fold group — the
// signal a fold-aware router keys on.
func (s *Server) FoldTables() []string {
	if s.foldReg == nil {
		return nil
	}
	return s.foldReg.Tables()
}

// Snapshot is a consistent value copy of the server's whole state, taken
// between ticks. It carries everything the progress-indicator read path
// needs — states, weights, observed speeds — so estimates can be computed
// from the snapshot alone, on any goroutine, with no live scheduler pointers.
// A capture copies the admitted and the scheduled queries; the queued and the
// terminated ones are read-only views of values the server captured once and
// never writes again, so its cost follows the running set and what changed.
type Snapshot struct {
	Now         float64
	RateC       float64
	MPL         int
	Quantum     float64
	Workers     int // effective execute-phase worker count (>= 1)
	FoldEnabled bool
	Fold        FoldStats
	FoldTables  []string    // tables with a live fold group, sorted
	Running     []QueryInfo // admitted queries (running and blocked), admission order
	// Queued is the admission queue in FIFO order: a read-only view of the
	// server's capture of it, shared with the other snapshots taken while the
	// queue did not change.
	Queued    []QueryInfo
	Scheduled []QueryInfo // future arrivals, ascending arrival time
	// Done lists the terminated queries in termination order. It is a
	// read-only view shared with later snapshots of the same server, which
	// see it as a prefix of theirs.
	Done []QueryInfo
	// queuedStates is Queued in the PI view, shared the same way.
	queuedStates []core.QueryState
}

// Locate finds one query's info in the snapshot, searching admitted, queued,
// scheduled, and terminated queries, and reports its position in
// Running ++ Queued — where an estimate bundle computed from this snapshot
// holds its estimate — or -1 for a scheduled or terminated query, which has
// none.
func (s *Snapshot) Locate(id int) (info QueryInfo, pos int, ok bool) {
	for i := range s.Running {
		if s.Running[i].ID == id {
			return s.Running[i], i, true
		}
	}
	for i := range s.Queued {
		if s.Queued[i].ID == id {
			return s.Queued[i], len(s.Running) + i, true
		}
	}
	for _, list := range [2][]QueryInfo{s.Scheduled, s.Done} {
		for i := range list {
			if list[i].ID == id {
				return list[i], -1, true
			}
		}
	}
	return QueryInfo{}, -1, false
}

// Lookup is Locate without the position.
func (s *Snapshot) Lookup(id int) (QueryInfo, bool) {
	info, _, ok := s.Locate(id)
	return info, ok
}

// StatesRunning converts the snapshot's admitted queries to the PI's
// abstract view, mirroring Server.StateRunning: blocked queries carry
// weight 0 (QueryInfo.Weight is already 0 while blocked).
func (s *Snapshot) StatesRunning() []core.QueryState {
	return infoStates(s.Running)
}

// StatesQueued returns the snapshot's admission queue in the PI view, FIFO
// order, equal to Server.StateQueued at the capture. The slice is shared with
// other snapshots and must not be written.
func (s *Snapshot) StatesQueued() []core.QueryState { return s.queuedStates }

// LoadStats summarizes the snapshot as a routing load signal: how many
// queries hold MPL slots (running + blocked), how many wait in the admission
// queue, and the total refined remaining cost across admitted, queued, and
// scheduled queries in U's. Scheduled arrivals count toward the remaining
// work — a shard that has absorbed delayed admissions owes that work even
// though nothing runs yet — but not toward either depth figure.
func (s *Snapshot) LoadStats() (admitted, queued int, remainingU float64) {
	for _, q := range s.Running {
		remainingU += q.Remaining
	}
	for _, q := range s.Queued {
		remainingU += q.Remaining
	}
	for _, q := range s.Scheduled {
		remainingU += q.Remaining
	}
	return len(s.Running), len(s.Queued), remainingU
}

// Speeds returns the observed execution speed of every admitted query, the
// s in the single-query PI's t = c/s.
func (s *Snapshot) Speeds() map[int]float64 {
	out := make(map[int]float64, len(s.Running))
	for _, q := range s.Running {
		out[q.ID] = q.Speed
	}
	return out
}

func infoStates(infos []QueryInfo) []core.QueryState {
	out := make([]core.QueryState, 0, len(infos))
	for _, q := range infos {
		out = append(out, q.state())
	}
	return out
}

// state is the PI view of the captured query.
func (q *QueryInfo) state() core.QueryState {
	return core.QueryState{ID: q.ID, Remaining: q.Remaining, Weight: q.Weight, Done: q.Done, Fold: q.FoldGroup}
}

// Snapshot captures the server state as plain values.
func (s *Server) Snapshot() Snapshot {
	snap := Snapshot{
		Now: s.now, RateC: s.cfg.RateC, MPL: s.cfg.MPL, Quantum: s.cfg.Quantum,
		Workers:     s.Workers(),
		FoldEnabled: s.foldReg != nil,
		Fold:        s.FoldStats(),
		FoldTables:  s.FoldTables(),
	}
	snap.Running = s.infosOf(s.running)
	snap.Queued, snap.queuedStates = capped(s.queued.infos), capped(s.queued.states)
	if len(s.arrivals) > 0 {
		arr := append([]arrival(nil), s.arrivals...)
		sort.Slice(arr, func(i, j int) bool { return arr[i].at < arr[j].at })
		snap.Scheduled = make([]QueryInfo, len(arr))
		for i, a := range arr {
			snap.Scheduled[i] = s.InfoOf(a.q)
		}
	}
	// A terminated query never changes again, so its info is captured once,
	// by the first snapshot that sees it, and every snapshot's Done is a view
	// of the one append-only history: the cost of a snapshot follows the live
	// queries, not everything that ever ran. The view's capacity is capped at
	// its length, so an older snapshot keeps exactly the prefix it was given —
	// later appends land beyond it or in a fresh array — and a holder that
	// appends to its Done copies instead of writing into the shared history.
	for _, q := range s.done[len(s.doneInfo):] {
		s.doneInfo = append(s.doneInfo, s.InfoOf(q))
	}
	snap.Done = capped(s.doneInfo)
	return snap
}

// capped returns xs with its capacity cut to its length — a view a holder can
// append to without writing into the array behind it — or nil when empty.
func capped[T any](xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	return xs[:len(xs):len(xs)]
}

// infosOf captures qs as values, nil when there are none.
func (s *Server) infosOf(qs []*Query) []QueryInfo {
	if len(qs) == 0 {
		return nil
	}
	out := make([]QueryInfo, len(qs))
	for i, q := range qs {
		out[i] = s.InfoOf(q)
	}
	return out
}
