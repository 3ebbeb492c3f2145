// Package service turns the replay-only virtual-time simulator into a live
// progress-indicator service — the way the paper's prototype was actually
// consumed, with PostgreSQL clients polling estimates *while* queries ran.
//
// A Manager hosts one sched.Server, one engine.DB, and all derived state
// behind a single owner goroutine — the only writer. Mutations (Submit,
// Block, Abort, SetPriority, Advance, Exec) marshal a closure onto an
// unbuffered request channel and wait for the owner to run it; a wall-clock
// ticker feeding the same loop drives sched.Tick, bridging the virtual clock
// to real time with a configurable time scale (an hour-long workload can
// replay in seconds). Each wake-up owes the clock the wall time that passed
// since the previous one, times the scale — not one interval per fire, since
// a busy owner misses fires — and what it cannot pay is carried as debt.
// Nothing inside the simulator needs a mutex, and every value that crosses
// the goroutine boundary is a copy (sched.QueryInfo, QueryView, Event),
// never a live pointer.
//
// Reads take a different path entirely. After every mutation and tick batch
// the owner publishes an immutable, epoch-stamped Snapshot through an atomic
// pointer, and the snapshot carries the estimate bundle for that state. A
// state is captured once (Manager.capture) — in observe after the ticks, or in
// publish when a request rather than a tick changed the state: sched.Snapshot
// copies the running set and shares the queue it captured as each query
// entered it, so a capture costs what changed; the estimator's input is
// derived from that copy, the Manager's one estimator runs one finish-tag pass over it (two
// with an arrival model, into a heap and a finish slice it keeps between
// passes) and answers with one slice in the copy's own order — estimate i
// belongs to query i of Sched.Running ++ Sched.Queued — and the publish
// stamps the copy with the owner's lifetime counts, which /metrics renders
// beside the depth and fold gauges it reads off the same copy. The owner's
// cost is per step, not per tick: a ticker wake-up and a manual Advance alike
// run every tick they owe, then observe once and publish once, because no
// reader can see a state between two ticks of one step. A wake-up that ran
// no tick publishes nothing. Progress, Overview, Diagram, /metrics and the §3
// planners load the latest snapshot and build their views on the *caller's*
// goroutine: load a pointer, one scan for the query and the position of its
// estimate, encode — no mutex, no channel wait, no estimator on any poll — so
// polls scale with reader parallelism instead of serializing behind each other
// and the scheduler ticks.
//
// On top of the session manager sits the observability layer: Prometheus
// counters/gauges/histograms (Metrics, rendered from one published snapshot
// plus lock-free histograms) and a bounded per-query event trace (EventLog),
// both safe to read from any goroutine without stalling the scheduler.
package service

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mqpi/internal/core"
	"mqpi/internal/engine"
	"mqpi/internal/sched"
	"mqpi/internal/wm"
)

// ErrClosed is returned by every Manager method after Close.
var ErrClosed = errors.New("service: manager closed")

// ErrNotFound is returned when a query ID is unknown.
var ErrNotFound = errors.New("service: unknown query")

// ErrBusy is returned by Exec when the owner goroutine could not take the
// statement within Config.ExecDeadline — typically because a long (possibly
// parallel) tick is in flight. The HTTP layer maps it to 409 Conflict so
// clients retry instead of silently queueing DML behind the scheduler.
var ErrBusy = errors.New("service: owner busy, exec deadline exceeded")

// Config configures a Manager.
type Config struct {
	// Sched configures the wrapped scheduler (rate C, weights, MPL, quantum).
	Sched sched.Config
	// TickEvery is the wall-clock interval between ticker wake-ups (default
	// 50ms); each wake-up runs the ticks owed for the wall time that actually
	// passed since the last. A negative value disables the ticker entirely:
	// virtual time then only moves through Advance, which is what
	// deterministic tests and batch drivers use.
	TickEvery time.Duration
	// TimeScale is virtual seconds per wall second (default 1). At 600, an
	// hour-long workload replays in six seconds of wall time.
	TimeScale float64
	// EventCap bounds each query's event ring (default 128).
	EventCap int
	// ExecDeadline bounds how long a synchronous Exec (DDL/DML) waits for
	// the owner goroutine before giving up with ErrBusy. DML must be
	// serialized against the tick's parallel execute phase — it mutates
	// relations the runners scan lock-free — so it can only run between
	// ticks; under heavy load or a pathological time scale that wait can be
	// long, and a deadline turns it into fast, retryable back-pressure.
	// Zero or negative waits indefinitely (the pre-deadline behaviour).
	ExecDeadline time.Duration
	// MaxTicksPerAdvance bounds how many scheduler ticks one advance may run
	// (default 100000) — the backstop against a pathological TimeScale that
	// would otherwise pin the owner goroutine in the tick loop. When the
	// backstop fires the un-ticked virtual-time debt is carried into the next
	// advance (and counted by mqpi_advance_backstop_total), never dropped.
	MaxTicksPerAdvance int
	// Arrivals optionally switches the multi-query estimates to the §2.4
	// future-aware form.
	Arrivals *core.ArrivalModel
	// Estimator selects the estimate plane: "stage" (default) is the stage
	// model with degenerate bands; "calibrated" serves the same points with
	// an uncertainty band from their rolling finish error. Must be one of
	// core.EstimatorModes (New panics otherwise — the HTTP and flag layers
	// validate first).
	Estimator string
}

func (c Config) withDefaults() Config {
	if c.TickEvery == 0 {
		c.TickEvery = 50 * time.Millisecond
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 1
	}
	if c.EventCap <= 0 {
		c.EventCap = 128
	}
	if c.MaxTicksPerAdvance <= 0 {
		c.MaxTicksPerAdvance = 100000
	}
	return c
}

// Manager is the goroutine-safe session manager over one scheduler and one
// database. Create with New, stop with Close.
type Manager struct {
	cfg     Config
	metrics *Metrics
	events  *EventLog

	reqs      chan func()
	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	// Read path: the owner publishes an immutable snapshot, estimates
	// included, here after every mutation; pollers only load it.
	snap atomic.Pointer[Snapshot]

	// Owner-goroutine state: only the loop goroutine may touch these.
	db         *engine.DB
	srv        *sched.Server
	epoch      uint64          // last published snapshot epoch
	debt       float64         // virtual seconds owed but not yet ticked
	lastFinish map[int]float64 // query -> last predicted absolute finish time
	// est is the Manager's one estimator. Every pass is a function of its
	// input alone; what est keeps between passes is scratch memory (the
	// stage model's finish-tag heap and finish slice).
	est core.Estimator
	// pending is the capture of the live scheduler state that observe left for
	// the publish that follows it, which consumes it; nil otherwise, and a
	// publish then takes its own.
	pending *Snapshot
	revs    []revision // observe's scratch, kept between passes
	moves   []move     // the moves revise found in the current pass
	counts  counts     // lifetime totals, copied into every published snapshot
	// calib accumulates finish-time residuals and band coverage for the
	// calibrated band; nil in stage mode, where no calibration runs and the
	// estimate path is the classic pipeline verbatim.
	calib *core.EnsembleCalib
}

// New creates a manager over db and starts its owner goroutine.
func New(db *engine.DB, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	if cfg.Arrivals != nil {
		// The owner goroutine reads this on every estimate pass; a private
		// copy guarantees the caller cannot mutate it underneath.
		a := *cfg.Arrivals
		cfg.Arrivals = &a
	}
	m := &Manager{
		cfg:        cfg,
		metrics:    new(Metrics),
		events:     newEventLog(cfg.EventCap),
		reqs:       make(chan func()),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		db:         db,
		srv:        sched.New(cfg.Sched),
		lastFinish: make(map[int]float64),
	}
	est, err := core.NewEstimator(cfg.Estimator)
	if err != nil {
		panic(err) // flag/HTTP layers validate; reaching here is a programming error
	}
	m.est = est
	if est.Mode() != core.EstimatorStage {
		m.calib = core.NewEnsembleCalib()
	}
	m.srv.OnStatus(m.onStatus)
	m.metrics.snap = &m.snap
	m.publish() // epoch 1: readers never observe a nil snapshot
	go m.loop()
	return m
}

// Close stops the owner goroutine, waiting for in-flight requests to drain.
// It is idempotent; methods called after Close return ErrClosed.
func (m *Manager) Close() {
	m.closeOnce.Do(func() { close(m.quit) })
	<-m.done
}

// Metrics returns the service metrics registry.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// Events returns the retained event trace: one query's (oldest first), or
// every query's merged in sequence order when id is 0.
func (m *Manager) Events(id int) []Event {
	if id == 0 {
		return m.events.All()
	}
	return m.events.Query(id)
}

func (m *Manager) loop() {
	var tickC <-chan time.Time
	if m.cfg.TickEvery > 0 {
		ticker := time.NewTicker(m.cfg.TickEvery)
		defer ticker.Stop()
		tickC = ticker.C
	}
	lastWakeup := time.Now()
	for {
		select {
		case <-m.quit:
			// Drain requests that already rendezvoused, then release
			// everyone else via the closed done channel.
			for {
				select {
				case f := <-m.reqs:
					f()
				default:
					m.srv.Close() // release the execute-phase worker pool
					close(m.done)
					return
				}
			}
		case f := <-m.reqs:
			f()
		case <-tickC:
			// The clock is owed the wall time that passed since the last
			// wake-up, not one TickEvery per fire received: a time.Ticker
			// drops the fires it could not deliver while the owner was busy.
			now := time.Now()
			ticks := m.advance(now.Sub(lastWakeup).Seconds() * m.cfg.TimeScale)
			lastWakeup = now
			m.metrics.observeWakeup(ticks, m.debt)
			if ticks > 0 {
				m.publish() // no tick, no change: the published epoch stands
			}
		}
	}
}

// call runs f on the owner goroutine, publishes a fresh snapshot, and waits
// for both to complete — so a client that mutates and immediately polls reads
// its own write.
func (m *Manager) call(f func()) error {
	_, err := m.callDeadline(f, 0)
	return err
}

// callDeadline is call with a bound on the hand-off wait: if the owner does
// not take the request within d (because a tick — serial credit plane plus
// parallel execute phase — is still in flight), it returns ErrBusy without
// running f. d <= 0 waits indefinitely. Once the owner accepts the request,
// it always runs to completion, and callDeadline returns the snapshot
// published for it.
func (m *Manager) callDeadline(f func(), d time.Duration) (*Snapshot, error) {
	var snap *Snapshot
	fin := make(chan struct{})
	req := func() {
		m.counts.ownerRequests++
		f()
		snap = m.publish()
		close(fin)
	}
	var timeout <-chan time.Time
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case m.reqs <- req:
		<-fin
		return snap, nil
	case <-m.done:
		return nil, ErrClosed
	case <-timeout:
		m.metrics.execBusy.Add(1)
		return nil, ErrBusy
	}
}

// publish installs a fresh immutable snapshot, estimates and counts included,
// for the read path: the capture observe just took when the publish follows a
// tick, otherwise one of the live state. Owner goroutine only (called from New
// before the loop starts, then from the loop).
func (m *Manager) publish() *Snapshot {
	snap := m.pending
	if snap == nil {
		snap, _ = m.capture()
	}
	m.pending = nil
	m.epoch++
	snap.Epoch, snap.Published, snap.counts = m.epoch, time.Now(), m.counts
	m.snap.Store(snap)
	return snap
}

// capture is the one walk of the runners a scheduler state gets, and
// everything derived from it: sched.Snapshot copies the live set out; the
// estimator's input is that copy in the copy's own order, so position i of
// the bundle is the estimate of query i of Sched.Running ++ Sched.Queued —
// bit-identical to the stateless core.ComputeEstimates in stage mode. It
// returns the snapshot, complete but for its epoch and counts, and the input
// its estimates were computed from.
// Owner goroutine only.
func (m *Manager) capture() (*Snapshot, core.EstimateInput) {
	snap := &Snapshot{Sched: m.srv.Snapshot(), TimeScale: m.cfg.TimeScale, Estimator: m.est.Mode()}
	start := time.Now()
	var st core.EnsembleState
	if m.calib != nil {
		st = m.calib.State()
	}
	in := snap.estimateInput(m.cfg.Arrivals)
	snap.est = m.est.Estimates(in, st)
	m.metrics.estimate.Record(time.Since(start))
	return snap, in
}

// read returns the latest published snapshot without touching the owner
// goroutine. After Close it fails with ErrClosed, preserving the method
// contract even though the final snapshot would still be readable.
func (m *Manager) read() (*Snapshot, error) {
	select {
	case <-m.done:
		return nil, ErrClosed
	default:
		return m.snap.Load(), nil
	}
}

// advance accrues vsec virtual seconds of debt, ticks the scheduler while at
// least one quantum is owed, and returns how many ticks it ran. The virtual
// clock freezes while the server is idle (no queries, no arrivals) so a quiet
// service does not spin. One observe pass follows the ticks, if any ran,
// whoever moved the clock: nobody can read a state between two ticks of one
// step, so a client that wants one observation per quantum advances one
// quantum at a time.
func (m *Manager) advance(vsec float64) (ticks int) {
	if vsec <= 0 {
		return 0
	}
	quantum := m.srv.Quantum()
	m.debt += vsec
	for m.debt >= quantum-1e-12 {
		if !m.srv.Busy() {
			// Idle server: the virtual clock freezes, so nothing is owed.
			m.debt = 0
			break
		}
		if ticks >= m.cfg.MaxTicksPerAdvance {
			// Backstop against a pathological time scale: stop ticking now,
			// but keep the residual debt so the clock catches up across
			// subsequent advances instead of silently losing virtual time.
			m.counts.advanceBackstops++
			break
		}
		start := time.Now()
		m.srv.Tick()
		m.metrics.tickDur.Record(time.Since(start))
		st := m.srv.TickStats()
		m.metrics.execDur.RecordSeconds(st.ExecuteSeconds)
		m.counts.tickRounds += uint64(st.Rounds)
		m.debt -= quantum
		ticks++
	}
	if ticks > 0 {
		m.observe()
	}
	return ticks
}

// onStatus is the scheduler's lifecycle callback, and the only place the
// lifecycle events and counters are recorded: sched calls it on the owner
// goroutine each time it sets a query's status, at the virtual time of the
// change, so the event log follows the clock. A query that leaves — finished,
// failed or aborted — is settled here too.
func (m *Manager) onStatus(q *sched.Query, from sched.Status) {
	now := m.srv.Now()
	switch q.Status {
	case sched.StatusScheduled:
		m.counts.submitted++
		m.events.add(now, q.ID, EventScheduled, fmt.Sprintf("arrives at t=%.3fs", q.SubmitTime))
	case sched.StatusBlocked:
		m.counts.blocked++
		m.events.add(now, q.ID, EventBlocked, "")
	case sched.StatusQueued, sched.StatusRunning:
		switch from {
		case sched.StatusBlocked:
			m.counts.unblocked++
			m.events.add(now, q.ID, EventUnblocked, "")
			return
		case sched.StatusNew:
			m.counts.submitted++
			m.events.add(now, q.ID, EventSubmitted, "")
		case sched.StatusScheduled:
			m.events.add(now, q.ID, EventSubmitted, "scheduled arrival")
		}
		if q.Status == sched.StatusQueued {
			m.events.add(now, q.ID, EventQueued, "")
		} else {
			m.events.add(now, q.ID, EventAdmitted, "")
		}
	case sched.StatusFinished:
		delete(m.lastFinish, q.ID)
		if m.calib != nil {
			m.calib.Finish(q.ID, q.FinishTime)
		}
		m.counts.finished++
		m.events.add(q.FinishTime, q.ID, EventFinished,
			fmt.Sprintf("latency %.3fs, %.1f U", q.FinishTime-q.SubmitTime, q.Runner.WorkDone()))
	case sched.StatusFailed, sched.StatusAborted:
		delete(m.lastFinish, q.ID)
		if m.calib != nil {
			m.calib.Forget(q.ID) // a failure or an abort is not an ETA residual
		}
		if q.Status == sched.StatusAborted {
			m.counts.aborted++
			m.events.add(q.FinishTime, q.ID, EventAborted, "")
		} else {
			m.counts.failed++
			m.events.add(q.FinishTime, q.ID, EventFailed, q.Err.Error())
		}
	}
}

// revision is one query's multi-query ETA of one pass, keyed for the
// id-ordered walk observe makes of them.
type revision struct {
	id  int
	eta float64
}

// observe captures the state the last tick left and reads off the capture
// what only a tick moves: the calibration fold, and the movement of every
// query's predicted finish time since the previous pass (histogram and
// estimate_revised events). It leaves the capture for the publish that
// follows.
func (m *Manager) observe() {
	snap, in := m.capture()
	m.pending = snap
	now := snap.Sched.Now
	if m.calib != nil {
		// Fold this pass into the calibration state: each query's absolute
		// predicted finish and the reported band.
		m.calib.Observe(now, in, snap.est)
		m.counts.bandWithin, m.counts.bandFinishes = m.calib.Coverage()
	}
	// Estimates come in admission order; the estimate_revised events appended
	// here land in the event log in query-ID order, which the trace fence
	// pins: /events reads the same on every run and at every worker count.
	m.revs = m.revs[:0]
	for i, e := range snap.est.PerQuery {
		m.revs = append(m.revs, revision{in.Query(i).ID, e.MultiQuery})
	}
	slices.SortFunc(m.revs, func(a, b revision) int { return cmp.Compare(a.id, b.id) })
	m.moves = m.moves[:0]
	for _, r := range m.revs {
		m.revise(now, r.id, r.eta)
	}
	m.events.addRevised(now, m.moves)
}

// revisionSlack is the relative slack on the one-quantum revision threshold. A
// query that makes no progress slides its absolute predicted finish by exactly
// one quantum per tick, so a bare rev >= quantum is decided by the last ulp of
// now + eta - last: the same move records on one tick and not on the next.
// With the slack a move of exactly the threshold always records, whichever way
// the subtraction rounded.
const revisionSlack = 1e-9

// revise folds one query's multi-query ETA at virtual time now into the
// revision histogram and, when its absolute predicted finish moved by at
// least one quantum since the previous pass, the pass's moves, which observe
// records in the event log.
func (m *Manager) revise(now float64, id int, eta float64) {
	if math.IsInf(eta, 1) || math.IsNaN(eta) {
		return
	}
	abs := now + eta
	if last, ok := m.lastFinish[id]; ok {
		rev := math.Abs(abs - last)
		m.metrics.revision.RecordSeconds(rev)
		if rev >= m.srv.Quantum()*(1-revisionSlack) {
			m.moves = append(m.moves, move{id, last, abs})
		}
	}
	m.lastFinish[id] = abs
}

// SubmitRequest describes one query submission.
type SubmitRequest struct {
	Label    string `json:"label"`
	SQL      string `json:"sql"`
	Priority int    `json:"priority"`
	// Delay, when positive, schedules the arrival Delay virtual seconds from
	// now instead of submitting immediately. Negative and non-finite delays
	// are refused.
	Delay float64 `json:"delay,omitempty"`
}

// Submit prepares the SQL and places the query in the scheduler (or its
// arrival calendar). It returns the query's initial view, whose ID all other
// operations use.
func (m *Manager) Submit(req SubmitRequest) (QueryView, error) {
	// A negative delay is not "now", and an infinite one would park the query
	// in the arrival calendar forever, keeping the server busy and the idle
	// clock from ever freezing again. NaN fails the first comparison.
	if !(req.Delay >= 0) || math.IsInf(req.Delay, 1) {
		return QueryView{}, fmt.Errorf("service: delay of %g seconds out of range", req.Delay)
	}
	var id int
	var rerr error
	snap, err := m.callDeadline(func() {
		r, err := m.db.Prepare(req.SQL)
		if err != nil {
			rerr = fmt.Errorf("prepare: %w", err)
			return
		}
		r.CollectRows = false
		q := m.srv.NewQuery(req.Label, req.SQL, req.Priority, r)
		if req.Delay > 0 {
			m.srv.ScheduleArrival(m.srv.Now()+req.Delay, q)
		} else {
			m.srv.Submit(q)
		}
		id = q.ID
	}, 0)
	if err != nil {
		return QueryView{}, err
	}
	if rerr != nil {
		return QueryView{}, rerr
	}
	view, _ := snap.view(id)
	return view, nil
}

// Exec runs a DDL/DML statement to completion on the owner goroutine —
// loading data is synchronous and unscheduled, unlike SELECT submission.
// DML mutates storage the parallel execute phase reads lock-free, so it
// only runs between ticks; if the owner cannot take the statement within
// Config.ExecDeadline, Exec fails fast with ErrBusy (HTTP 409).
func (m *Manager) Exec(sqlText string) (int, error) {
	var n int
	var rerr error
	_, err := m.callDeadline(func() { n, rerr = m.db.Exec(sqlText) }, m.cfg.ExecDeadline)
	if err != nil {
		return 0, err
	}
	return n, rerr
}

// Progress returns the live view of one query. It is a pure read: the latest
// snapshot is loaded from the atomic pointer and the view is built on the
// caller's goroutine, with zero sends on the owner channel.
func (m *Manager) Progress(id int) (QueryView, error) {
	snap, err := m.read()
	if err != nil {
		return QueryView{}, err
	}
	start := time.Now()
	defer func() { m.metrics.pollDur.Record(time.Since(start)) }()
	view, ok := snap.view(id)
	if !ok {
		return QueryView{}, ErrNotFound
	}
	return view, nil
}

// Overview returns the whole system's live view. Like Progress it is a pure
// snapshot read on the caller's goroutine.
func (m *Manager) Overview() (Overview, error) {
	snap, err := m.read()
	if err != nil {
		return Overview{}, err
	}
	start := time.Now()
	defer func() { m.metrics.pollDur.Record(time.Since(start)) }()
	est := &snap.est
	out := Overview{
		Now:          snap.Sched.Now,
		Epoch:        snap.Epoch,
		RateC:        snap.Sched.RateC,
		MPL:          snap.Sched.MPL,
		Quantum:      snap.Sched.Quantum,
		Workers:      snap.Sched.Workers,
		TimeScale:    snap.TimeScale,
		Fold:         foldView(&snap.Sched),
		Estimator:    snap.Estimator,
		QuiescentETA: Seconds(est.Quiescent),
	}
	// The bundle is in Running ++ Queued order; a scheduled or terminated
	// query has no estimate and makeView asks for none.
	nr := len(snap.Sched.Running)
	for i, info := range snap.Sched.Running {
		out.Running = append(out.Running, makeView(info, est.PerQuery[i]))
	}
	for i, info := range snap.Sched.Queued {
		out.Queued = append(out.Queued, makeView(info, est.PerQuery[nr+i]))
	}
	for _, info := range snap.Sched.Scheduled {
		out.Scheduled = append(out.Scheduled, makeView(info, core.Estimate{}))
	}
	for _, info := range snap.Sched.Done {
		out.Finished = append(out.Finished, makeView(info, core.Estimate{}))
	}
	return out, nil
}

// foldView projects the scheduler snapshot's folding state into the overview.
func foldView(s *sched.Snapshot) FoldView {
	return FoldView{
		Enabled:    s.FoldEnabled,
		Groups:     s.Fold.Groups,
		Members:    s.Fold.Members,
		Attaches:   s.Fold.Attaches,
		PagesSaved: s.Fold.PagesSaved,
		Tables:     s.FoldTables,
	}
}

// Block suspends an admitted query (the §3.1 victim operation).
func (m *Manager) Block(id int) error { return m.op(id, m.srv.Block) }

// Unblock resumes a blocked query.
func (m *Manager) Unblock(id int) error { return m.op(id, m.srv.Unblock) }

// Abort terminates a query wherever it is.
func (m *Manager) Abort(id int) error { return m.op(id, m.srv.Abort) }

// SetPriority changes a query's priority (the §3.1 "natural choice").
func (m *Manager) SetPriority(id, priority int) error {
	return m.op(id, func(id int) error {
		if err := m.srv.SetPriority(id, priority); err != nil {
			return err
		}
		m.events.add(m.srv.Now(), id, EventPriority, fmt.Sprintf("priority=%d", priority))
		return nil
	})
}

// op runs one scheduler control on the owner goroutine: ErrNotFound for an id
// the scheduler does not know, otherwise the control's own answer. The events
// of the status changes it makes are logged by onStatus.
func (m *Manager) op(id int, control func(id int) error) error {
	var rerr error
	err := m.call(func() {
		if _, ok := m.srv.Lookup(id); !ok {
			rerr = ErrNotFound
			return
		}
		rerr = control(id)
	})
	if err != nil {
		return err
	}
	return rerr
}

// Advance synchronously advances virtual time by vsec seconds (in quantum
// steps), independent of the wall-clock ticker, then observes and publishes
// once, as a ticker wake-up does; a client that wants an estimate pass per
// quantum advances one quantum at a time. Deterministic tests and batch
// drivers use it; with TickEvery < 0 it is the only clock source.
func (m *Manager) Advance(vsec float64) error {
	// Non-finite values are rejected explicitly: NaN slips through every
	// ordinary comparison (each negated comparison admits it), and ±Inf would
	// either freeze the loop or accrue unpayable debt.
	if math.IsNaN(vsec) || math.IsInf(vsec, 0) || vsec <= 0 || vsec > 1e9 {
		return fmt.Errorf("service: advance of %g seconds out of range", vsec)
	}
	return m.call(func() { m.advance(vsec) })
}

// Diagram renders the §2.2 stage diagram of the currently admitted queries.
// A pure snapshot read.
func (m *Manager) Diagram(width int) (string, error) {
	snap, err := m.read()
	if err != nil {
		return "", err
	}
	// Non-stage modes annotate each finish with its uncertainty band; stage
	// mode passes nil bands, rendering byte-identically to the classic
	// diagram (the sim traces embed diagrams, so this is load-bearing).
	var bands []core.Interval
	if snap.Estimator != core.EstimatorStage {
		bands = make([]core.Interval, len(snap.Sched.Running))
		for i := range bands {
			e := snap.est.PerQuery[i]
			bands[i] = core.Interval{Low: e.ETALow, High: e.ETAHigh}
		}
	}
	return core.StageDiagramBands(snap.Sched.StatesRunning(), snap.Sched.RateC, width, bands), nil
}

// SpeedUpSingle runs the §3.1 planner: the h best victims to block so that
// the target query speeds up the most. The planners are pure functions of
// the query states, so they run on the caller's goroutine over the latest
// snapshot instead of stalling the scheduler.
func (m *Manager) SpeedUpSingle(targetID, h int) ([]wm.Victim, error) {
	snap, err := m.read()
	if err != nil {
		return nil, err
	}
	return wm.SpeedUpSingle(snap.Sched.StatesRunning(), snap.Sched.RateC, targetID, h)
}

// SpeedUpOthers runs the §3.2 planner: the single victim whose blocking most
// improves everyone else's total response time. A pure snapshot read.
func (m *Manager) SpeedUpOthers() (wm.Victim, error) {
	snap, err := m.read()
	if err != nil {
		return wm.Victim{}, err
	}
	return wm.SpeedUpOthers(snap.Sched.StatesRunning(), snap.Sched.RateC)
}

// PlanMaintenance runs the §3.3 planner: which queries to abort now so the
// rest finish within deadline seconds. exact switches from the greedy
// knapsack to the branch-and-bound optimum (n ≤ 25). A pure snapshot read.
func (m *Manager) PlanMaintenance(deadline float64, mode wm.LostWorkMode, exact bool) (wm.MaintenancePlan, error) {
	// A NaN deadline makes every knapsack comparison false and ±Inf turns the
	// plan degenerate; both must be rejected here, not just at the HTTP layer,
	// because library callers reach this method directly.
	if math.IsNaN(deadline) || math.IsInf(deadline, 0) {
		return wm.MaintenancePlan{}, fmt.Errorf("service: non-finite maintenance deadline %g", deadline)
	}
	snap, err := m.read()
	if err != nil {
		return wm.MaintenancePlan{}, err
	}
	states := snap.Sched.StatesRunning()
	if exact {
		return wm.PlanMaintenanceExact(states, snap.Sched.RateC, deadline, mode)
	}
	return wm.PlanMaintenance(states, snap.Sched.RateC, deadline, mode)
}

// Load is a point-in-time summary of this manager's outstanding work, read
// lock-free from the published snapshot. The cluster router polls it on
// every routing decision, so it deliberately computes no estimates — just
// counts and the total refined remaining cost.
type Load struct {
	Epoch      uint64  // snapshot epoch the figures were read from
	Now        float64 // shard-local virtual clock, seconds
	Admitted   int     // running + blocked queries holding MPL slots
	Queued     int     // admission-queue depth
	Scheduled  int     // future arrivals not yet submitted
	RemainingU float64 // refined remaining cost across admitted/queued/scheduled, in U's
	// FoldTables lists the tables with a live shared-scan group on this
	// shard, sorted. A fold-aware router steers same-table scans here so they
	// join the cursor instead of paying a full scan elsewhere.
	FoldTables []string
}

// Load returns the current routing load signal. It is a pure snapshot read
// (no owner-channel sends) and stays readable after Close, so a router never
// stalls behind a busy or closing shard.
func (m *Manager) Load() Load {
	s := m.snap.Load()
	admitted, queued, remaining := s.Sched.LoadStats()
	return Load{
		Epoch:      s.Epoch,
		Now:        s.Sched.Now,
		Admitted:   admitted,
		Queued:     queued,
		Scheduled:  len(s.Sched.Scheduled),
		RemainingU: remaining,
		FoldTables: s.Sched.FoldTables,
	}
}
