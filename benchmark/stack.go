package main

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"mqpi/internal/core"
	"mqpi/internal/sched"
	"mqpi/internal/service"
	"mqpi/internal/workload"
)

// tier is one server configuration: the data it holds and how its scheduler
// and clock are set. The benchmark configures the program only through the
// public Config structs; it adds no flag, variable or hook of its own.
type tier struct {
	Rows      int     // lineitem rows
	Parts     [3]int  // N_1..N_3: part_i holds 10*N_i rows
	RateC     float64 // U per virtual second
	MPL       int
	Quantum   float64       // virtual seconds per tick
	TimeScale float64       // virtual seconds per wall second (live clock)
	Tick      time.Duration // wall interval of the live ticker; negative = manual clock
	Fold      bool
}

// dataSeed fixes the relations' contents: --seed varies the traffic, not the
// database, so per-query costs mean the same thing at every seed.
const dataSeed = 1

var (
	// liveTier is mqpi-load's default tier.
	liveTier = tier{Rows: 15000, Parts: [3]int{50, 10, 20}, RateC: 200, MPL: 64,
		Quantum: 0.25, TimeScale: 400, Tick: 2 * time.Millisecond}
	// replayTier is the paper-scale data (part tables x8) behind a manual
	// clock: virtual time moves only through POST /advance, so a run repeats
	// exactly.
	replayTier = tier{Rows: 120000, Parts: [3]int{400, 80, 160}, RateC: 2000, MPL: 8,
		Quantum: 0.25, TimeScale: 1, Tick: -1}
	scanTier = tier{Rows: 120000, Parts: [3]int{400, 80, 160}, RateC: 2000, MPL: 16,
		Quantum: 0.25, TimeScale: 1, Tick: -1, Fold: true}
)

// shrunk is the tier at smoke size: a quarter of the replay data.
func (t tier) shrunk() tier {
	if t.Rows > 30000 {
		t.Rows = 30000
		for i := range t.Parts {
			t.Parts[i] /= 4
		}
	}
	return t
}

// dataset builds the tier's relations from scratch. A private cache per call
// keeps one set-up from hydrating the previous one's snapshot, so repeated
// set-ups in one process cost the same.
func (t tier) dataset() (*workload.Dataset, error) {
	ds, err := workload.NewDatasetCache().Hydrate(workload.DataConfig{LineitemRows: t.Rows, Seed: dataSeed})
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	for i, n := range t.Parts {
		if err := ds.CreatePartTable(i+1, n); err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
	}
	return ds, nil
}

func (t tier) schedConfig(workers int) sched.Config {
	return sched.Config{RateC: t.RateC, MPL: t.MPL, Quantum: t.Quantum, Workers: workers, Fold: t.Fold}
}

func (t tier) serviceConfig(workers int) service.Config {
	return service.Config{Sched: t.schedConfig(workers), TickEvery: t.Tick, TimeScale: t.TimeScale,
		Estimator: core.EstimatorStage}
}

// stack is a running server: the dataset, the manager over it and the HTTP
// handler in front.
type stack struct {
	tier tier
	ds   *workload.Dataset
	m    *service.Manager
	h    http.Handler
}

func startStack(t tier, workers int) (*stack, error) {
	ds, err := t.dataset()
	if err != nil {
		return nil, err
	}
	m := service.New(ds.DB, t.serviceConfig(workers))
	return &stack{tier: t, ds: ds, m: m, h: service.NewHandler(m)}, nil
}

func (s *stack) close() { s.m.Close() }

// sizes holds every count of a run. They are fixed by --seconds before the
// run starts and never by how fast the program turns out to be: the scheduler
// keeps every terminated query, so per-operation cost depends on history, and
// a run that stopped on a wall-clock deadline would hand the faster side of a
// comparison more history to carry.
type sizes struct {
	Depth   int // queries in the system when measuring starts (live workloads)
	History int // terminated queries before that (poll_fanout)

	OpenSubmits, ClosedSubmits int // backlog_submit phases 1 and 2
	Polls                      int // poll_fanout driver 1
	Writes                     int // poll_fanout driver 2: schedule length (it stops with driver 1)
	ReplayQueries, ScanQueries int

	SetupRepeats int // manual-clock workloads set up this often and report the median

	WalkDepth, WalkHistory int // layer walk
	Shrunk                 bool
}

// Rates that turn --seconds into counts. Each is what seed code sustains on
// the committing 2-core host, so that a run measures for about --seconds
// there; a faster program finishes the same counts sooner.
const (
	closedSubmitHz = 90.0  // backlog_submit phase 2, both drivers together
	fanoutPollHz   = 42000 // poll_fanout driver 1
	replayQueryHz  = 25.0  // exec_replay queries per wall second
	scanQueryHz    = 64.0  // scan_share queries per wall second
)

func sizesFor(seconds float64, smoke bool) sizes {
	if smoke {
		return sizes{Depth: 100, History: 100, OpenSubmits: 12, ClosedSubmits: 12,
			Polls: 6000, Writes: 200, ReplayQueries: 24, ScanQueries: 32,
			SetupRepeats: 1, WalkDepth: 100, WalkHistory: 100, Shrunk: true}
	}
	n := func(perSecond float64) int { return int(math.Round(perSecond * seconds)) }
	return sizes{
		Depth: 1000, History: 2000,
		// Two thirds of the run at the fixed open-loop rate, the last third
		// flat out.
		OpenSubmits:   n(openSubmitRate * 2 / 3),
		ClosedSubmits: n(closedSubmitHz / 3),
		Polls:         n(fanoutPollHz),
		Writes:        n(fanoutWriteHz * 4),
		ReplayQueries: n(replayQueryHz),
		ScanQueries:   n(scanQueryHz),
		SetupRepeats:  3,
		WalkDepth:     1000, WalkHistory: 2000,
	}
}

// preload submits ops through c, one after the other, and returns the ids the
// server gave them.
func preload(c *client, ops []queryOp) ([]int, error) {
	ids := make([]int, len(ops))
	for i, op := range ops {
		v, _, ok := c.submit(op.SQL(), "pre", time.Time{})
		if !ok {
			return nil, fmt.Errorf("preload %d refused", i)
		}
		ids[i] = v.ID
	}
	return ids, nil
}

// history leaves one terminated query per op: each is submitted and aborted
// before the next, so depth never exceeds one while the history builds.
func history(c *client, ops []queryOp) ([]int, error) {
	ids := make([]int, len(ops))
	for i, op := range ops {
		v, _, ok := c.submit(op.SQL(), "hist", time.Time{})
		if !ok {
			return nil, fmt.Errorf("history %d refused", i)
		}
		if _, ok := c.abort(v.ID, time.Time{}); !ok {
			return nil, fmt.Errorf("history %d: abort refused", i)
		}
		ids[i] = v.ID
	}
	return ids, nil
}
