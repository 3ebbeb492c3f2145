package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// outcome is everything one run of one workload observed.
type outcome struct {
	setup []float64 // wall seconds of each set-up

	writes    lat // mutating requests, open-loop ones from their due instant
	polls     lat // GET /queries/{id}
	overviews lat // GET /queries
	lateness  lat // how late the open-loop generator fired

	deep      bool    // live tier: measured at depth, under the wall-clock ticker
	timeScale float64 // virtual seconds per wall second the tier's clock aims at

	wall       float64 // measured phase, wall seconds
	closedOps  int     // schedule ops the closed-loop drivers completed ...
	closedWall float64 // ... in this many wall seconds
	virt       float64 // virtual seconds the clock advanced over the phase
	doneU      float64 // work executed over the phase, U

	completed int // queries finished during the phase

	// ETA quality over all polls of finished queries, in virtual time
	// (manual-clock workloads): mean |predicted - actual finish| over the
	// remaining time, and over the query's total runtime.
	etaErr, etaErrTotal float64
	etaSamples          int
	fingerprint         string // over (id, finish_time, done_u); manual-clock workloads

	attempted, accepted, refused, errored int
	peakInFlight                          int
	failedChecks                          []string

	before, after promText // /metrics around the measured phase
	spans         [][]span // per client, traced runs
	peakRSSMB     float64
}

func (o *outcome) failf(format string, args ...any) {
	o.failedChecks = append(o.failedChecks, fmt.Sprintf(format, args...))
}

// env is the state the phases of one run share.
type env struct {
	st      *stack
	sch     schedule
	sz      sizes
	trace   bool
	gate    gate
	origin  time.Time
	clients []*client
	out     *outcome
}

func (e *env) newClient() *client {
	c := newClient(e.st.h, &e.gate, e.origin, e.trace)
	e.clients = append(e.clients, c)
	return c
}

// runWorkload sets the workload up, measures it and checks what it answered.
// An error means the run could not be carried out at all; wrong answers are
// reported through outcome.failedChecks.
func runWorkload(name string, seed int64, sz sizes, trace bool, workers int) (*outcome, error) {
	t := map[string]tier{"backlog_submit": liveTier, "poll_fanout": liveTier,
		"exec_replay": replayTier, "scan_share": scanTier}[name]
	if sz.Shrunk {
		t = t.shrunk()
	}
	live := t.Tick > 0
	e := &env{sch: buildSchedule(name, seed, sz), sz: sz, trace: trace, origin: time.Now(), out: &outcome{}}
	o := e.out
	o.deep, o.timeScale = live, t.TimeScale

	// Set-up: dataset build, server start, preload. The manual-clock set-up
	// is cheap, so an untraced run repeats it and reports the median; the
	// live preload at depth takes seconds and runs once.
	repeats := 1
	if !live && !trace {
		repeats = sz.SetupRepeats
	}
	var inSystem, terminated []int
	for i := 0; i < repeats; i++ {
		if e.st != nil {
			e.st.close()
			e.clients = nil // the discarded server's requests are not this run's
			runtime.GC()    // nor is its heap the next set-up's
		}
		t0 := time.Now()
		st, err := startStack(t, workers)
		if err != nil {
			return nil, err
		}
		e.st = st
		c := e.newClient()
		c.trace = false // spans cover the measured phase only
		if terminated, err = history(c, e.sch.History); err == nil {
			inSystem, err = preload(c, e.sch.Preload)
		}
		if err != nil {
			st.close()
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	defer e.st.close()

	probe := e.newClient()
	o.before = parseProm(probe.metricsText())
	switch name {
	case "backlog_submit":
		e.backlogSubmit(inSystem)
	case "poll_fanout":
		e.pollFanout(inSystem, terminated)
	default:
		e.replay()
	}
	o.after = parseProm(probe.metricsText())
	if live {
		o.completed = int(o.delta("mqpi_queries_finished_total"))
	}

	for _, c := range e.clients {
		o.attempted += c.attempted
		o.accepted += c.accepted
		o.refused += c.refused
		o.errored += c.errored
		if trace {
			o.spans = append(o.spans, c.spans)
		}
	}
	o.peakInFlight = int(e.gate.peak.Load())
	e.check()
	o.peakRSSMB = peakRSSMB()
	return o, nil
}

// check runs the output checks every workload shares.
func (e *env) check() {
	o := e.out
	if o.attempted != o.accepted+o.refused+o.errored {
		o.failf("accounting: scheduled %d != accepted %d + refused %d + errored %d",
			o.attempted, o.accepted, o.refused, o.errored)
	}
	if o.refused+o.errored > 0 {
		o.failf("%d requests refused, %d answered wrongly; seed code fails none", o.refused, o.errored)
	}
	if o.peakInFlight > maxInFlight {
		o.failf("%d requests in flight, the limit is %d", o.peakInFlight, maxInFlight)
	}
	// The server's own counters must agree with what the drivers saw.
	submits, aborts := 0, 0
	for _, c := range e.clients {
		submits += c.submits
		aborts += c.aborts
	}
	if got := int(o.after["mqpi_queries_submitted_total"]); got != submits {
		o.failf("server counted %d submitted queries, drivers had %d accepted", got, submits)
	}
	if got := int(o.after["mqpi_queries_aborted_total"]); got != aborts {
		o.failf("server counted %d aborted queries, drivers had %d accepted", got, aborts)
	}
	if got := int(o.after["mqpi_queries_failed_total"]); got != 0 {
		o.failf("%d queries failed in the engine", got)
	}
}

// promText is a parsed /metrics page: sample name (with labels) to value.
type promText map[string]float64

func parseProm(text string) promText {
	p := promText{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			p[line[:i]] = v
		}
	}
	return p
}

// delta is the growth of one counter across the measured phase.
func (o *outcome) delta(name string) float64 { return o.after[name] - o.before[name] }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(rest, &kb) // "  92160 kB": the number comes first
			return kb / 1024
		}
	}
	return 0
}
