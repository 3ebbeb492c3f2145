package service

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mqpi/internal/core"
	"mqpi/internal/metrics"
	"mqpi/internal/sched"
)

// Metrics is the service's observability registry, rendered in the Prometheus
// text exposition format by Text. Every line but a few is read off one
// published Snapshot: its scheduler state gives the depth, fold and worker
// gauges, its counts the lifecycle and owner counters, its epoch and
// publication time the snapshot gauges — so a scrape shows one epoch and never
// waits for the owner. What changes without a publish is kept here, lock-free:
// the histograms, the clock debt every wake-up leaves, the Exec calls refused
// before the owner took them, and the static build labels.
type Metrics struct {
	snap *atomic.Pointer[Snapshot] // the Manager's published state; nil when unwired

	execBusy  atomic.Uint64 // Exec calls bounced with ErrBusy (deadline exceeded)
	clockDebt atomic.Uint64 // float64 bits: virtual seconds still owed after the last ticker wake-up
	buildInfo atomic.Pointer[map[string]string]

	tickDur  metrics.Histogram // wall seconds per scheduler tick
	execDur  metrics.Histogram // wall seconds in the tick's execute phase
	revision metrics.Histogram // |Δ predicted finish| per estimate pass, virtual seconds
	estimate metrics.Histogram // wall seconds per estimate pass (input assembly + estimator)
	pollDur  metrics.Histogram // wall seconds per progress/overview poll
	// wakeupTicks counts the scheduler ticks each ticker wake-up ran, one
	// tick recorded as one of the histogram's seconds: the le edges read as
	// tick counts (le="1.073741824" is "at most one tick", every edge below
	// it "none") and _sum is the ticks run by the ticker.
	wakeupTicks metrics.Histogram
}

// counts are the lifetime totals the owner goroutine keeps. Only the owner
// touches them; each publish copies them into the Snapshot, so they are read
// together with the state they describe.
type counts struct {
	submitted uint64
	finished  uint64
	failed    uint64
	aborted   uint64
	blocked   uint64
	unblocked uint64

	ownerRequests    uint64 // operations the owner goroutine ran
	advanceBackstops uint64 // advances truncated by MaxTicksPerAdvance (debt carried)
	tickRounds       uint64 // allocate→execute→settle rounds across ticks

	// The calibration accumulator's lifetime band coverage, stored as its
	// absolute totals: finishes whose true time fell inside the reported band,
	// and finishes with a reported band.
	bandWithin   uint64
	bandFinishes uint64
}

// observeWakeup records one ticker wake-up: the ticks it ran and the virtual
// time it left owed (less than a quantum unless the backstop cut it short).
func (m *Metrics) observeWakeup(ticks int, debt float64) {
	m.wakeupTicks.RecordSeconds(float64(ticks))
	m.clockDebt.Store(math.Float64bits(debt))
}

// SetBuildInfo installs the static labels rendered on the mqpi_build_info
// gauge (version, go runtime, ...), identifying the binary from /metrics
// alone. Call once at startup, before the first scrape.
func (m *Metrics) SetBuildInfo(labels map[string]string) { m.buildInfo.Store(&labels) }

func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeScalar(b *strings.Builder, name, typ, help string, v float64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, typ, name, fmtFloat(v))
}

// WriteBuildInfo renders the mqpi_build_info gauge — constant 1, the sorted
// labels identify the binary — or nothing while labels is nil. The front
// door's metrics page carries the same gauge.
func WriteBuildInfo(b *strings.Builder, labels map[string]string) {
	if labels == nil {
		return
	}
	fmt.Fprintf(b, "# HELP mqpi_build_info Build metadata; the gauge is constant 1 and the labels identify the binary.\n# TYPE mqpi_build_info gauge\n")
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("mqpi_build_info{")
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%s=%q", k, labels[k])
	}
	b.WriteString("} 1\n")
}

// Text renders the metrics in the Prometheus text exposition format
// (version 0.0.4), ready to be scraped from /metrics. An unwired registry
// renders an empty stage-mode state and no snapshot gauges.
func (m *Metrics) Text() string {
	s := &Snapshot{Estimator: core.EstimatorStage}
	if m.snap != nil {
		s = m.snap.Load()
	}
	c := &s.counts
	blocked := 0
	for i := range s.Sched.Running {
		if s.Sched.Running[i].Status == sched.StatusBlocked {
			blocked++
		}
	}
	fold := &s.Sched.Fold
	var b strings.Builder
	writeScalar(&b, "mqpi_queries_submitted_total", "counter", "Queries accepted for execution (immediate or scheduled).", float64(c.submitted))
	writeScalar(&b, "mqpi_queries_finished_total", "counter", "Queries that completed successfully.", float64(c.finished))
	writeScalar(&b, "mqpi_queries_failed_total", "counter", "Queries terminated by an execution error.", float64(c.failed))
	writeScalar(&b, "mqpi_queries_aborted_total", "counter", "Queries killed by a client or a planner.", float64(c.aborted))
	writeScalar(&b, "mqpi_queries_blocked_total", "counter", "Block operations applied.", float64(c.blocked))
	writeScalar(&b, "mqpi_queries_unblocked_total", "counter", "Unblock operations applied.", float64(c.unblocked))
	writeScalar(&b, "mqpi_queries_running", "gauge", "Admitted queries currently receiving capacity.", float64(len(s.Sched.Running)-blocked))
	writeScalar(&b, "mqpi_queries_blocked", "gauge", "Admitted queries currently blocked.", float64(blocked))
	writeScalar(&b, "mqpi_queries_queued", "gauge", "Admission-queue depth.", float64(len(s.Sched.Queued)))
	writeScalar(&b, "mqpi_queries_scheduled", "gauge", "Future arrivals not yet submitted.", float64(len(s.Sched.Scheduled)))
	writeScalar(&b, "mqpi_owner_requests_total", "counter", "Operations marshalled onto the owner goroutine (mutations only; reads bypass it).", float64(c.ownerRequests))
	writeScalar(&b, "mqpi_poll_estimate_cache_hits_total", "counter", "Polls that read their estimates from the published snapshot: every poll, since the owner publishes them with it.", float64(m.pollDur.Count()))
	writeScalar(&b, "mqpi_poll_estimate_cache_misses_total", "counter", "Polls that computed estimates themselves: always 0, no poll runs an estimator.", 0)
	writeScalar(&b, "mqpi_exec_workers", "gauge", "Execute-phase worker count (1 = inline serial stepping).", float64(s.Sched.Workers))
	writeScalar(&b, "mqpi_exec_deadline_busy_total", "counter", "Exec statements rejected with 409 because the owner was busy past the deadline.", float64(m.execBusy.Load()))
	writeScalar(&b, "mqpi_tick_rounds_total", "counter", "Allocate/execute/settle rounds across all ticks (redistribution re-runs included).", float64(c.tickRounds))
	writeScalar(&b, "mqpi_fold_attach_total", "counter", "Queries attached to a shared scan cursor.", float64(fold.Attaches))
	writeScalar(&b, "mqpi_fold_pages_saved_total", "counter", "Page reads avoided because a fold member rode a page another member fetched.", float64(fold.PagesSaved))
	writeScalar(&b, "mqpi_fold_groups", "gauge", "Live shared-scan groups.", float64(fold.Groups))
	writeScalar(&b, "mqpi_fold_members", "gauge", "Queries currently riding a shared cursor.", float64(fold.Members))
	writeScalar(&b, "mqpi_advance_backstop_total", "counter", "Advances truncated by MaxTicksPerAdvance; the residual virtual-time debt is carried into later advances.", float64(c.advanceBackstops))
	writeScalar(&b, "mqpi_clock_debt_seconds", "gauge", "Virtual seconds the clock still owed after the last ticker wake-up: under one quantum when it keeps the wall rate, growing when it falls behind.", math.Float64frombits(m.clockDebt.Load()))
	// Stage mode reports degenerate bands, so it exposes no band counters.
	if s.Estimator != core.EstimatorStage {
		writeScalar(&b, "mqpi_eta_band_finishes_total", "counter", "Query finishes for which an uncertainty band had been reported.", float64(c.bandFinishes))
		writeScalar(&b, "mqpi_eta_band_within_total", "counter", "Query finishes whose true finish time fell inside the reported band.", float64(c.bandWithin))
	}
	if labels := m.buildInfo.Load(); labels != nil {
		WriteBuildInfo(&b, *labels)
	}
	if s.Epoch > 0 {
		writeScalar(&b, "mqpi_snapshot_epoch", "gauge", "Epoch of the published read-path snapshot: one per state change (a request, or a ticker wake-up that ran a tick).", float64(s.Epoch))
		writeScalar(&b, "mqpi_snapshot_age_seconds", "gauge", "Wall-clock age of the published read-path snapshot; it grows while the server is idle, since an unchanged state is not republished.", time.Since(s.Published).Seconds())
	}
	m.tickDur.WritePrometheus(&b, "mqpi_tick_duration_seconds", "Wall-clock duration of one scheduler tick.")
	m.execDur.WritePrometheus(&b, "mqpi_execute_phase_seconds", "Wall-clock duration of the parallel execute phase within one tick.")
	m.estimate.WritePrometheus(&b, "mqpi_estimate_pass_seconds", "Wall-clock duration of one estimate pass on the owner goroutine: one per request and one per ticker wake-up (per tick on a manual advance), over every admitted and queued query.")
	m.revision.WritePrometheus(&b, "mqpi_estimate_revision_seconds", "Change of a query's predicted finish time between two consecutive estimate passes (one per ticker wake-up, one per tick of a manual advance), in virtual seconds.")
	m.wakeupTicks.WritePrometheus(&b, "mqpi_wakeup_ticks", "Scheduler ticks run per ticker wake-up (one tick counts 1; 0 = nothing was owed or the server was idle).")
	m.pollDur.WritePrometheus(&b, "mqpi_poll_duration_seconds", "Wall-clock latency of one progress or overview poll on the lock-free read path.")
	return b.String()
}
