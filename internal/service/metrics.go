package service

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mqpi/internal/core"
	"mqpi/internal/metrics"
	"mqpi/internal/sched"
)

// Metrics is the service's observability state, rendered in the Prometheus
// text exposition format by Text. All methods are safe for concurrent use;
// the histograms are lock-free, so a poll records its latency without
// touching mu.
type Metrics struct {
	mu sync.Mutex

	submitted uint64
	finished  uint64
	failed    uint64
	aborted   uint64
	blocked   uint64
	unblocked uint64

	ownerRequests uint64 // operations marshalled onto the owner goroutine
	execBusy      uint64 // Exec calls bounced with ErrBusy (deadline exceeded)

	advanceBackstops uint64  // advances truncated by MaxTicksPerAdvance (debt carried)
	clockDebt        float64 // virtual seconds still owed after the last ticker wake-up

	tickRounds uint64 // cumulative allocate→execute→settle rounds across ticks
	workers    int    // configured execute-phase worker count

	foldAttaches   uint64 // lifetime shared-scan attachments (monotonic)
	foldPagesSaved uint64 // lifetime page reads avoided by folding (monotonic)
	foldGroups     int    // live fold groups
	foldMembers    int    // live attached members

	estimatorMode    string             // non-stage estimate-plane mode ("" = stage, no ensemble)
	estimatorWeights map[string]float64 // last published blend weights by member
	bandWithin       uint64             // finishes whose true time fell inside the reported band
	bandFinishes     uint64             // finishes with a reported band

	buildInfo map[string]string // static build labels for mqpi_build_info ("" = unset)

	runningDepth   int
	blockedDepth   int
	queuedDepth    int
	scheduledDepth int

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

	// snapshotInfo, when wired by the Manager, reports the published
	// read-path snapshot's epoch and wall-clock age in seconds. It must not
	// block (the Manager wires an atomic load) — Text calls it under mu.
	snapshotInfo func() (epoch uint64, ageSeconds float64)
}

func (m *Metrics) incSubmitted() { m.mu.Lock(); m.submitted++; m.mu.Unlock() }
func (m *Metrics) incFinished()  { m.mu.Lock(); m.finished++; m.mu.Unlock() }
func (m *Metrics) incFailed()    { m.mu.Lock(); m.failed++; m.mu.Unlock() }
func (m *Metrics) incAborted()   { m.mu.Lock(); m.aborted++; m.mu.Unlock() }
func (m *Metrics) incBlocked()   { m.mu.Lock(); m.blocked++; m.mu.Unlock() }
func (m *Metrics) incUnblocked() { m.mu.Lock(); m.unblocked++; m.mu.Unlock() }

func (m *Metrics) incOwnerRequest() { m.mu.Lock(); m.ownerRequests++; m.mu.Unlock() }
func (m *Metrics) incExecBusy()     { m.mu.Lock(); m.execBusy++; m.mu.Unlock() }

func (m *Metrics) incAdvanceBackstop() { m.mu.Lock(); m.advanceBackstops++; m.mu.Unlock() }

// observeWakeup records one ticker wake-up: the ticks it ran and the virtual
// time it left owed (less than a quantum unless the backstop cut it short).
func (m *Metrics) observeWakeup(ticks int, debt float64) {
	m.wakeupTicks.RecordSeconds(float64(ticks))
	m.mu.Lock()
	m.clockDebt = debt
	m.mu.Unlock()
}

// advanceBackstopCount reports how many advances hit the tick backstop; the
// regression test for the debt-carry fix reads it directly.
func (m *Metrics) advanceBackstopCount() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.advanceBackstops
}

func (m *Metrics) setWorkers(n int) { m.mu.Lock(); m.workers = n; m.mu.Unlock() }

// setEstimator records the non-stage estimate-plane mode; the ensemble
// weight gauges and band-coverage counters are exposed only once this is set
// (stage mode runs no ensemble, and its exposition stays byte-stable).
func (m *Metrics) setEstimator(mode string) {
	m.mu.Lock()
	m.estimatorMode = mode
	m.mu.Unlock()
}

// setEstimatorStats installs the latest ensemble blend weights and the
// lifetime band-coverage counters. The counter inputs are absolute totals
// maintained by the calibration accumulator, so the exposed counters stay
// Prometheus-monotonic.
func (m *Metrics) setEstimatorStats(weights map[string]float64, within, finishes uint64) {
	m.mu.Lock()
	m.estimatorWeights = weights
	m.bandWithin, m.bandFinishes = within, finishes
	m.mu.Unlock()
}

// SetBuildInfo installs the static labels rendered on the mqpi_build_info
// gauge (version, go runtime, ...), identifying the binary from /metrics
// alone. Call once at startup, before the first scrape.
func (m *Metrics) SetBuildInfo(labels map[string]string) {
	m.mu.Lock()
	m.buildInfo = labels
	m.mu.Unlock()
}

// setState installs the gauges of one captured scheduler state: the depths
// and the folding summary. The fold counters are lifetime totals maintained by
// the fold registry (monotonic across SetFold toggles), so storing absolute
// values keeps the exposed counters Prometheus-correct.
func (m *Metrics) setState(s *sched.Snapshot) {
	blocked := 0
	for i := range s.Running {
		if s.Running[i].Status == sched.StatusBlocked {
			blocked++
		}
	}
	m.mu.Lock()
	m.runningDepth, m.blockedDepth = len(s.Running)-blocked, blocked
	m.queuedDepth, m.scheduledDepth = len(s.Queued), len(s.Scheduled)
	m.foldAttaches, m.foldPagesSaved = s.Fold.Attaches, s.Fold.PagesSaved
	m.foldGroups, m.foldMembers = s.Fold.Groups, s.Fold.Members
	m.mu.Unlock()
}

// observeExecutePhase records one tick's execute-phase wall time and how many
// allocate→execute→settle rounds the tick needed (>1 means the
// work-conserving redistribution loop re-ran).
func (m *Metrics) observeExecutePhase(seconds float64, rounds int) {
	m.execDur.RecordSeconds(seconds)
	m.mu.Lock()
	m.tickRounds += uint64(rounds)
	m.mu.Unlock()
}

// readStats returns the read-path counters: requests the owner goroutine took
// and polls served. Tests use it to pin that reads bypass the owner.
func (m *Metrics) readStats() (ownerRequests, polls uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ownerRequests, m.pollDur.Count()
}

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
// (version 0.0.4), ready to be scraped from /metrics.
func (m *Metrics) Text() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	writeScalar(&b, "mqpi_queries_submitted_total", "counter", "Queries accepted for execution (immediate or scheduled).", float64(m.submitted))
	writeScalar(&b, "mqpi_queries_finished_total", "counter", "Queries that completed successfully.", float64(m.finished))
	writeScalar(&b, "mqpi_queries_failed_total", "counter", "Queries terminated by an execution error.", float64(m.failed))
	writeScalar(&b, "mqpi_queries_aborted_total", "counter", "Queries killed by a client or a planner.", float64(m.aborted))
	writeScalar(&b, "mqpi_queries_blocked_total", "counter", "Block operations applied.", float64(m.blocked))
	writeScalar(&b, "mqpi_queries_unblocked_total", "counter", "Unblock operations applied.", float64(m.unblocked))
	writeScalar(&b, "mqpi_queries_running", "gauge", "Admitted queries currently receiving capacity.", float64(m.runningDepth))
	writeScalar(&b, "mqpi_queries_blocked", "gauge", "Admitted queries currently blocked.", float64(m.blockedDepth))
	writeScalar(&b, "mqpi_queries_queued", "gauge", "Admission-queue depth.", float64(m.queuedDepth))
	writeScalar(&b, "mqpi_queries_scheduled", "gauge", "Future arrivals not yet submitted.", float64(m.scheduledDepth))
	writeScalar(&b, "mqpi_owner_requests_total", "counter", "Operations marshalled onto the owner goroutine (mutations only; reads bypass it).", float64(m.ownerRequests))
	writeScalar(&b, "mqpi_poll_estimate_cache_hits_total", "counter", "Polls that read their estimates from the published snapshot: every poll, since the owner publishes them with it.", float64(m.pollDur.Count()))
	writeScalar(&b, "mqpi_poll_estimate_cache_misses_total", "counter", "Polls that computed estimates themselves: always 0, no poll runs an estimator.", 0)
	writeScalar(&b, "mqpi_exec_workers", "gauge", "Execute-phase worker count (1 = inline serial stepping).", float64(m.workers))
	writeScalar(&b, "mqpi_exec_deadline_busy_total", "counter", "Exec statements rejected with 409 because the owner was busy past the deadline.", float64(m.execBusy))
	writeScalar(&b, "mqpi_tick_rounds_total", "counter", "Allocate/execute/settle rounds across all ticks (redistribution re-runs included).", float64(m.tickRounds))
	writeScalar(&b, "mqpi_fold_attach_total", "counter", "Queries attached to a shared scan cursor.", float64(m.foldAttaches))
	writeScalar(&b, "mqpi_fold_pages_saved_total", "counter", "Page reads avoided because a fold member rode a page another member fetched.", float64(m.foldPagesSaved))
	writeScalar(&b, "mqpi_fold_groups", "gauge", "Live shared-scan groups.", float64(m.foldGroups))
	writeScalar(&b, "mqpi_fold_members", "gauge", "Queries currently riding a shared cursor.", float64(m.foldMembers))
	writeScalar(&b, "mqpi_advance_backstop_total", "counter", "Advances truncated by MaxTicksPerAdvance; the residual virtual-time debt is carried into later advances.", float64(m.advanceBackstops))
	writeScalar(&b, "mqpi_clock_debt_seconds", "gauge", "Virtual seconds the clock still owed after the last ticker wake-up: under one quantum when it keeps the wall rate, growing when it falls behind.", m.clockDebt)
	if m.estimatorMode != "" {
		fmt.Fprintf(&b, "# HELP mqpi_estimator_weight Current ensemble blend weight per estimator member.\n# TYPE mqpi_estimator_weight gauge\n")
		for _, member := range core.MemberNames {
			if w, ok := m.estimatorWeights[member]; ok {
				fmt.Fprintf(&b, "mqpi_estimator_weight{member=%q} %s\n", member, fmtFloat(w))
			}
		}
		writeScalar(&b, "mqpi_eta_band_finishes_total", "counter", "Query finishes for which an uncertainty band had been reported.", float64(m.bandFinishes))
		writeScalar(&b, "mqpi_eta_band_within_total", "counter", "Query finishes whose true finish time fell inside the reported band.", float64(m.bandWithin))
	}
	WriteBuildInfo(&b, m.buildInfo)
	if m.snapshotInfo != nil {
		epoch, age := m.snapshotInfo()
		writeScalar(&b, "mqpi_snapshot_epoch", "gauge", "Epoch of the published read-path snapshot: one per state change (a request, or a ticker wake-up that ran a tick).", float64(epoch))
		writeScalar(&b, "mqpi_snapshot_age_seconds", "gauge", "Wall-clock age of the published read-path snapshot; it grows while the server is idle, since an unchanged state is not republished.", age)
	}
	m.tickDur.WritePrometheus(&b, "mqpi_tick_duration_seconds", "Wall-clock duration of one scheduler tick.")
	m.execDur.WritePrometheus(&b, "mqpi_execute_phase_seconds", "Wall-clock duration of the parallel execute phase within one tick.")
	m.estimate.WritePrometheus(&b, "mqpi_estimate_pass_seconds", "Wall-clock duration of one estimate pass on the owner goroutine: one per request and one per ticker wake-up (per tick on a manual advance), over every admitted and queued query.")
	m.revision.WritePrometheus(&b, "mqpi_estimate_revision_seconds", "Change of a query's predicted finish time between two consecutive estimate passes (one per ticker wake-up, one per tick of a manual advance), in virtual seconds.")
	m.wakeupTicks.WritePrometheus(&b, "mqpi_wakeup_ticks", "Scheduler ticks run per ticker wake-up (one tick counts 1; 0 = nothing was owed or the server was idle).")
	m.pollDur.WritePrometheus(&b, "mqpi_poll_duration_seconds", "Wall-clock latency of one progress or overview poll on the lock-free read path.")
	return b.String()
}
