package service

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mqpi/internal/core"
	"mqpi/internal/engine"
	"mqpi/internal/sched"
)

// TestReadPathMetricsExposition: the read-path counters, snapshot gauges,
// and poll-latency histogram render in the Prometheus text format with
// monotone cumulative buckets ending at +Inf. The two estimate-cache counters
// keep their names: hits counts every poll, misses stays 0. Every line but
// the histograms and the caller-side counters is read off the one snapshot
// the registry is wired to.
func TestReadPathMetricsExposition(t *testing.T) {
	var published atomic.Pointer[Snapshot]
	published.Store(&Snapshot{
		Epoch:     7,
		Published: time.Now().Add(-125 * time.Millisecond),
		Estimator: core.EstimatorStage,
		Sched: sched.Snapshot{
			Running: []sched.QueryInfo{{Status: sched.StatusRunning}, {Status: sched.StatusBlocked}, {Status: sched.StatusRunning}},
			Queued:  []sched.QueryInfo{{Status: sched.StatusQueued}},
			Workers: 3,
		},
		counts: counts{submitted: 5, finished: 1, ownerRequests: 1},
	})
	m := &Metrics{snap: &published}
	m.pollDur.RecordSeconds(2e-5)       // lands in a finite bucket
	m.pollDur.RecordSeconds(1e6)        // lands only in +Inf
	m.pollDur.RecordSeconds(math.NaN()) // dropped

	text := m.Text()
	assertPrometheusText(t, text)
	for _, want := range []string{
		"mqpi_queries_submitted_total 5",
		"mqpi_queries_finished_total 1",
		"mqpi_queries_running 2",
		"mqpi_queries_blocked 1",
		"mqpi_queries_queued 1",
		"mqpi_queries_scheduled 0",
		"mqpi_exec_workers 3",
		"mqpi_owner_requests_total 1",
		"mqpi_poll_estimate_cache_hits_total 2",
		"mqpi_poll_estimate_cache_misses_total 0",
		"mqpi_snapshot_epoch 7",
		`mqpi_poll_duration_seconds_bucket{le="+Inf"} 2`,
		"mqpi_poll_duration_seconds_count 2",
		"mqpi_poll_duration_seconds_sum 1.00000000002e+06",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	// The age is measured at the scrape, so it is at least the 125 ms the
	// snapshot was backdated by.
	if age := samples(text)["mqpi_snapshot_age_seconds"]; age < 0.125 {
		t.Errorf("snapshot age = %g, want >= 0.125", age)
	}
	// The overflow observation must not leak into the last finite bucket.
	if !strings.Contains(text, `mqpi_poll_duration_seconds_bucket{le="274.877906944"} 1`+"\n") {
		t.Errorf("finite buckets should hold exactly 1 observation:\n%s", text)
	}
}

// TestBuildInfoExposition: SetBuildInfo renders a constant-1 mqpi_build_info
// gauge with deterministically ordered (sorted) labels; before the call the
// gauge is absent rather than rendered with an empty label set.
func TestBuildInfoExposition(t *testing.T) {
	m := new(Metrics)
	if strings.Contains(m.Text(), "mqpi_build_info") {
		t.Errorf("build info rendered before SetBuildInfo:\n%s", m.Text())
	}
	m.SetBuildInfo(map[string]string{"version": "dev", "go": "go1.x"})
	text := m.Text()
	assertPrometheusText(t, text)
	want := `mqpi_build_info{go="go1.x",version="dev"} 1` + "\n"
	if !strings.Contains(text, want) {
		t.Errorf("metrics missing %q:\n%s", want, text)
	}
}

// TestMetricsSnapshotGaugesUnwired: a Metrics without a Manager omits the
// snapshot gauges instead of rendering garbage.
func TestMetricsSnapshotGaugesUnwired(t *testing.T) {
	m := new(Metrics)
	text := m.Text()
	assertPrometheusText(t, text)
	if strings.Contains(text, "mqpi_snapshot_epoch") || strings.Contains(text, "mqpi_snapshot_age_seconds") {
		t.Errorf("unwired metrics render snapshot gauges:\n%s", text)
	}
}

// TestManagerWiresReadPathMetrics: a real manager exports the snapshot
// gauges and counts polls end to end through the scrape surface.
func TestManagerWiresReadPathMetrics(t *testing.T) {
	db := engine.Open()
	loadTable(t, db, "t1", 10)
	m := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5})
	v, err := m.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM t1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Progress(v.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Overview(); err != nil {
		t.Fatal(err)
	}
	text := m.Metrics().Text()
	assertPrometheusText(t, text)
	for _, want := range []string{
		"mqpi_poll_estimate_cache_hits_total 2", // both polls read the published bundle
		"mqpi_poll_estimate_cache_misses_total 0",
		"mqpi_owner_requests_total 2", // submit + advance; the polls add nothing
		"mqpi_poll_duration_seconds_count 2",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	// Epoch gauge reflects the published snapshot (1 from New + 2 mutations).
	if !strings.Contains(text, "mqpi_snapshot_epoch 3\n") {
		t.Errorf("snapshot epoch gauge wrong:\n%s", text)
	}
	if !strings.Contains(text, "mqpi_snapshot_age_seconds ") {
		t.Errorf("snapshot age gauge missing:\n%s", text)
	}
}

// TestWakeupMetricsExposition: the clock-debt gauge shows the last wake-up's
// residue and the wake-up histogram counts ticks — a tick is one unit, so the
// edge just above 1 holds the wake-ups that ran at most one tick and every
// edge below it the ones that ran none.
func TestWakeupMetricsExposition(t *testing.T) {
	m := new(Metrics)
	m.observeWakeup(0, 0.1)
	m.observeWakeup(1, 0.2)
	m.observeWakeup(3, 0.05)
	m.observeWakeup(400, 12.5) // past the last finite edge: +Inf only

	text := m.Text()
	assertPrometheusText(t, text)
	for _, want := range []string{
		"# TYPE mqpi_clock_debt_seconds gauge",
		"mqpi_clock_debt_seconds 12.5",
		"# TYPE mqpi_wakeup_ticks histogram",
		`mqpi_wakeup_ticks_bucket{le="0.536870912"} 1`,
		`mqpi_wakeup_ticks_bucket{le="1.073741824"} 2`,
		`mqpi_wakeup_ticks_bucket{le="2.147483648"} 2`,
		`mqpi_wakeup_ticks_bucket{le="4.294967296"} 3`,
		`mqpi_wakeup_ticks_bucket{le="274.877906944"} 3`,
		`mqpi_wakeup_ticks_bucket{le="+Inf"} 4`,
		"mqpi_wakeup_ticks_sum 404",
		"mqpi_wakeup_ticks_count 4",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestEstimatePassMetricExposition: mqpi_estimate_pass_seconds is a histogram
// of the owner's estimate passes — the layer the queue-aware pass lives in —
// with the shared power-of-two edges, and the Manager records one sample per
// pass: one for the snapshot New publishes, one for the publish after a
// submit, one for the tick of a manual advance (whose publish reuses the
// tick's bundle).
func TestEstimatePassMetricExposition(t *testing.T) {
	m := new(Metrics)
	m.estimate.Record(3 * time.Microsecond)
	m.estimate.Record(70 * time.Microsecond)
	m.estimate.Record(600 * time.Microsecond)
	text := m.Text()
	assertPrometheusText(t, text)
	for _, want := range []string{
		"# TYPE mqpi_estimate_pass_seconds histogram",
		`mqpi_estimate_pass_seconds_bucket{le="2.048e-06"} 0`,
		`mqpi_estimate_pass_seconds_bucket{le="4.096e-06"} 1`,
		`mqpi_estimate_pass_seconds_bucket{le="0.000131072"} 2`,
		`mqpi_estimate_pass_seconds_bucket{le="0.001048576"} 3`,
		`mqpi_estimate_pass_seconds_bucket{le="+Inf"} 3`,
		"mqpi_estimate_pass_seconds_sum 0.000673",
		"mqpi_estimate_pass_seconds_count 3",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	db := engine.Open()
	loadTable(t, db, "t1", 10)
	mgr := manual(t, db, sched.Config{RateC: 10, Quantum: 0.5})
	if _, err := mgr.Submit(SubmitRequest{SQL: "SELECT SUM(a) FROM t1"}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Advance(0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Overview(); err != nil { // a poll runs no pass
		t.Fatal(err)
	}
	if text := mgr.Metrics().Text(); !strings.Contains(text, "mqpi_estimate_pass_seconds_count 3\n") {
		t.Errorf("want 3 estimate passes (New, submit, tick):\n%s", text)
	}
}
