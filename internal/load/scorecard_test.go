package load

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"mqpi/internal/metrics"
)

// healthyScorecard fabricates a recorder that passes every Check gate.
func healthyScorecard() Scorecard {
	rec := &Recorder{}
	for i := 1; i <= 10; i++ {
		d := time.Duration(i) * time.Millisecond
		rec.Submit.Record(d)
		rec.Poll.Record(d / 10)
		rec.E2E.Record(2 * d)
	}
	rec.Submitted.Store(10)
	rec.Polls.Store(10)
	rec.Completed.Store(10)
	return BuildScorecard("unit", GenConfig{Arrival: ArrivalClosed, Seed: 1}, SwarmOpts{Clients: 2}, nil, rec, 1.5)
}

// TestScorecardCheckGates walks every failure branch of the selfcheck: empty
// histograms, missing completions, transport errors, and out-of-range band
// coverage must each produce a distinct error, and the healthy card none.
func TestScorecardCheckGates(t *testing.T) {
	sc := healthyScorecard()
	if err := sc.Check(); err != nil {
		t.Fatalf("healthy scorecard rejected: %v", err)
	}

	empty := sc
	empty.Latency.Poll = LatencyStats{}
	if err := empty.Check(); err == nil || !strings.Contains(err.Error(), "poll histogram is empty") {
		t.Errorf("empty poll histogram: %v", err)
	}

	disordered := sc
	disordered.Latency.Submit.P50 = disordered.Latency.Submit.P99 * 2
	if err := disordered.Check(); err == nil || !strings.Contains(err.Error(), "disordered") {
		t.Errorf("disordered percentiles: %v", err)
	}

	none := sc
	none.Ops.Completed = 0
	if err := none.Check(); err == nil || !strings.Contains(err.Error(), "no query completed") {
		t.Errorf("zero completions: %v", err)
	}

	errs := sc
	errs.Ops.Errors = 3
	if err := errs.Check(); err == nil || !strings.Contains(err.Error(), "3 transport/status errors") {
		t.Errorf("transport errors: %v", err)
	}

	cov := sc
	cov.ETA.Coverage = 1.5
	if err := cov.Check(); err == nil || !strings.Contains(err.Error(), "coverage") {
		t.Errorf("coverage out of range: %v", err)
	}
}

// TestScorecardText pins the human rendering: header, all three latency rows,
// the op-anomaly line (only when something went wrong), and the non-empty ETA
// curve rows.
func TestScorecardText(t *testing.T) {
	sc := healthyScorecard()
	sc.ETA = ETAAccuracy{
		Samples: 4, MeanAbsErr: 1, MeanRelErr: 0.1, Coverage: 0.5, Banded: 4,
		Curve: []ETAPoint{{FractionLo: 0, Samples: 4, MeanRelErr: 0.1, Coverage: 0.5}, {FractionLo: 0.1}},
	}
	out := sc.Text()
	for _, want := range []string{"== unit ==", "arrival=closed", "submit", "poll", "end-to-end", "progress 0-10%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Text missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "rejected(429)") {
		t.Errorf("anomaly line rendered with zero anomalies:\n%s", out)
	}
	if strings.Contains(out, "progress 10-20%") {
		t.Errorf("empty curve bucket rendered:\n%s", out)
	}

	sc.Ops.Timeouts = 2
	sc.Name = ""
	out = sc.Text()
	if !strings.Contains(out, "timeouts=2") {
		t.Errorf("anomaly line missing:\n%s", out)
	}
	if strings.Contains(out, "==") {
		t.Errorf("nameless scorecard rendered a header:\n%s", out)
	}
}

// TestHistogramEmptyAndEdges covers the empty-histogram accessors and the
// Quantile clamping that the swarm paths never hit.
func TestHistogramEmptyAndEdges(t *testing.T) {
	var h metrics.Histogram
	if h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatalf("empty histogram not all-zero: min=%d max=%d mean=%g q50=%d", h.Min(), h.Max(), h.Mean(), h.Quantile(0.5))
	}
	if st := latencyStats(&h); st.Count != 0 || st.Ordered() {
		t.Fatalf("empty stats: %+v", st)
	}

	h.Record(5 * time.Microsecond)
	h.Record(7 * time.Microsecond)
	if h.Min() != 5000 || h.Max() != 7000 {
		t.Fatalf("min/max = %d/%d, want 5000/7000", h.Min(), h.Max())
	}
	if m := h.Mean(); m != 6000 {
		t.Fatalf("mean = %g, want 6000", m)
	}
	// Out-of-range q clamps; q=0 still returns the first occupied bucket.
	if h.Quantile(-1) == 0 || h.Quantile(2) == 0 {
		t.Fatal("clamped quantiles returned zero on a populated histogram")
	}
	// Negative durations clamp to zero, not to huge unsigned values.
	h.Record(-time.Second)
	if h.Count() != 3 || h.Min() != 0 {
		t.Fatalf("negative duration mishandled: count=%d min=%d", h.Count(), h.Min())
	}
}

// TestNewURLTarget covers the external-target constructor: trailing slashes
// are trimmed and the transport is sized to the client pool.
func TestNewURLTarget(t *testing.T) {
	target := NewURLTarget("http://localhost:8080/", 128)
	if target.BaseURL != "http://localhost:8080" {
		t.Fatalf("base URL = %q", target.BaseURL)
	}
	if target.Client == nil || target.Client.Transport == nil {
		t.Fatal("no transport configured")
	}
}

// TestHistogramConcurrentRecord hammers one histogram from many goroutines
// while a reader keeps taking scorecard rows off it, as the swarm does; run under -race this pins
// the lock-free recording contract, and afterwards the total count and the
// percentile ladder must be exact and ordered.
func TestHistogramConcurrentRecord(t *testing.T) {
	const goroutines = 16
	const perG = 20000
	h := &metrics.Histogram{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Quantile(0.99)
				_ = latencyStats(h)
			}
		}
	}()
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				h.Record(time.Duration(rng.Int63n(1 << 30)))
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	if h.Count() != goroutines*perG {
		t.Fatalf("count %d, want %d", h.Count(), goroutines*perG)
	}
	st := latencyStats(h)
	if !st.Ordered() {
		t.Fatalf("percentiles disordered after concurrent recording: %+v", st)
	}
	if st.Max == 0 || st.P50 <= 0 {
		t.Fatalf("implausible stats after %d records: %+v", goroutines*perG, st)
	}
}
