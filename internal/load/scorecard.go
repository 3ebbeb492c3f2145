package load

import (
	"fmt"
	"strings"
)

// OpCounts is the swarm's op-level tally.
type OpCounts struct {
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected_429"`
	Errors    uint64 `json:"errors"`
	Polls     uint64 `json:"polls"`
	Completed uint64 `json:"completed"`
	Timeouts  uint64 `json:"timeouts"`
	Dropped   uint64 `json:"dropped"`
}

// Latencies groups the three measured distributions.
type Latencies struct {
	Submit LatencyStats `json:"submit"`
	Poll   LatencyStats `json:"poll"`
	E2E    LatencyStats `json:"end_to_end"`
}

// Scorecard is one load run's full result: configuration echo, op counts,
// the latency SLO ladder for submit/poll/end-to-end, and the ETA accuracy
// observed while the swarm ran. It is what mqpi-load emits as JSON and what
// BENCH_load.json commits as the baseline.
type Scorecard struct {
	Name        string      `json:"name,omitempty"`
	Gen         GenConfig   `json:"gen"`
	Swarm       SwarmOpts   `json:"swarm"`
	Server      *ServerOpts `json:"server,omitempty"` // nil when driving an external URL
	WallSeconds float64     `json:"wall_seconds"`
	// CompletedPerSec is end-to-end query throughput (completions, not HTTP
	// requests, per wall second).
	CompletedPerSec float64     `json:"completed_per_sec"`
	PollsPerSec     float64     `json:"polls_per_sec"`
	Ops             OpCounts    `json:"ops"`
	Latency         Latencies   `json:"latency_ms"`
	ETA             ETAAccuracy `json:"eta"`
}

// BuildScorecard folds a finished run into its report.
func BuildScorecard(name string, gen GenConfig, swarm SwarmOpts, server *ServerOpts, rec *Recorder, wallSeconds float64) Scorecard {
	sc := Scorecard{
		Name:        name,
		Gen:         gen.withDefaults(),
		Swarm:       swarm.withDefaults(),
		Server:      server,
		WallSeconds: wallSeconds,
		Ops: OpCounts{
			Submitted: rec.Submitted.Load(),
			Rejected:  rec.Rejected.Load(),
			Errors:    rec.Errors.Load(),
			Polls:     rec.Polls.Load(),
			Completed: rec.Completed.Load(),
			Timeouts:  rec.Timeouts.Load(),
			Dropped:   rec.Dropped.Load(),
		},
		Latency: Latencies{Submit: latencyStats(&rec.Submit), Poll: latencyStats(&rec.Poll), E2E: latencyStats(&rec.E2E)},
		ETA:     rec.ETA(),
	}
	if wallSeconds > 0 {
		sc.CompletedPerSec = float64(sc.Ops.Completed) / wallSeconds
		sc.PollsPerSec = float64(sc.Ops.Polls) / wallSeconds
	}
	return sc
}

// Check is the smoke run's self-test: every histogram must be non-empty with
// a sane percentile ladder, at least one query must have completed, and the
// swarm must not have died on transport errors. It returns nil on a healthy
// scorecard.
func (s *Scorecard) Check() error {
	for _, h := range []struct {
		name string
		st   LatencyStats
	}{{"submit", s.Latency.Submit}, {"poll", s.Latency.Poll}, {"end_to_end", s.Latency.E2E}} {
		if h.st.Count == 0 {
			return fmt.Errorf("load: %s histogram is empty", h.name)
		}
		if !h.st.Ordered() {
			return fmt.Errorf("load: %s percentiles disordered: p50=%.3f p95=%.3f p99=%.3f p999=%.3f",
				h.name, h.st.P50, h.st.P95, h.st.P99, h.st.P999)
		}
	}
	if s.Ops.Completed == 0 {
		return fmt.Errorf("load: no query completed end to end")
	}
	if s.Ops.Errors > 0 {
		return fmt.Errorf("load: %d transport/status errors during the run", s.Ops.Errors)
	}
	if c := s.ETA.Coverage; c < 0 || c > 1 {
		return fmt.Errorf("load: band coverage %g outside [0,1]", c)
	}
	return nil
}

// Text renders the human-readable scorecard table.
func (s *Scorecard) Text() string {
	var b strings.Builder
	if s.Name != "" {
		fmt.Fprintf(&b, "== %s ==\n", s.Name)
	}
	fmt.Fprintf(&b, "arrival=%s clients=%d ops=%d wall=%.2fs  completed=%d (%.0f/s)  polls=%d (%.0f/s)\n",
		s.Gen.Arrival, s.Swarm.Clients, s.Ops.Submitted, s.WallSeconds,
		s.Ops.Completed, s.CompletedPerSec, s.Ops.Polls, s.PollsPerSec)
	if s.Ops.Rejected+s.Ops.Errors+s.Ops.Timeouts+s.Ops.Dropped > 0 {
		fmt.Fprintf(&b, "rejected(429)=%d errors=%d timeouts=%d dropped=%d\n",
			s.Ops.Rejected, s.Ops.Errors, s.Ops.Timeouts, s.Ops.Dropped)
	}
	row := func(name string, st LatencyStats) {
		fmt.Fprintf(&b, "%-11s n=%-8d mean=%8.3fms  p50=%8.3fms  p95=%8.3fms  p99=%8.3fms  p999=%8.3fms  max=%8.3fms\n",
			name, st.Count, st.Mean, st.P50, st.P95, st.P99, st.P999, st.Max)
	}
	row("submit", s.Latency.Submit)
	row("poll", s.Latency.Poll)
	row("end-to-end", s.Latency.E2E)
	fmt.Fprintf(&b, "eta: samples=%d mean_abs_err=%.3fvs mean_rel_err=%.3f band_coverage=%.1f%% (banded=%d)\n",
		s.ETA.Samples, s.ETA.MeanAbsErr, s.ETA.MeanRelErr, 100*s.ETA.Coverage, s.ETA.Banded)
	for _, p := range s.ETA.Curve {
		if p.Samples == 0 {
			continue
		}
		fmt.Fprintf(&b, "  progress %.0f-%.0f%%: n=%-6d rel_err=%.3f coverage=%.1f%%\n",
			100*p.FractionLo, 100*(p.FractionLo+1.0/etaBuckets), p.Samples, p.MeanRelErr, 100*p.Coverage)
	}
	return b.String()
}
