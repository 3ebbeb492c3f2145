package load

import (
	"testing"
	"time"
)

// smokeServer keeps the in-process tier small and fast: a reduced dataset
// with aggressive virtual-time scaling so a seconds-scale wall budget
// completes hundreds of queries.
func smokeServer() ServerOpts {
	return ServerOpts{
		Rows:      15000,
		RateC:     400,
		Quantum:   0.25,
		TimeScale: 800,
		Tick:      time.Millisecond,
	}
}

func runSmoke(t *testing.T, server ServerOpts, gen GenConfig, swarm SwarmOpts) Scorecard {
	t.Helper()
	tier, handler, err := StartLocal(server)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	sched, err := BuildSchedule(gen)
	if err != nil {
		t.Fatal(err)
	}
	rec, wall := Run(NewHandlerTarget(handler), sched, swarm)
	return BuildScorecard(t.Name(), gen, swarm, &server, rec, wall)
}

// TestSwarmSingleEngine drives a small closed-loop swarm against the
// single-engine service end to end: every op must complete, the three
// histograms must fill with ordered percentiles, and the ETA audit must
// collect samples stamped with virtual time.
func TestSwarmSingleEngine(t *testing.T) {
	gen := GenConfig{Arrival: ArrivalClosed, Seed: 3, Ops: 32, Think: 0.001}
	swarm := SwarmOpts{Clients: 8, PollEvery: time.Millisecond, Duration: 30 * time.Second}
	sc := runSmoke(t, smokeServer(), gen, swarm)

	if err := sc.Check(); err != nil {
		t.Fatalf("scorecard check: %v\n%s", err, sc.Text())
	}
	if sc.Ops.Submitted != 32 || sc.Ops.Completed != 32 {
		t.Fatalf("submitted=%d completed=%d, want 32/32\n%s", sc.Ops.Submitted, sc.Ops.Completed, sc.Text())
	}
	if sc.Ops.Polls < sc.Ops.Completed {
		t.Fatalf("polls=%d < completed=%d", sc.Ops.Polls, sc.Ops.Completed)
	}
	if sc.ETA.Samples == 0 {
		t.Fatalf("no ETA samples collected\n%s", sc.Text())
	}
	// Stage mode emits degenerate bands (low == high == point), which still
	// count as banded samples; coverage must be a valid fraction.
	if sc.ETA.Coverage < 0 || sc.ETA.Coverage > 1 {
		t.Fatalf("coverage %g outside [0,1]", sc.ETA.Coverage)
	}
}

// TestSwarmCluster points the same swarm at the 2-shard cluster front door
// with generous admission, exercising routed submits, global-ID polls, and
// the merged read path under concurrency.
func TestSwarmCluster(t *testing.T) {
	server := smokeServer()
	server.Shards = 2
	server.Routing = "least-loaded"
	server.AdmitRate = 1e6
	server.AdmitBurst = 1e6
	gen := GenConfig{Arrival: ArrivalPoisson, Seed: 5, Rate: 120, Horizon: 0.8}
	swarm := SwarmOpts{Clients: 16, PollEvery: time.Millisecond, Duration: 30 * time.Second, Sessions: true}
	sc := runSmoke(t, server, gen, swarm)

	if err := sc.Check(); err != nil {
		t.Fatalf("scorecard check: %v\n%s", err, sc.Text())
	}
	if sc.Ops.Completed == 0 || sc.Ops.Completed != sc.Ops.Submitted {
		t.Fatalf("completed=%d submitted=%d\n%s", sc.Ops.Completed, sc.Ops.Submitted, sc.Text())
	}
}

// TestSwarmAdmissionRejects starves the token bucket so the swarm observes
// 429s: rejected ops must be counted separately from errors, and the run as
// a whole still completes the admitted burst.
func TestSwarmAdmissionRejects(t *testing.T) {
	server := smokeServer()
	server.Shards = 2
	server.AdmitRate = 1e-9
	server.AdmitBurst = 4
	gen := GenConfig{Arrival: ArrivalClosed, Seed: 7, Ops: 12, Think: 0.0005}
	swarm := SwarmOpts{Clients: 4, PollEvery: time.Millisecond, Duration: 30 * time.Second, Sessions: true}
	sc := runSmoke(t, server, gen, swarm)

	if sc.Ops.Errors != 0 {
		t.Fatalf("errors=%d\n%s", sc.Ops.Errors, sc.Text())
	}
	if sc.Ops.Rejected == 0 {
		t.Fatalf("starved bucket produced no 429s\n%s", sc.Text())
	}
	if sc.Ops.Submitted+sc.Ops.Rejected != 12 {
		t.Fatalf("submitted=%d rejected=%d, want 12 total\n%s", sc.Ops.Submitted, sc.Ops.Rejected, sc.Text())
	}
	if sc.Ops.Completed != sc.Ops.Submitted {
		t.Fatalf("completed=%d submitted=%d\n%s", sc.Ops.Completed, sc.Ops.Submitted, sc.Text())
	}
}

// TestSwarmDeadlineDropsOps pins the duration cap: a schedule far larger
// than the budget must stop at the deadline with the unfired remainder
// counted as dropped, never hanging.
func TestSwarmDeadlineDropsOps(t *testing.T) {
	gen := GenConfig{Arrival: ArrivalClosed, Seed: 11, Ops: 4096, Think: 0.001}
	swarm := SwarmOpts{Clients: 4, PollEvery: time.Millisecond, Duration: 900 * time.Millisecond}
	sc := runSmoke(t, smokeServer(), gen, swarm)

	if sc.Ops.Dropped == 0 {
		t.Fatalf("no ops dropped under a 0.9s budget for 4096 ops\n%s", sc.Text())
	}
	if sc.Ops.Errors != 0 {
		t.Fatalf("errors=%d\n%s", sc.Ops.Errors, sc.Text())
	}
	// With no errors, every scheduled op is accounted exactly once.
	total := sc.Ops.Submitted + sc.Ops.Rejected + sc.Ops.Dropped
	if total != 4096 {
		t.Fatalf("op accounting leaks: %d accounted of 4096\n%s", total, sc.Text())
	}
	if sc.WallSeconds > 25 {
		t.Fatalf("swarm overran its deadline: ran %.1fs", sc.WallSeconds)
	}
}
