// Command mqpi-load is the YCSB-style load harness for the progress-indicator
// serving tier: a goroutine-per-client swarm that floods mqpi-serve with
// Zipf-skewed query templates under a configurable arrival process
// (closed-loop think time, open-loop Poisson, bursty, diurnal), then reports
// the latency SLO scorecard (submit/poll/end-to-end p50/p95/p99/p999) and
// ETA-accuracy-under-load curves.
//
// By default it stands up an in-process serving tier (single-engine, or the
// sharded cluster front door with -shards/-routing/-admit-rate) and drives it
// through the full HTTP mux without sockets; -url points the same swarm at a
// live mqpi-serve process instead.
//
//	mqpi-load -clients 1000 -arrival closed -duration 5s
//	mqpi-load -clients 1000 -shards 4 -routing least-loaded -admit-rate 500
//	mqpi-load -url http://localhost:8080 -arrival poisson -rate 800
//	mqpi-load -bench -out BENCH_load.json        # the committed baseline
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"mqpi/internal/cluster"
	"mqpi/internal/core"
	"mqpi/internal/load"
)

type options struct {
	url       string
	clients   int
	ops       int
	duration  time.Duration
	poll      time.Duration
	arrival   string
	rate      float64
	think     time.Duration
	burstFac  float64
	burstOn   time.Duration
	burstOff  time.Duration
	period    time.Duration
	amp       float64
	zipfA     float64
	tables    int
	seed      int64
	server    load.ServerOpts
	sessions  bool
	jsonOut   bool
	out       string
	selfcheck bool
	bench     bool
	benchSecs time.Duration
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("mqpi-load", flag.ContinueOnError)
	fs.StringVar(&o.url, "url", "", "target base URL (empty = stand up an in-process server)")
	fs.IntVar(&o.clients, "clients", 64, "concurrent submit+poll client goroutines")
	fs.IntVar(&o.ops, "ops", 0, "schedule length (0 = horizon*rate arrivals for open loops, 4096 for closed)")
	fs.DurationVar(&o.duration, "duration", 5*time.Second, "wall-clock cap on the run (0 = drain the schedule)")
	fs.DurationVar(&o.poll, "poll", 5*time.Millisecond, "per-client pause between progress polls")
	fs.StringVar(&o.arrival, "arrival", string(load.ArrivalClosed), "arrival process: "+strings.Join(load.Arrivals(), "|"))
	fs.Float64Var(&o.rate, "rate", 500, "open-loop arrival rate, ops per wall second")
	fs.DurationVar(&o.think, "think", 20*time.Millisecond, "closed-loop mean think time")
	fs.Float64Var(&o.burstFac, "burst-factor", 8, "bursty: rate multiplier during bursts")
	fs.DurationVar(&o.burstOn, "burst-on", 250*time.Millisecond, "bursty: mean burst length")
	fs.DurationVar(&o.burstOff, "burst-off", 750*time.Millisecond, "bursty: mean gap length")
	fs.DurationVar(&o.period, "diurnal-period", 2*time.Second, "diurnal: cycle period")
	fs.Float64Var(&o.amp, "diurnal-amp", 0.8, "diurnal: modulation amplitude in (0,1]")
	fs.Float64Var(&o.zipfA, "zipf", 1.2, "Zipf exponent skewing template choice toward part_1")
	fs.IntVar(&o.tables, "tables", 3, "part tables the templates draw from (part_1..part_K)")
	fs.Int64Var(&o.seed, "seed", 1, "schedule seed (same seed = byte-identical schedule)")
	// In-process server shape (ignored with -url).
	fs.IntVar(&o.server.Rows, "rows", 15000, "in-process server: lineitem rows (>=15000 so the demo part tables fit the key range)")
	fs.Float64Var(&o.server.RateC, "engine-rate", 200, "in-process server: processing rate C, U per virtual second")
	fs.IntVar(&o.server.MPL, "mpl", 0, "in-process server: multi-programming limit (0 = unlimited)")
	fs.Float64Var(&o.server.Quantum, "quantum", 0.25, "in-process server: scheduler quantum, virtual seconds")
	fs.Float64Var(&o.server.TimeScale, "timescale", 400, "in-process server: virtual seconds per wall second")
	fs.DurationVar(&o.server.Tick, "tick", 2*time.Millisecond, "in-process server: wall interval between scheduler advances")
	fs.IntVar(&o.server.Workers, "workers", 0, "in-process server: execute-phase workers (0 = NumCPU)")
	fs.IntVar(&o.server.Shards, "shards", 1, "in-process server: engine shards behind the front door")
	fs.StringVar(&o.server.Routing, "routing", "round-robin", "in-process server: shard placement policy: "+strings.Join(cluster.RoutingPolicies(), "|"))
	fs.Float64Var(&o.server.AdmitRate, "admit-rate", 0, "in-process server: token-bucket admission rate, queries per virtual second")
	fs.Float64Var(&o.server.AdmitBurst, "admit-burst", 0, "in-process server: token-bucket burst capacity")
	fs.BoolVar(&o.server.AdmitQueue, "admit-queue", false, "in-process server: queue over-rate submissions instead of 429")
	fs.BoolVar(&o.server.Fold, "fold", false, "in-process server: fold same-table seq scans onto shared cursors")
	fs.StringVar(&o.server.Estimator, "estimator", core.EstimatorStage, "in-process server: estimate plane: "+strings.Join(core.EstimatorModes(), "|"))
	fs.BoolVar(&o.sessions, "sessions", false, "send per-client session affinity keys (requires a cluster target; the single-engine service rejects the field)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the scorecard as JSON on stdout instead of the table")
	fs.StringVar(&o.out, "out", "", "also write the scorecard JSON to this file")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "exit non-zero unless the scorecard passes sanity checks (non-empty histograms, ordered percentiles, completions, no errors)")
	fs.BoolVar(&o.bench, "bench", false, "run the two pinned baseline configs (single-engine and 2-shard cluster; server flags ignored) and emit {\"runs\":[...]} — what BENCH_load.json commits")
	fs.DurationVar(&o.benchSecs, "bench-duration", 30*time.Second, "per-config wall cap in -bench mode")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if err := load.ValidArrival(o.arrival); err != nil {
		return o, err
	}
	if err := cluster.ValidRouting(o.server.Routing); err != nil {
		return o, err
	}
	if err := core.ValidEstimator(o.server.Estimator); err != nil {
		return o, err
	}
	if o.clients < 1 {
		return o, errors.New("clients must be at least 1")
	}
	if o.server.Shards < 1 {
		return o, errors.New("shards must be at least 1")
	}
	return o, nil
}

func (o options) genConfig() load.GenConfig {
	horizon := o.duration.Seconds()
	if horizon <= 0 {
		horizon = 5
	}
	return load.GenConfig{
		Arrival:     load.Arrival(o.arrival),
		Seed:        o.seed,
		Ops:         o.ops,
		Horizon:     horizon,
		Rate:        o.rate,
		Think:       o.think.Seconds(),
		BurstFactor: o.burstFac,
		BurstOn:     o.burstOn.Seconds(),
		BurstOff:    o.burstOff.Seconds(),
		Period:      o.period.Seconds(),
		Amp:         o.amp,
		Tables:      o.tables,
		ZipfA:       o.zipfA,
	}
}

// runOne executes one swarm against one target configuration. An empty name
// names the run after the in-process tier it starts.
func runOne(name string, gen load.GenConfig, swarm load.SwarmOpts, url string, server load.ServerOpts) (load.Scorecard, error) {
	sched, err := load.BuildSchedule(gen)
	if err != nil {
		return load.Scorecard{}, err
	}
	var target *load.Target
	var serverEcho *load.ServerOpts
	if url != "" {
		target = load.NewURLTarget(url, swarm.Clients)
	} else {
		tier, handler, err := load.StartLocal(server)
		if err != nil {
			return load.Scorecard{}, err
		}
		defer tier.Close()
		front := tier.FrontDoor()
		// Affinity keys go to cluster targets only: the plain service
		// refuses the field.
		swarm.Sessions = swarm.Sessions || front
		switch {
		case name != "":
		case front:
			name = fmt.Sprintf("cluster-%dshard-%s", server.Shards, server.Routing)
		default:
			name = "single-engine"
		}
		target = load.NewHandlerTarget(handler)
		serverEcho = &server
	}
	rec, wall := load.Run(target, sched, swarm)
	return load.BuildScorecard(name, gen, swarm, serverEcho, rec, wall), nil
}

// benchRuns is the committed-baseline pair: the same closed-loop swarm at
// >=1000 clients against the single-engine service and against a 2-shard
// least-loaded cluster with queue-on-full admission, so routing and admission
// each get a latency distribution. The server shape is pinned here rather
// than taken from the generic flags, so regenerating BENCH_load.json always
// measures the same configuration: a high engine rate (20000 U/vs) keeps
// per-query virtual work small relative to the tick bookkeeping that
// dominates with ~1000 queries in the system, and MPL 64 lets queries
// complete in waves instead of all 1000 crawling to the finish together.
func benchRuns(o options) ([]load.Scorecard, error) {
	clients := o.clients
	if clients < 1000 {
		clients = 1000
	}
	gen := o.genConfig()
	gen.Arrival = load.ArrivalClosed
	gen.Ops = 2 * clients
	gen.Horizon = o.benchSecs.Seconds()
	swarm := load.SwarmOpts{Clients: clients, PollEvery: o.poll, Duration: o.benchSecs}

	base := load.ServerOpts{
		Rows:      15000,
		RateC:     20000,
		MPL:       64,
		Quantum:   0.25,
		TimeScale: 800,
		Tick:      time.Millisecond,
	}

	single := base
	sc1, err := runOne("single-engine", gen, swarm, "", single)
	if err != nil {
		return nil, err
	}

	clustered := base
	clustered.Shards = 2
	clustered.Routing = "least-loaded"
	clustered.AdmitRate = 400
	clustered.AdmitBurst = 800
	clustered.AdmitQueue = true
	sc2, err := runOne("cluster-2shard-least-loaded", gen, swarm, "", clustered)
	if err != nil {
		return nil, err
	}
	return []load.Scorecard{sc1, sc2}, nil
}

// report is the JSON envelope mqpi-load emits (and BENCH_load.json commits).
type report struct {
	// Note documents what the numbers are and are not: wall-clock latency on
	// whatever host ran the swarm, not a cross-machine benchmark.
	Note string           `json:"note"`
	Runs []load.Scorecard `json:"runs"`
}

const reportNote = "mqpi-load scorecard: wall-clock latency under a client swarm on the committing host; " +
	"compare shapes and ratios, not absolute times, across machines"

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}

	var runs []load.Scorecard
	if o.bench {
		runs, err = benchRuns(o)
	} else {
		var sc load.Scorecard
		swarm := load.SwarmOpts{
			Clients:   o.clients,
			PollEvery: o.poll,
			Duration:  o.duration,
			// Against an external target only -sessions can assert that a
			// front door is there to take affinity keys.
			Sessions: o.sessions,
		}
		sc, err = runOne(o.url, o.genConfig(), swarm, o.url, o.server)
		runs = []load.Scorecard{sc}
	}
	if err != nil {
		return err
	}

	rep := report{Note: reportNote, Runs: runs}
	if o.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		for _, sc := range runs {
			fmt.Print(sc.Text())
			fmt.Println()
		}
	}
	if o.out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if o.selfcheck {
		for i := range runs {
			if err := runs[i].Check(); err != nil {
				return fmt.Errorf("selfcheck (%s): %w", runs[i].Name, err)
			}
		}
		fmt.Fprintln(os.Stderr, "selfcheck ok")
	}
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}
