// Command mqpi-serve runs the live multi-query progress-indicator service:
// an HTTP/JSON front end over the virtual-time scheduler, with a wall-clock
// ticker advancing the simulation in real time (scaled by -timescale).
//
// Quick start:
//
//	mqpi-serve -addr :8080 -demo &
//	curl -s localhost:8080/queries -d '{"sql":"select * from part_1 ...","label":"q1"}'
//	curl -s localhost:8080/queries/1          # progress + both ETAs
//	curl -s localhost:8080/metrics            # Prometheus scrape
//
// See README.md for the full endpoint list and a worked session.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"mqpi/internal/cluster"
	"mqpi/internal/core"
	"mqpi/internal/engine"
	"mqpi/internal/sched"
	"mqpi/internal/service"
	"mqpi/internal/workload"
)

type options struct {
	addr          string
	rateC         float64
	mpl           int
	quantum       float64
	timeScale     float64
	tickEvery     time.Duration
	eventCap      int
	workers       int
	execDeadline  time.Duration
	demo          bool
	demoRows      int
	shards        int
	routing       string
	admitRate     float64
	admitBurst    float64
	admitQueue    bool
	fold          bool
	estimator     string
	readTimeout   time.Duration
	writeTimeout  time.Duration
	idleTimeout   time.Duration
	shutdownGrace time.Duration
}

// version identifies the build on the mqpi_build_info gauge; release builds
// override it via -ldflags "-X main.version=...".
var version = "dev"

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("mqpi-serve", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	fs.Float64Var(&o.rateC, "rate", 10, "processing rate C, U per virtual second")
	fs.IntVar(&o.mpl, "mpl", 0, "multi-programming limit (0 = unlimited)")
	fs.Float64Var(&o.quantum, "quantum", 0.5, "scheduler quantum Δ, virtual seconds")
	fs.Float64Var(&o.timeScale, "timescale", 1, "virtual seconds per wall second")
	fs.DurationVar(&o.tickEvery, "tick", 50*time.Millisecond, "wall interval between scheduler advances")
	fs.IntVar(&o.eventCap, "events", 128, "events retained per query (at least 1)")
	fs.IntVar(&o.workers, "workers", runtime.NumCPU(), "execute-phase worker goroutines per tick, at least 1 (1 = serial; results identical at every setting)")
	fs.DurationVar(&o.execDeadline, "exec-deadline", 2*time.Second, "max wait for /exec DDL/DML to reach the owner before 409 (0 = wait forever)")
	fs.BoolVar(&o.demo, "demo", false, "preload the scaled-down Table 1 dataset (lineitem, part_1..3)")
	fs.IntVar(&o.demoRows, "rows", 30000, "lineitem rows for -demo")
	fs.IntVar(&o.shards, "shards", 1, "engine+scheduler shards behind the routing front door (1 = plain single-engine service)")
	fs.StringVar(&o.routing, "routing", "round-robin", "shard placement policy: "+strings.Join(cluster.RoutingPolicies(), "|"))
	fs.Float64Var(&o.admitRate, "admit-rate", 0, "token-bucket admission rate, queries per virtual second (0 = no admission control)")
	fs.Float64Var(&o.admitBurst, "admit-burst", 0, "token-bucket burst capacity (0 = max(admit-rate, 1))")
	fs.BoolVar(&o.admitQueue, "admit-queue", false, "queue over-rate submissions as delayed arrivals instead of rejecting with 429")
	fs.BoolVar(&o.fold, "fold", false, "fold same-table same-priority seq scans onto one shared cursor (charged progress is unchanged; only engine cost drops)")
	fs.StringVar(&o.estimator, "estimator", core.EstimatorStage, "estimate plane: "+strings.Join(core.EstimatorModes(), "|")+" (calibrated serves the stage ETA with an eta_low/eta_high band from its rolling finish error)")
	fs.DurationVar(&o.readTimeout, "read-timeout", 30*time.Second, "max time to read one request (slow-client guard; load swarms must not pin handlers)")
	fs.DurationVar(&o.writeTimeout, "write-timeout", 30*time.Second, "max time to write one response")
	fs.DurationVar(&o.idleTimeout, "idle-timeout", 2*time.Minute, "keep-alive idle connection timeout")
	fs.DurationVar(&o.shutdownGrace, "shutdown-grace", 10*time.Second, "max wait for in-flight requests to drain on SIGINT/SIGTERM")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.rateC <= 0 || o.quantum <= 0 || o.timeScale <= 0 || o.tickEvery <= 0 {
		return o, errors.New("rate, quantum, timescale, and tick must be positive")
	}
	if o.readTimeout <= 0 || o.writeTimeout <= 0 || o.idleTimeout <= 0 || o.shutdownGrace <= 0 {
		return o, errors.New("read-timeout, write-timeout, idle-timeout, and shutdown-grace must be positive")
	}
	if o.shards < 1 || o.eventCap < 1 || o.workers < 1 {
		return o, errors.New("shards, events, and workers must be at least 1")
	}
	if o.mpl < 0 || o.execDeadline < 0 {
		return o, errors.New("mpl and exec-deadline must be non-negative")
	}
	if o.admitRate < 0 || o.admitBurst < 0 {
		return o, errors.New("admit-rate and admit-burst must be non-negative")
	}
	if err := cluster.ValidRouting(o.routing); err != nil {
		return o, err
	}
	if err := core.ValidEstimator(o.estimator); err != nil {
		return o, err
	}
	return o, nil
}

// buildServer assembles the serving tier and its HTTP handler: a plain
// single-engine service by default, or the sharded cluster front door when
// -shards or -admit-rate ask for one (cluster.Serve decides). It is the
// testable core of main.
func buildServer(o options) (*cluster.Cluster, http.Handler, error) {
	c, handler, err := cluster.Serve(cluster.Config{
		Shards:     o.shards,
		Routing:    o.routing,
		AdmitRate:  o.admitRate,
		AdmitBurst: o.admitBurst,
		AdmitQueue: o.admitQueue,
		Service: service.Config{
			Sched: sched.Config{
				RateC: o.rateC, MPL: o.mpl, Quantum: o.quantum, Workers: o.workers,
				Fold: o.fold,
			},
			TickEvery:    o.tickEvery,
			TimeScale:    o.timeScale,
			EventCap:     o.eventCap,
			ExecDeadline: o.execDeadline,
			Estimator:    o.estimator,
		},
	}, func() (*engine.DB, error) {
		if !o.demo {
			return engine.Open(), nil
		}
		return workload.DemoDB(o.demoRows)
	})
	if err != nil {
		return nil, nil, err
	}
	// The static mqpi_build_info labels: enough to identify a deployed shard
	// from its metrics page alone.
	info := map[string]string{
		"version":    version,
		"go_version": runtime.Version(),
		"estimator":  o.estimator,
		"routing":    o.routing,
	}
	c.Metrics().SetBuildInfo(info)
	for i := 0; i < c.Shards(); i++ {
		c.Shard(i).Metrics().SetBuildInfo(info)
	}
	return c, handler, nil
}

// newHTTPServer wraps the handler with the binary's protection limits: a
// slow or stalled client can hold a connection for at most the read/write
// timeouts, so a load swarm (or a misbehaving peer) cannot pin handler
// goroutines indefinitely.
func newHTTPServer(o options, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              o.addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       o.readTimeout,
		WriteTimeout:      o.writeTimeout,
		IdleTimeout:       o.idleTimeout,
	}
}

// serveUntilSignal runs the server until it fails or a signal arrives, then
// shuts down gracefully: the listener closes, in-flight requests get up to
// grace to drain, and only then is the serving tier (scheduler ticker and
// owner goroutines) closed. ln may be nil, in which case the server listens
// on its own Addr. The signal channel is injected so tests can drive the
// shutdown path without killing the test process.
func serveUntilSignal(srv *http.Server, ln net.Listener, m interface{ Close() }, sig <-chan os.Signal, grace time.Duration) error {
	errc := make(chan error, 1)
	go func() {
		if ln != nil {
			errc <- srv.Serve(ln)
		} else {
			errc <- srv.ListenAndServe()
		}
	}()
	select {
	case err := <-errc:
		m.Close()
		return err
	case s := <-sig:
		log.Printf("received %s, draining in-flight requests (grace %s)", s, grace)
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		err := srv.Shutdown(ctx)
		// Close the tier only after the drain: in-flight polls and submits
		// must see a live manager, not ErrClosed 503s.
		m.Close()
		return err
	}
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	m, handler, err := buildServer(o)
	if err != nil {
		return err
	}

	srv := newHTTPServer(o, handler)
	log.Printf("mqpi-serve listening on %s (C=%g U/s, quantum=%gs, timescale=%g, workers=%d, shards=%d, routing=%s, admit-rate=%g, fold=%v, estimator=%s, demo=%v)",
		o.addr, o.rateC, o.quantum, o.timeScale, o.workers, o.shards, o.routing, o.admitRate, o.fold, o.estimator, o.demo)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return serveUntilSignal(srv, nil, m, sig, o.shutdownGrace)
}

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}
