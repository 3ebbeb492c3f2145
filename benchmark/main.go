// Command benchmark is the repository's one benchmark of the serving tier.
//
//	go run ./benchmark
//
// runs four workloads, each in a fresh child process with tracing off, prints
// every end-to-end metric, checks the outputs, repeats each workload traced
// for the per-layer metrics, and compares the sets of a -repeat against the
// bounds. With -workload it is one run of one workload in this process:
//
//	go run ./benchmark -workload poll_fanout -seed 7 -seconds 15 -trace 0
//
// whose last line of standard output is the result object BENCHMARK.json's
// contract asks for. README.md in this directory is the catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	repeat   int
	workers  int
	outDir   string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: all four, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 1, "schedule seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long the measured phase lasts on seed code; it fixes the op counts")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny counts: the whole suite in under ten seconds, numbers meaningless")
	fs.IntVar(&o.repeat, "repeat", 2, "suite: sets of untraced runs whose spread is held against the bounds")
	fs.IntVar(&o.workers, "workers", 2, "execute-phase workers of the server under test")
	fs.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case o.workload != "" && !workloadNamed(o.workload):
		return o, fmt.Errorf("unknown workload %q", o.workload)
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("-trace is 0 or 1")
	case o.seconds <= 0 || o.seconds > 60:
		return o, fmt.Errorf("-seconds must be in (0, 60]")
	case o.repeat < 1:
		return o, fmt.Errorf("-repeat must be at least 1")
	case o.workers < 1:
		return o, fmt.Errorf("-workers must be at least 1")
	}
	return o, nil
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// metricLine is one metric as printed: stable JSON, one object per line.
type metricLine struct {
	Workload string  `json:"workload"`
	Set      int     `json:"set,omitempty"` // which set of a -repeat, from 1
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	Samples  int     `json:"samples"`
}

// runLine says how the run as a whole went.
type runLine struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Trace        int      `json:"trace"`
	WallS        float64  `json:"wall_s"`
	Fingerprint  string   `json:"fingerprint,omitempty"`
	FailedChecks []string `json:"failed_checks"`
}

// result is the last line of a single run: the driver's contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run, ready to print.
type report struct {
	run     runLine
	metrics []metricLine
	result  result
	budget  string // live workloads, traced
}

// runOne carries out one run in this process.
func runOne(o options) (report, error) {
	sz := sizesFor(o.seconds, o.smoke)
	traced := o.trace == 1
	out, err := runWorkload(o.workload, o.seed, sz, traced, o.workers)
	if err != nil {
		return report{}, err
	}
	var m metrics
	defs := endToEnd
	var rep report
	if traced {
		walk, err := layerWalk(o.seed, sz, o.workers)
		if err != nil {
			return report{}, err
		}
		defs = perLayer
		m = perLayerMetrics(out, walk)
		tf := traceFile{Workload: o.workload, Seed: o.seed}
		if out.deep { // one budget table per live workload
			rows, total, excess := submitBudget(out, walk)
			rep.budget = formatBudget("POST /queries on "+o.workload+" (median handler time)", total, rows, excess)
			tf.Budget = rows
		}
		if _, err := writeTrace(o.outDir, tf, out.spans); err != nil {
			return report{}, err
		}
	} else {
		m = endToEndMetrics(out)
	}

	rep.run = runLine{Workload: o.workload, Seed: o.seed, Trace: o.trace, WallS: out.wall,
		Fingerprint: out.fingerprint, FailedChecks: append([]string{}, out.failedChecks...)}
	rep.result = result{Correct: len(out.failedChecks) == 0, Attempted: out.attempted,
		Failed: out.refused + out.errored, Metrics: map[string]resultValue{}}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return report{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		rep.metrics = append(rep.metrics, metricLine{Workload: o.workload, Metric: d.Name, Unit: d.Unit, Value: v.V, Samples: v.N})
		rep.result.Metrics[d.Name] = resultValue{v.V, d.Unit}
	}
	return rep, nil
}

// print writes the report: metric lines and the run line to w, the result
// object last.
func (r report) print(w io.Writer) {
	enc := json.NewEncoder(w)
	for _, m := range r.metrics {
		enc.Encode(m)
	}
	enc.Encode(r.run)
	enc.Encode(r.result)
}

// endToEndMetrics turns an untraced run into the end-to-end metrics.
func endToEndMetrics(o *outcome) metrics {
	m := metrics{}
	m.set("setup_s", median(o.setup), len(o.setup))
	m.set("write_p50_ms", sortedMedian(o.writes.sorted(1e6)), len(o.writes))
	m.set("poll_p50_us", sortedMedian(o.polls.sorted(1e3)), len(o.polls))
	m.set("closed_ops_per_s", float64(o.closedOps)/o.closedWall, o.closedOps)
	m.set("clock_rate_ratio", o.virt/(o.wall*o.timeScale), 1)
	m.set("exec_u_per_s", o.doneU/o.wall, 1)
	m.set("peak_rss_mb", o.peakRSSMB, 1)
	return m
}

// tail is the p-th percentile of l, or 0 when fewer than minBeyond samples
// lie beyond it: an unsupported percentile is not reported.
func tail(l lat, div, p float64) float64 {
	v, ok := percentile(l.sorted(div), p)
	if !ok {
		return 0
	}
	return v
}

// perLayerMetrics joins the traced run's own counts with the layer walk.
func perLayerMetrics(o *outcome, walk metrics) metrics {
	m := metrics{}
	for k, v := range walk {
		m[k] = v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ticks := o.delta("mqpi_tick_duration_seconds_count")
	m.set("sched.ticks", ticks, 1)
	m.set("sched.tick_rounds", o.delta("mqpi_tick_rounds_total"), 1)
	m.set("sched.tick_execute_share",
		ratio(o.delta("mqpi_execute_phase_seconds_sum"), o.delta("mqpi_tick_duration_seconds_sum")), int(ticks))
	m.set("service.epochs", o.delta("mqpi_snapshot_epoch"), 1)
	requests := o.delta("mqpi_owner_requests_total")
	m.set("service.owner_requests", requests, 1)
	hits, misses := o.delta("mqpi_poll_estimate_cache_hits_total"), o.delta("mqpi_poll_estimate_cache_misses_total")
	m.set("service.estimate_cache_hit_share", ratio(hits, hits+misses), int(hits+misses))

	m.set("service.owner_busy_share", ratio(ownerBusySeconds(o, walk, ticks, requests), o.wall), 1)

	handler, n := submitHandlerMedianUs(o)
	quiescent := walk["service.submit_us.n1000"].V + walk["service.http_submit_overhead_us"].V
	m.set("service.owner_wait_ms", clampSelf(handler, quiescent)/1e3, n)

	m.set("load.lateness_p95_ms", tail(o.lateness, 1e6, 0.95), len(o.lateness))
	m.set("load.completed_per_s", float64(o.completed)/o.wall, o.completed)
	m.set("load.eta_rel_err", o.etaErr, o.etaSamples)
	m.set("load.eta_rel_err_total", o.etaErrTotal, o.etaSamples)
	m.set("load.failed_share", ratio(float64(o.refused+o.errored), float64(o.attempted)), o.attempted)
	// The tails repeat too loosely between seeds to carry a bound (ten samples
	// beyond the 95th percentile of 200 writes; a poll p99 that sits on the
	// estimate-cache miss path), but they show a convoy.
	m.set("load.write_p95_ms", tail(o.writes, 1e6, 0.95), len(o.writes))
	m.set("load.poll_p99_us", tail(o.polls, 1e3, 0.99), len(o.polls))
	m.set("load.overview_p50_ms", sortedMedian(o.overviews.sorted(1e6)), len(o.overviews))

	spans := 0
	for _, s := range o.spans {
		spans += len(s)
	}
	m.set("bench.trace_overhead_share", float64(spans/2)*traceCostNs()/(o.wall*1e9), spans)
	return m
}

// ownerBusySeconds estimates how long the owner goroutine worked during the
// measured phase. Under a manual clock it works only inside mutating
// requests, so their handler spans are the answer. Under the live ticker the
// driver cannot see it work; the estimate prices every tick the server
// counted at the walk's cost of one advance at depth (tick, estimate pass and
// publish), and every owner request at the walk's quiescent cost.
func ownerBusySeconds(o *outcome, walk metrics, ticks, requests float64) float64 {
	if o.deep {
		return (ticks*walk["service.advance_us_per_tick.n1000"].V + requests*walk["service.submit_us.n1000"].V) / 1e6
	}
	busy := int64(0)
	for _, spans := range o.spans {
		for _, s := range spans {
			if s.Kind == spAdvance || s.Kind == spSubmit {
				busy += s.End - s.Start
			}
		}
	}
	return float64(busy) / 1e9
}

// submitHandlerMedianUs is the median time the handler took for POST
// /queries during the measured phase, from the spans.
func submitHandlerMedianUs(o *outcome) (float64, int) {
	var d []float64
	for _, spans := range o.spans {
		for _, s := range spans {
			if s.Kind == spSubmit {
				d = append(d, float64(s.End-s.Start)/us)
			}
		}
	}
	return median(d), len(d)
}

// submitBudget splits the live submit median across the stops a request
// makes. The named stops are timed separately on the quiescent shadow stack;
// what they do not explain is the wait for the owner goroutine.
func submitBudget(o *outcome, walk metrics) (rows []budgetRow, totalUs, excess float64) {
	w := func(name string) float64 { return walk[name].V }
	totalUs, _ = submitHandlerMedianUs(o)
	encode := w("service.encode_view_us")
	estimate := w("core.estimates_us.r64_q936")
	stops := []budgetRow{
		{"decode", clampSelf(w("service.http_submit_overhead_us"), encode)},
		{"parse", w("sql.parse_us")},
		{"plan", clampSelf(w("engine.prepare_us"), w("sql.parse_us"))}, // planner plus runner build
		{"sched admit", w("sched.submit_us.n1000")},
		{"tick", 0}, // a submit never ticks; ticks it waits behind are owner wait
		{"estimate", min(estimate, w("service.publish_self_us.n1000"))},
		{"publish", clampSelf(w("service.publish_self_us.n1000"), estimate)},
		{"encode", encode},
	}
	rows, excess = budget(totalUs, stops)
	return rows, totalUs, excess
}

// traceCostNs measures what recording one request's two spans costs, so the
// traced run can say what share of its wall went into tracing.
func traceCostNs() float64 {
	origin := time.Now()
	spans := make([]span, 0, 2048)
	return perCall(1000, func(i int) {
		if len(spans) == cap(spans) {
			spans = spans[:0]
		}
		t0 := time.Now()
		spans = append(spans,
			span{Kind: spRequest, Start: int64(t0.Sub(origin)), End: int64(t0.Sub(origin)), Parent: -1, Req: int32(i)},
			span{Kind: spPoll, Start: int64(t0.Sub(origin)), End: int64(t0.Sub(origin)), Parent: 0, Req: int32(i)})
	})
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if o.workload == "" {
		os.Exit(suite(o, childRunner, os.Stdout, os.Stderr))
	}
	rep, err := runOne(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	for _, c := range rep.run.FailedChecks {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", c)
	}
	if rep.budget != "" {
		fmt.Fprint(os.Stderr, rep.budget)
	}
	rep.print(os.Stdout)
}
