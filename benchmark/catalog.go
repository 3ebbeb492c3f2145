package main

// The catalogue: every workload and every metric the benchmark knows, in the
// order they are printed. BENCHMARK.json at the repository root carries the
// same lists (a test keeps the two in step); README.md explains them.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"backlog_submit", "Live ticker, 1000 queries deep, submits at a fixed open-loop rate then flat out: the owner loop (publish, per-tick estimates, snapshot copy) does the work and exec almost none."},
	{"poll_fanout", "Live ticker, 1000 in system plus 2000 terminated, a closed-loop poll flood beside a fixed-rate write stream: the lock-free read path and its per-epoch estimate cache do the work."},
	{"exec_replay", "Manual clock, paper-scale data, Poisson arrivals of index-probe queries at MPL 8: the tick's execute phase does the work, service little; repeats exactly, so ETA quality is scored on it."},
	{"scan_share", "Manual clock, same data, concurrent lineitem scans at MPL 16 with folding on: the shared-scan cursor and storage do the work, index probes none."},
}

func workloadNamed(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd metrics are what a client of the serving tier sees. Every workload
// reports every one of them, so each is defined on all four (see README.md
// for what that rules out). Measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"write_p50_ms", "ms", lower, 0.25},
	{"poll_p50_us", "us", lower, 0.25},
	{"closed_ops_per_s", "1/s", higher, 0.25},
	{"clock_rate_ratio", "ratio", higher, 0.20},
	{"exec_u_per_s", "U/s", higher, 0.20},
	{"peak_rss_mb", "MB", lower, 0.15},
}

// perLayer metrics are single layers' costs and counts, from the traced run:
// the load.* and service.* run metrics from the replayed workload itself, the
// rest from the layer walk on the driver's own shadow stack. The layer is the
// module name. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{"sql.parse_us", "us", lower, 0},
	{"plan.plan_us", "us", lower, 0},
	{"engine.prepare_us", "us", lower, 0},
	{"exec.step_ns_per_u", "ns/U", lower, 0},
	{"exec.scan_ns_per_u", "ns/U", lower, 0},
	{"exec.fold_ns_per_u", "ns/U", lower, 0},
	{"exec.fold_over_solo", "ratio", lower, 0},
	{"exec.pages_saved_share", "share", higher, 0},
	{"sched.tick_us.r8", "us", lower, 0},
	{"sched.tick_us.r64", "us", lower, 0},
	{"sched.tick_execute_share", "share", higher, 0},
	{"sched.tick_rounds", "count", lower, 0},
	{"sched.ticks", "count", higher, 0},
	{"sched.submit_us.n1000", "us", lower, 0},
	{"sched.snapshot_us.n1000", "us", lower, 0},
	{"sched.snapshot_us.n1000_h2000", "us", lower, 0},
	{"sched.states_us.n1000", "us", lower, 0},
	{"sched.lookup_us.n1000_h2000", "us", lower, 0},
	{"core.estimates_us.r64_q936", "us", lower, 0},
	{"core.estimates_us.r1000", "us", lower, 0},
	{"core.profile_scratch_us.n1000", "us", lower, 0},
	{"core.profile_incr_us.n1000", "us", lower, 0},
	{"core.incr_over_scratch", "ratio", lower, 0},
	{"service.submit_us.n10", "us", lower, 0},
	{"service.submit_us.n1000", "us", lower, 0},
	{"service.publish_self_us.n1000", "us", lower, 0},
	{"service.advance_us_per_tick.n1000", "us", lower, 0},
	{"service.aftertick_self_us.n1000", "us", lower, 0},
	{"service.owner_wait_ms", "ms", lower, 0},
	{"service.owner_busy_share", "share", lower, 0},
	{"service.progress_hit_us", "us", lower, 0},
	{"service.progress_miss_us", "us", lower, 0},
	{"service.estimate_cache_hit_share", "share", higher, 0},
	{"service.encode_view_us", "us", lower, 0},
	{"service.overview_ms.n1000", "ms", lower, 0},
	{"service.encode_overview_ms.n1000", "ms", lower, 0},
	{"service.http_submit_overhead_us", "us", lower, 0},
	{"service.http_poll_overhead_us", "us", lower, 0},
	{"service.abort_us.n1000", "us", lower, 0},
	{"service.priority_us.n1000", "us", lower, 0},
	{"service.epochs", "count", lower, 0},
	{"service.owner_requests", "count", lower, 0},
	{"cluster.submit_overhead_us", "us", lower, 0},
	{"cluster.progress_overhead_us", "us", lower, 0},
	{"cluster.overview_merge_ms", "ms", lower, 0},
	{"cluster.shard_imbalance", "ratio", lower, 0},
	{"wm.speedup_single_ms.n1000", "ms", lower, 0},
	{"wm.maintenance_ms.n1000", "ms", lower, 0},
	{"load.lateness_p95_ms", "ms", lower, 0},
	{"load.write_p95_ms", "ms", lower, 0},
	{"load.poll_p99_us", "us", lower, 0},
	{"load.completed_per_s", "1/s", higher, 0},
	{"load.overview_p50_ms", "ms", lower, 0},
	{"load.eta_rel_err", "ratio", lower, 0},
	{"load.eta_rel_err_total", "ratio", lower, 0},
	{"load.failed_share", "share", lower, 0},
	{"bench.trace_overhead_share", "share", lower, 0},
}

// value is one measured metric: the number and how many samples stand
// behind it.
type value struct {
	V float64
	N int
}

type metrics map[string]value

func (m metrics) set(name string, v float64, n int) { m[name] = value{v, n} }
