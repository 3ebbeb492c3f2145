package cluster

import (
	"fmt"
	"strings"
	"sync"

	"mqpi/internal/service"
)

// Metrics holds the cluster-level counters — the front door's own telemetry,
// disjoint from the per-shard service metrics (reachable via each shard's
// /metrics passthrough).
type Metrics struct {
	mu             sync.Mutex
	routed         []uint64 // submissions placed, per shard
	rejected       uint64   // admissions bounced with 429
	delayed        uint64   // queue-mode admissions that borrowed a token
	delaySum       float64  // total borrowed wait, virtual seconds
	execBroadcasts uint64   // DDL/DML statements fanned out to all shards

	buildInfo map[string]string // static build labels for mqpi_build_info ("" = unset)
}

func newClusterMetrics(shards int) *Metrics {
	return &Metrics{routed: make([]uint64, shards)}
}

func (m *Metrics) incRouted(shard int) { m.mu.Lock(); m.routed[shard]++; m.mu.Unlock() }
func (m *Metrics) incRejected()        { m.mu.Lock(); m.rejected++; m.mu.Unlock() }
func (m *Metrics) incExecBroadcast()   { m.mu.Lock(); m.execBroadcasts++; m.mu.Unlock() }

func (m *Metrics) observeAdmitDelay(vsec float64) {
	m.mu.Lock()
	m.delayed++
	m.delaySum += vsec
	m.mu.Unlock()
}

// RoutedCounts returns a copy of the per-shard placement counters.
func (m *Metrics) RoutedCounts() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, len(m.routed))
	copy(out, m.routed)
	return out
}

// Rejected reports how many admissions the bucket bounced.
func (m *Metrics) Rejected() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rejected
}

// SetBuildInfo installs the static labels rendered on the mqpi_build_info
// gauge, identifying the binary behind the front door from /metrics alone.
func (m *Metrics) SetBuildInfo(labels map[string]string) {
	m.mu.Lock()
	m.buildInfo = labels
	m.mu.Unlock()
}

// Text renders the counters in the Prometheus text exposition format.
func (m *Metrics) Text() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP mqpi_cluster_routed_total Submissions placed on each shard.\n# TYPE mqpi_cluster_routed_total counter\n")
	for i, n := range m.routed {
		fmt.Fprintf(&b, "mqpi_cluster_routed_total{shard=\"%d\"} %d\n", i, n)
	}
	fmt.Fprintf(&b, "# HELP mqpi_cluster_admission_rejected_total Submissions bounced by the token bucket.\n# TYPE mqpi_cluster_admission_rejected_total counter\nmqpi_cluster_admission_rejected_total %d\n", m.rejected)
	fmt.Fprintf(&b, "# HELP mqpi_cluster_admission_delayed_total Queue-mode admissions that borrowed a token.\n# TYPE mqpi_cluster_admission_delayed_total counter\nmqpi_cluster_admission_delayed_total %d\n", m.delayed)
	fmt.Fprintf(&b, "# HELP mqpi_cluster_admission_delay_seconds_sum Total borrowed admission wait in virtual seconds.\n# TYPE mqpi_cluster_admission_delay_seconds_sum counter\nmqpi_cluster_admission_delay_seconds_sum %g\n", m.delaySum)
	fmt.Fprintf(&b, "# HELP mqpi_cluster_exec_broadcast_total DDL/DML statements broadcast to all shards.\n# TYPE mqpi_cluster_exec_broadcast_total counter\nmqpi_cluster_exec_broadcast_total %d\n", m.execBroadcasts)
	service.WriteBuildInfo(&b, m.buildInfo)
	return b.String()
}
