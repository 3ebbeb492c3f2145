package cluster

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"mqpi/internal/engine/sql"
)

// router places one submission on a shard. pick must be safe for concurrent
// use and must never block: least-loaded reads the shards' published
// snapshots (the same lock-free path progress polls use), never the owners.
type router interface {
	pick(c *Cluster, req SubmitRequest) int
}

func newRouter(policy string) (router, error) {
	switch policy {
	case "round-robin":
		return &roundRobin{}, nil
	case "least-loaded":
		return leastLoaded{}, nil
	case "affinity":
		return affinity{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown routing policy %q (want round-robin, least-loaded, or affinity)", policy)
	}
}

// RoutingPolicies lists the valid -routing values, for flag help text.
func RoutingPolicies() []string { return []string{"round-robin", "least-loaded", "affinity"} }

// ValidRouting rejects unknown policy names without building a cluster, so
// flag parsing can fail fast.
func ValidRouting(policy string) error {
	_, err := newRouter(policy)
	return err
}

// roundRobin deals submissions out in shard order. The counter is atomic so
// concurrent submitters never collide; with a serial submitter the placement
// sequence is exactly 0,1,...,n-1,0,...
type roundRobin struct{ next atomic.Uint64 }

func (r *roundRobin) pick(c *Cluster, _ SubmitRequest) int {
	return int((r.next.Add(1) - 1) % uint64(len(c.shards)))
}

// leastLoaded sends the query to the shard with the least outstanding
// refined work (running + queued + scheduled, in U's). Ties break to the
// lowest shard index so serial workloads stay deterministic. The probes are
// epoch-snapshot reads: a shard mid-tick serves its previous snapshot, which
// is the freshest view obtainable without stalling the scheduler.
//
// When shards run with shared-scan folding, the policy is fold-aware: if the
// submission's driver table already has a live fold group on some shard, the
// query goes to the least-loaded shard among those — co-locating same-table
// scans so they ride one cursor instead of each paying full I/O on separate
// shards. The submission's SQL is parsed for its driver table only once some
// shard reports a live group: with none anywhere (folding off, or nothing
// currently folded) no shard could be a candidate, placement is plain
// least-loaded, and the parser never runs.
type leastLoaded struct{}

func (leastLoaded) pick(c *Cluster, req SubmitRequest) int {
	table, parsed := "", false
	best, bestRemaining := -1, 0.0
	foldBest, foldRemaining := -1, 0.0
	for i, m := range c.shards {
		l := m.Load()
		if best < 0 || l.RemainingU < bestRemaining {
			best, bestRemaining = i, l.RemainingU
		}
		if len(l.FoldTables) == 0 {
			continue
		}
		if !parsed {
			table, parsed = driverTable(req.SQL), true
		}
		if table != "" && hasFoldTable(l.FoldTables, table) {
			if foldBest < 0 || l.RemainingU < foldRemaining {
				foldBest, foldRemaining = i, l.RemainingU
			}
		}
	}
	if foldBest >= 0 {
		return foldBest
	}
	return best
}

// driverTable extracts the scan's driver table from the submission SQL: the
// first FROM entry, which the planner walks to as the left-most seq-scan leaf
// (the fold attachment point). Unparseable or table-less statements yield ""
// and route by load alone.
func driverTable(src string) string {
	sel, err := sql.ParseSelect(src)
	if err != nil || len(sel.From) == 0 {
		return ""
	}
	return sel.From[0].Table
}

// hasFoldTable reports whether table is in the shard's sorted live-group
// list. Linear scan: the list is tiny (one entry per distinct folded table).
func hasFoldTable(tables []string, table string) bool {
	for _, t := range tables {
		if t == table {
			return true
		}
	}
	return false
}

// affinity pins a session (or label, or SQL template) to one shard via an
// FNV-1a hash, so repeat submissions share their shard's cache state and a
// session's queries contend only with each other. Aborted or finished
// queries do not move the mapping: the key alone decides.
type affinity struct{}

func (affinity) pick(c *Cluster, req SubmitRequest) int {
	h := fnv.New32a()
	h.Write([]byte(req.affinityKey()))
	return int(h.Sum32() % uint32(len(c.shards)))
}
