// Package wm implements the paper's three workload-management problems on
// top of the multi-query PI's stage model (Section 3): single-query speed-up
// (§3.1), multiple-query speed-up (§3.2), and scheduled maintenance (§3.3).
// All functions operate on core.QueryState snapshots, so they work against
// any source of remaining-cost estimates.
package wm

import (
	"fmt"
	"math"
	"sort"

	"mqpi/internal/core"
)

// Victim is a query selected for blocking, with the predicted benefit in
// seconds (how much the target's — or the others' total — remaining time
// shrinks).
type Victim struct {
	ID      int
	Benefit float64
}

// stages is the §2.2 stage model of states, core.ComputeProfile (the pass the
// estimates come from), with the sanitized state of each runnable query in
// stage order beside it.
func stages(states []core.QueryState, C float64) (core.Profile, []core.QueryState) {
	prof := core.ComputeProfile(states, C)
	byID := make(map[int]core.QueryState, len(states))
	for _, q := range states {
		byID[q.ID] = core.Sanitize(q)
	}
	staged := make([]core.QueryState, len(prof.Order))
	for k, id := range prof.Order {
		staged[k] = byID[id]
	}
	return prof, staged
}

// SpeedUpSingle solves the single-query speed-up problem of §3.1: choose h
// victim queries to block at time 0 so that the target query's remaining
// execution time shrinks the most. Victims are returned in decreasing
// benefit order. Blocking victim Q_m with sorted position m yields benefit
//
//	m after target: T_m = w_m × Σ_{j=1..i} t_j / W_j   (condition C1),
//	m before target: T_m = c_m / C                      (condition C2),
//
// and blocking several victims adds their individual benefits, so the
// optimal h victims are the h largest T_m (the paper's greedy).
func SpeedUpSingle(states []core.QueryState, C float64, targetID int, h int) ([]Victim, error) {
	if C <= 0 {
		return nil, fmt.Errorf("wm: rate C must be positive")
	}
	if h < 1 {
		return nil, fmt.Errorf("wm: number of victims h must be >= 1")
	}
	prof, sorted := stages(states, C)
	ti := -1
	for i, q := range sorted {
		if q.ID == targetID {
			ti = i
			break
		}
	}
	if ti < 0 {
		return nil, fmt.Errorf("wm: target query %d is not a runnable query", targetID)
	}
	if len(sorted) < 2 {
		return nil, fmt.Errorf("wm: no candidate victims")
	}
	// A = Σ_{j=1..i} t_j / W_j (1-based stages up to and including the
	// target's stage).
	A := 0.0
	for j := 0; j <= ti; j++ {
		A += prof.StageDur[j] / prof.StageW[j]
	}
	victims := make([]Victim, 0, len(sorted)-1)
	for m, q := range sorted {
		if m == ti {
			continue
		}
		var benefit float64
		if m > ti {
			benefit = q.Weight * A
		} else {
			benefit = q.Remaining / C
		}
		victims = append(victims, Victim{ID: q.ID, Benefit: benefit})
	}
	sort.SliceStable(victims, func(i, j int) bool {
		if victims[i].Benefit != victims[j].Benefit {
			return victims[i].Benefit > victims[j].Benefit
		}
		return victims[i].ID < victims[j].ID
	})
	if h > len(victims) {
		h = len(victims)
	}
	return victims[:h], nil
}

// SpeedUpSingleEqualPriority is the O(n) fast path of §3.1 for the common
// case where every query has the same priority: any query with remaining
// cost at least the target's is optimal; otherwise the query with the
// largest remaining cost is. A single scan suffices — no sorting, no stage
// computation. Like SpeedUpSingle it reads every state through
// core.Sanitize, so a NaN or ±Inf weight is a weight of 0: no runnable
// target, and never a victim.
func SpeedUpSingleEqualPriority(states []core.QueryState, targetID int) (Victim, error) {
	var target core.QueryState // weight 0, not runnable, unless found
	for _, q := range states {
		if q.ID == targetID {
			target = core.Sanitize(q)
			break
		}
	}
	if target.Weight <= 0 {
		return Victim{}, fmt.Errorf("wm: target query %d is not a runnable query", targetID)
	}
	best, ok := Victim{}, false
	for _, q := range states {
		q = core.Sanitize(q)
		if q.ID == targetID || q.Weight <= 0 {
			continue
		}
		if q.Remaining >= target.Remaining {
			return Victim{ID: q.ID, Benefit: q.Remaining}, nil
		}
		if !ok || q.Remaining > best.Benefit {
			best, ok = Victim{ID: q.ID, Benefit: q.Remaining}, true
		}
	}
	if !ok {
		return Victim{}, fmt.Errorf("wm: no candidate victims")
	}
	return best, nil
}

// SpeedUpOthers solves the multiple-query speed-up problem of §3.2: choose
// the one victim whose blocking most improves the total response time of the
// remaining n−1 queries. Blocking sorted query m improves it by
//
//	R_m = w_m × Σ_{j=1..m} (n−j) × t_j / W_j.
func SpeedUpOthers(states []core.QueryState, C float64) (Victim, error) {
	if C <= 0 {
		return Victim{}, fmt.Errorf("wm: rate C must be positive")
	}
	prof, sorted := stages(states, C)
	n := len(sorted)
	if n < 2 {
		return Victim{}, fmt.Errorf("wm: need at least two runnable queries")
	}
	best := Victim{Benefit: math.Inf(-1)}
	prefix := 0.0 // Σ_{j=1..m} (n−j) t_j / W_j
	for m, q := range sorted {
		prefix += float64(n-(m+1)) * prof.StageDur[m] / prof.StageW[m]
		r := q.Weight * prefix
		if r > best.Benefit || (r == best.Benefit && q.ID < best.ID) {
			best = Victim{ID: q.ID, Benefit: r}
		}
	}
	return best, nil
}
