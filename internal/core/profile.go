// Package core implements the paper's multi-query progress indicator: the
// stage model of concurrent query execution under weighted fair sharing
// (Section 2.2), its extension to non-empty admission queues (Section 2.3)
// and predicted future arrivals (Section 2.4), and the single-query estimator
// it is compared against.
//
// All inputs are abstract QueryStates — remaining cost c_i in work units U,
// weight w_i, completed work e_i — so the algorithms are independent of the
// SQL engine that produces them.
package core

import (
	"math"
	"sort"
)

// QueryState is the PI's view of one query, mirroring the paper's notation.
type QueryState struct {
	ID        int
	Remaining float64 // c_i: remaining cost in U's
	Weight    float64 // w_i: weight of the query's priority
	Done      float64 // e_i: work completed so far in U's
	// Fold tags the shared-scan group the query currently rides (0 = solo).
	// Folding is the §2.2 extension for shared work: group members advance in
	// lockstep over the same pages, so their charged-work trajectories — and
	// therefore every stage-model quantity — are exactly what weighted fair
	// sharing already predicts. The tag does not alter the math; it only
	// surfaces which stages advance together (Profile.Shared).
	Fold int
}

// SharedStage is one fold group as the stage model sees it: the runnable
// queries advancing in lockstep over one shared cursor. Members (being
// equal-weight scans of the same relation) typically occupy adjacent stages.
type SharedStage struct {
	Fold int   // fold-group ID (matches QueryState.Fold)
	IDs  []int // member query IDs, ascending
}

// Profile is the result of the stage model: the n queries finish one per
// stage, in ascending order of c_i/w_i (Section 2.2).
type Profile struct {
	// Order lists query IDs in predicted finish order.
	Order []int
	// StageDur[i] is t_{i+1}, the duration of stage i+1 in seconds.
	StageDur []float64
	// Finish maps query ID to its predicted remaining execution time r_i in
	// seconds. Queries that never finish (zero weight, or C <= 0) map to +Inf.
	Finish map[int]float64
	// Shared inventories the fold groups among the runnable queries, ordered
	// by first appearance in stage order. Empty when nothing folds.
	Shared []SharedStage
}

// QuiescentTime returns the predicted time until the last query finishes
// (the paper's "system quiescent time"); 0 when there are no queries.
func (p Profile) QuiescentTime() float64 {
	t := 0.0
	for _, d := range p.StageDur {
		t += d
	}
	return t
}

// ComputeProfile runs the closed-form stage algorithm of Section 2.2:
// sort the n queries in ascending c_i/w_i; stage k then lasts
//
//	t_k = (c_k/w_k − c_{k−1}/w_{k−1}) × W_k / C,  W_k = Σ_{j≥k} w_j,
//
// and query k finishes at r_k = Σ_{j≤k} t_j. Time O(n log n), space O(n).
// Queries with non-positive weight are treated as blocked: they consume no
// capacity and never finish.
//
// This is the paper's formula as written, with its stage order and durations:
// StageDiagram, the §3 planners and the experiments read those. Estimates come
// from queuePass, whose no-queue case is held against this function.
func ComputeProfile(states []QueryState, C float64) Profile {
	prof := Profile{Finish: make(map[int]float64, len(states))}
	var active []QueryState
	for _, q := range states {
		q = sanitize(q)
		if q.Weight <= 0 {
			prof.Finish[q.ID] = math.Inf(1)
			continue
		}
		active = append(active, q)
	}
	C = sanitizeRate(C)
	if C <= 0 {
		for _, q := range active {
			prof.Finish[q.ID] = math.Inf(1)
		}
		return prof
	}
	sort.SliceStable(active, func(i, j int) bool {
		ri := active[i].Remaining / active[i].Weight
		rj := active[j].Remaining / active[j].Weight
		if ri != rj {
			return ri < rj
		}
		return active[i].ID < active[j].ID
	})
	// Suffix weight sums W_k.
	suffixW := make([]float64, len(active)+1)
	for i := len(active) - 1; i >= 0; i-- {
		suffixW[i] = suffixW[i+1] + active[i].Weight
	}
	prevRatio := 0.0
	elapsed := 0.0
	for k, q := range active {
		ratio := q.Remaining / q.Weight
		t := (ratio - prevRatio) * suffixW[k] / C
		if math.IsNaN(t) || t < 0 {
			t = 0 // floating-point jitter, or Inf-Inf from degenerate inputs
		}
		elapsed += t
		prof.StageDur = append(prof.StageDur, t)
		prof.Order = append(prof.Order, q.ID)
		prof.Finish[q.ID] = elapsed
		prevRatio = ratio
		if q.Fold != 0 {
			prof.Shared = appendFoldStage(prof.Shared, q.Fold, q.ID)
		}
	}
	sortFoldStages(prof.Shared)
	return prof
}

// appendFoldStage records one runnable folded query in the profile's shared
// inventory: one entry per group, in order of first appearance in stage order.
func appendFoldStage(shared []SharedStage, fold, id int) []SharedStage {
	for i := range shared {
		if shared[i].Fold == fold {
			shared[i].IDs = append(shared[i].IDs, id)
			return shared
		}
	}
	return append(shared, SharedStage{Fold: fold, IDs: []int{id}})
}

// sortFoldStages canonicalizes member lists to ascending ID (they arrive in
// (ratio, ID) stage order, which only ties back to ID order at equal ratios).
func sortFoldStages(shared []SharedStage) {
	for i := range shared {
		sort.Ints(shared[i].IDs)
	}
}

// sanitizeRate clamps a pathological processing rate: NaN and non-positive
// rates are invalid (0), +Inf becomes a huge finite rate.
func sanitizeRate(C float64) float64 {
	if math.IsNaN(C) || C <= 0 {
		return 0
	}
	if math.IsInf(C, 1) {
		return math.MaxFloat64 / 1e6
	}
	return C
}

// sanitize clamps pathological inputs so the algorithms cannot loop or
// propagate NaNs: NaN or negative remaining costs become 0, NaN or infinite
// weights become 0 (blocked).
func sanitize(q QueryState) QueryState {
	if math.IsNaN(q.Remaining) || q.Remaining < 0 {
		q.Remaining = 0
	}
	if math.IsInf(q.Remaining, 1) {
		q.Remaining = math.MaxFloat64 / 1e6
	}
	if math.IsNaN(q.Weight) || math.IsInf(q.Weight, 0) || q.Weight < 0 {
		q.Weight = 0
	}
	// Weights are priority weights; clamp to a sane range so summing any
	// number of them cannot overflow.
	if q.Weight > 1e12 {
		q.Weight = 1e12
	}
	return q
}

// ArrivalModel is the paper's prediction about future queries (Section 2.4):
// every 1/Lambda seconds a query with cost AvgCost and weight AvgWeight is
// assumed to arrive.
type ArrivalModel struct {
	Lambda    float64 // average arrival rate λ in queries/second
	AvgCost   float64 // average cost c̄ in U's
	AvgWeight float64 // weight of the average priority p̄
}

// query returns the query the model predicts every 1/Lambda seconds, clamped
// the way query states are (the numbers come from workload statistics), and
// whether the model is active: it needs a positive rate, cost and weight. A
// weightless model is inactive because its queries would enter blocked, and
// each one that took a freed MPL slot would keep it for ever.
func (m *ArrivalModel) query() (QueryState, bool) {
	if m == nil || !(m.Lambda > 0) || !(m.AvgCost > 0) {
		return QueryState{}, false
	}
	q := sanitize(QueryState{Remaining: m.AvgCost, Weight: m.AvgWeight})
	return q, q.Weight > 0
}

// SimOptions configures SimulateProfile.
type SimOptions struct {
	// MPL caps the number of concurrently running queries (the admission
	// policy of Section 2.3); 0 means unlimited.
	MPL int
	// Queued holds the admission queue in FIFO order; entries are admitted
	// as running queries finish.
	Queued []QueryState
	// Arrivals, when non-nil, injects the virtual future queries of
	// Section 2.4.
	Arrivals *ArrivalModel
	// ArrivalWindow bounds how far into the future virtual arrivals are
	// injected. 0 means the default: the no-arrival quiescent time of the
	// known queries plus one inter-arrival gap. The bound keeps estimates
	// finite even when the assumed arrival rate would make the hypothetical
	// system unstable (the paper's Figure 8 shows bounded errors at λ' ≫ λ,
	// implying the same kind of bounded look-ahead).
	ArrivalWindow float64
	// Horizon is a safety cap on simulated time; queries that have not
	// finished by the horizon get extrapolated (large but finite) estimates.
	// 0 means a generous default derived from the total known work.
	Horizon float64
}

// futureID is the synthetic ID space for virtual arrivals; they are excluded
// from the returned profile.
const futureIDBase = -1000000

// maxVirtualArrivals bounds the number of injected future queries per
// estimate; a window so long that it would exceed this is itself a sign the
// inputs are degenerate, and truncating only makes the estimate optimistic.
const maxVirtualArrivals = 10000

// SimulateProfile generalizes the stage model: it event-steps the weighted
// fair-sharing execution of the running queries, admitting queued queries as
// slots free up and injecting predicted future arrivals. With no queue and
// no arrivals it reproduces ComputeProfile exactly (a property the tests
// check). Queries in the admission queue are predicted to finish after they
// are admitted; their Finish times are included in the profile. The returned
// profile carries no Shared inventory: fold membership is a property of the
// live mix, and the simulation's hypothetical admissions and arrivals do not
// model which future scans would fold.
//
// Each event rescans the active set, so a replay costs O((r+q+a)·MPL), a the
// virtual arrivals. No estimate is computed this way: queuePass replays the
// same admissions and arrivals on finish tags in O((r+q+a)·log MPL), and this
// function is the reference implementation that pass is held against (the
// core differential and fuzz tests, the sim's I14).
func SimulateProfile(running []QueryState, C float64, opt SimOptions) Profile {
	prof := Profile{Finish: make(map[int]float64, len(running)+len(opt.Queued))}
	C = sanitizeRate(C)
	if C <= 0 {
		for _, q := range running {
			prof.Finish[q.ID] = math.Inf(1)
		}
		for _, q := range opt.Queued {
			prof.Finish[q.ID] = math.Inf(1)
		}
		return prof
	}

	type simQ struct {
		QueryState
		virtual bool
	}
	var active []simQ
	for _, q := range running {
		active = append(active, simQ{QueryState: sanitize(q)})
	}
	queue := make([]QueryState, 0, len(opt.Queued))
	for _, q := range opt.Queued {
		queue = append(queue, sanitize(q))
	}

	horizon := opt.Horizon
	var nextArrival float64 = math.Inf(1)
	var interarrival, arrivalWindow float64
	var arrivalCost, arrivalWeight float64
	if am, ok := opt.Arrivals.query(); ok {
		arrivalCost, arrivalWeight = am.Remaining, am.Weight
		interarrival = 1 / opt.Arrivals.Lambda
		nextArrival = interarrival
		base := 0.0
		for _, q := range active {
			base += q.Remaining
		}
		for _, q := range queue {
			base += math.Max(0, q.Remaining)
		}
		arrivalWindow = opt.ArrivalWindow
		if arrivalWindow <= 0 {
			arrivalWindow = base/C + interarrival
		}
		if nextArrival > arrivalWindow {
			nextArrival = math.Inf(1)
		}
		if horizon <= 0 {
			// Safety cap: all known work plus every virtual arrival in the
			// window, with slack. The simulation always terminates well
			// before this.
			injected := math.Min(math.Ceil(arrivalWindow/interarrival), maxVirtualArrivals) * arrivalCost
			horizon = 10 * (base + injected + arrivalCost) / C
		}
	}

	now := 0.0
	virtualSeq := 0
	admit := func() {
		// Every admitted query occupies an MPL slot, runnable or blocked.
		for len(queue) > 0 && (opt.MPL <= 0 || len(active) < opt.MPL) {
			q := queue[0]
			queue = queue[1:]
			if q.Remaining < 0 {
				q.Remaining = 0
			}
			active = append(active, simQ{QueryState: q})
		}
	}
	// Initial admissions if slots are free.
	admit()

	const eps = 1e-12
	for {
		// Termination: stop once every real query — active or queued — has a
		// finish time. A non-empty queue behind virtual-only occupants must
		// NOT terminate the loop: virtual arrivals finish in finite time and
		// free their MPL slots, so queued real queries still inherit finite
		// ETAs (the horizon and the W<=0 branch below cover the degenerate
		// virtual mixes that never drain).
		realLeft := false
		for _, q := range active {
			if !q.virtual {
				realLeft = true
				break
			}
		}
		if !realLeft {
			if len(queue) == 0 {
				// Only virtual queries (if any) remain; real work is done.
				break
			}
			if len(active) == 0 {
				// Defensive: admit() fills every free slot, so a non-empty
				// queue with nothing active means admission is impossible.
				for _, q := range queue {
					prof.Finish[q.ID] = math.Inf(1)
				}
				break
			}
			// All MPL slots are held by virtual arrivals; keep simulating so
			// their finishes admit the queued real queries.
		}

		// Total weight of runnable queries.
		W := 0.0
		for _, q := range active {
			if q.Weight > 0 {
				W += q.Weight
			}
		}
		if W <= 0 {
			// Everything blocked: remaining real queries never finish.
			for _, q := range active {
				if !q.virtual {
					prof.Finish[q.ID] = math.Inf(1)
				}
			}
			for _, q := range queue {
				prof.Finish[q.ID] = math.Inf(1)
			}
			break
		}

		// Next completion among runnable queries.
		nextFinish := math.Inf(1)
		for _, q := range active {
			if q.Weight <= 0 {
				continue
			}
			// C × (w/W): the share is computed first so huge C and huge
			// weights cannot overflow to +Inf in the intermediate product.
			speed := C * (q.Weight / W)
			t := q.Remaining / speed
			if t < nextFinish {
				nextFinish = t
			}
		}
		dt := nextFinish
		arriving := false
		if now+dt > nextArrival-eps && nextArrival < math.Inf(1) {
			dt = nextArrival - now
			arriving = true
		}
		if math.IsNaN(dt) || math.IsInf(dt, 1) {
			// Degenerate speeds (e.g. a vanishing weight share): nothing
			// left can finish in finite time.
			for _, q := range active {
				if !q.virtual {
					prof.Finish[q.ID] = math.Inf(1)
				}
			}
			for _, q := range queue {
				prof.Finish[q.ID] = math.Inf(1)
			}
			break
		}
		if horizon > 0 && now+dt > horizon {
			// The system is unstable under the assumed arrivals and the
			// simulation horizon was reached. Return finite (large)
			// estimates by extrapolating at the frozen mix: each active
			// query keeps its current speed; queued queries drain after the
			// work admitted ahead of them.
			for _, q := range active {
				if q.virtual {
					continue
				}
				if q.Weight > 0 && W > 0 {
					prof.Finish[q.ID] = now + q.Remaining/(C*(q.Weight/W))
				} else {
					prof.Finish[q.ID] = math.Inf(1)
				}
			}
			backlog := 0.0
			for _, q := range active {
				backlog += q.Remaining
			}
			for _, q := range queue {
				backlog += math.Max(0, q.Remaining)
				prof.Finish[q.ID] = now + backlog/C
			}
			break
		}

		// Advance dt seconds of weighted fair sharing. Retirement uses a
		// threshold relative to the amount each query just processed: an
		// absolute epsilon cannot work across the f64 range (one ulp of a
		// huge remaining cost exceeds any fixed epsilon, which would loop
		// forever shaving ulps).
		for i := range active {
			if active[i].Weight <= 0 {
				continue
			}
			active[i].Remaining -= C * (active[i].Weight / W) * dt
		}
		now += dt

		// Retire finished queries. Simultaneous finishers are canonicalized to
		// ascending ID order — the tie order ComputeProfile's (ratio, ID) sort
		// produces — rather than active-slice insertion order, so the profile
		// stays bit-comparable against any reordered implementation. Only
		// Order needs the sort: every finisher in the batch shares Finish=now,
		// and the duration recovery below reads Finish, not positions.
		finStart := len(prof.Order)
		kept := active[:0]
		for _, q := range active {
			amount := C * (q.Weight / W) * dt
			if q.Weight > 0 && q.Remaining <= eps*math.Max(1, C)+1e-9*amount {
				if !q.virtual {
					prof.Order = append(prof.Order, q.ID)
					prof.StageDur = append(prof.StageDur, 0) // durations filled below
					prof.Finish[q.ID] = now
				}
				continue
			}
			kept = append(kept, q)
		}
		active = kept
		if len(prof.Order)-finStart > 1 {
			sort.Ints(prof.Order[finStart:])
		}

		if arriving {
			virtualSeq++
			active = append(active, simQ{
				QueryState: QueryState{
					ID:        futureIDBase - virtualSeq,
					Remaining: arrivalCost,
					Weight:    arrivalWeight,
				},
				virtual: true,
			})
			nextArrival += interarrival
			if nextArrival > arrivalWindow || virtualSeq >= maxVirtualArrivals {
				nextArrival = math.Inf(1)
			}
		}
		admit()
	}

	// Recover stage durations from consecutive finish times.
	prev := 0.0
	for i, id := range prof.Order {
		prof.StageDur[i] = prof.Finish[id] - prev
		prev = prof.Finish[id]
	}
	return prof
}
