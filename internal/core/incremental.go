package core

import "math"

// This file is the incremental stage model: a maintained sorted-by-c/w stage
// structure that patches per scheduling event instead of re-sorting. It
// computes the paper's closed form exactly as written (suffix weights summed
// from the last stage back), and the core tests hold it bit for bit against
// that formula run from scratch (closedFormProfile) in randomized
// event-sequence, Sync and edge differentials. No production path reads it:
// ComputeProfile is the finish-tag pass, which agrees with both to rounding.
// It stays only because the benchmark still times it.
//
// The structure is a treap (an order-statistic tree keyed by the stage
// model's (c_i/w_i, ID) sort key) over a flat node slab, augmented with
// subtree count and suffix-weight/suffix-cost sums:
//
//	event                      operation             cost
//	arrival                    insert                O(log n)
//	finish / abort             delete                O(log n)
//	priority change            delete + insert       O(log n)
//	block / unblock            delete / insert       O(log n)
//	cost refinement            delete + insert       O(log n)
//	full-state reconcile       Sync                  O(n + changed·log n)
//	point estimate             FinishOf              O(log n)
//	full profile               ProfileInto           O(n)
//
// Heap priorities are splitmix64 of the query ID, so the tree shape is a
// deterministic function of the key set — no RNG state, and identical trees
// on every run and at every worker count.

// IncrementalProfile maintains the §2.2 stage order of a changing query mix.
// Queries with non-positive (sanitized) weight are held in a blocked side set
// rather than the tree, mirroring ComputeProfile's +Inf treatment. IDs are
// assumed unique — the structure is keyed by query identity, which
// ComputeProfile's pure-slice input has no notion of; duplicate IDs collapse
// to the latest Upsert. Not safe for concurrent use.
type IncrementalProfile struct {
	nodes []incNode
	free  int32 // head of the released-node free list, threaded through right
	root  int32
	byID  map[int]incEntry
	gen   uint64 // Sync liveness generation

	// Reused scratch: traversal stack, in-order node sequence, suffix weight
	// sums, and the stale-ID list of Sync's sweep.
	stack   []int32
	order   []int32
	suffixW []float64
	stale   []int
}

// incEntry locates one tracked query: the slab index of its tree node, or -1
// when the query is blocked (sanitized weight <= 0). gen is the Sync liveness
// stamp for blocked entries; runnable entries are stamped on the node itself
// so an unchanged runnable query costs no map write per Sync.
type incEntry struct {
	node int32
	gen  uint64
}

type incNode struct {
	left, right int32
	id          int
	ratio       float64 // sanitized Remaining/Weight — the sort key
	c, w        float64 // sanitized Remaining and Weight
	fold        int     // shared-scan group tag (0 = solo); not part of the key
	prio        uint64  // deterministic heap priority: splitmix64(id)
	gen         uint64  // Sync liveness stamp
	cnt         int32   // subtree size
	sumW, sumC  float64 // subtree aggregates, for FinishOf's closed form
}

// NewIncrementalProfile returns an empty structure.
func NewIncrementalProfile() *IncrementalProfile {
	return &IncrementalProfile{free: -1, root: -1, byID: make(map[int]incEntry)}
}

// splitmix64 is the standard finalizer-style mixer; one application of it to
// the query ID gives the treap its heap priority.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Len returns the number of tracked queries, blocked ones included.
func (p *IncrementalProfile) Len() int { return len(p.byID) }

// RunnableLen returns the number of queries in the stage order (weight > 0).
func (p *IncrementalProfile) RunnableLen() int {
	if p.root < 0 {
		return 0
	}
	return int(p.nodes[p.root].cnt)
}

func (p *IncrementalProfile) alloc(id int, ratio, c, w float64, fold int) int32 {
	var idx int32
	if p.free >= 0 {
		idx = p.free
		p.free = p.nodes[idx].right
	} else {
		p.nodes = append(p.nodes, incNode{})
		idx = int32(len(p.nodes) - 1)
	}
	p.nodes[idx] = incNode{
		left: -1, right: -1,
		id: id, ratio: ratio, c: c, w: w, fold: fold,
		prio: splitmix64(uint64(int64(id))), gen: p.gen,
		cnt: 1, sumW: w, sumC: c,
	}
	return idx
}

func (p *IncrementalProfile) release(idx int32) {
	p.nodes[idx] = incNode{right: p.free}
	p.free = idx
}

func (p *IncrementalProfile) pull(t int32) {
	n := &p.nodes[t]
	n.cnt, n.sumW, n.sumC = 1, n.w, n.c
	if n.left >= 0 {
		l := &p.nodes[n.left]
		n.cnt += l.cnt
		n.sumW += l.sumW
		n.sumC += l.sumC
	}
	if n.right >= 0 {
		r := &p.nodes[n.right]
		n.cnt += r.cnt
		n.sumW += r.sumW
		n.sumC += r.sumC
	}
}

// split partitions subtree t into keys < (ratio, id) and keys > (ratio, id).
// The key is never present in t (callers insert fresh keys only).
func (p *IncrementalProfile) split(t int32, ratio float64, id int) (int32, int32) {
	if t < 0 {
		return -1, -1
	}
	n := &p.nodes[t]
	if n.ratio < ratio || (n.ratio == ratio && n.id < id) {
		a, b := p.split(n.right, ratio, id)
		n.right = a
		p.pull(t)
		return t, b
	}
	a, b := p.split(n.left, ratio, id)
	n.left = b
	p.pull(t)
	return a, t
}

// merge joins two treaps where every key of l precedes every key of r.
func (p *IncrementalProfile) merge(l, r int32) int32 {
	if l < 0 {
		return r
	}
	if r < 0 {
		return l
	}
	if p.nodes[l].prio >= p.nodes[r].prio {
		p.nodes[l].right = p.merge(p.nodes[l].right, r)
		p.pull(l)
		return l
	}
	p.nodes[r].left = p.merge(l, p.nodes[r].left)
	p.pull(r)
	return r
}

func (p *IncrementalProfile) insertNode(idx int32) {
	n := p.nodes[idx]
	l, r := p.split(p.root, n.ratio, n.id)
	p.root = p.merge(p.merge(l, idx), r)
}

// deleteKey removes the node with exactly the given key from subtree t and
// releases it to the free list. The key is present (callers look it up first).
func (p *IncrementalProfile) deleteKey(t int32, ratio float64, id int) int32 {
	if t < 0 {
		return -1
	}
	n := &p.nodes[t]
	if n.id == id && n.ratio == ratio {
		res := p.merge(n.left, n.right)
		p.release(t)
		return res
	}
	if ratio < n.ratio || (ratio == n.ratio && id < n.id) {
		n.left = p.deleteKey(n.left, ratio, id)
	} else {
		n.right = p.deleteKey(n.right, ratio, id)
	}
	p.pull(t)
	return t
}

// Upsert applies one event for query q — arrival, priority change (new
// weight), block/unblock (weight to/from 0), or cost refinement (new
// remaining) — re-keying its node in O(log n). Inputs pass through the same
// Sanitize as ComputeProfile's. It reports whether the stage order changed.
func (p *IncrementalProfile) Upsert(q QueryState) bool {
	if p.byID == nil {
		p.byID = make(map[int]incEntry)
		p.free, p.root = -1, -1
	}
	q = Sanitize(q)
	e, ok := p.byID[q.ID]
	if q.Weight <= 0 {
		if ok && e.node >= 0 {
			n := p.nodes[e.node]
			p.root = p.deleteKey(p.root, n.ratio, n.id)
		}
		changed := !ok || e.node >= 0
		p.byID[q.ID] = incEntry{node: -1, gen: p.gen}
		return changed
	}
	ratio := q.Remaining / q.Weight
	if ok && e.node >= 0 {
		n := p.nodes[e.node]
		if n.ratio == ratio && n.w == q.Weight && n.c == q.Remaining {
			p.nodes[e.node].gen = p.gen
			if n.fold != q.Fold {
				// Attach/detach with unchanged key (e.g. a fresh pair folding
				// before either moved): the node stays put — fold is not part
				// of the sort key — but the profile's Shared inventory changes.
				p.nodes[e.node].fold = q.Fold
				return true
			}
			return false
		}
		p.root = p.deleteKey(p.root, n.ratio, n.id)
	}
	idx := p.alloc(q.ID, ratio, q.Remaining, q.Weight, q.Fold)
	p.insertNode(idx)
	p.byID[q.ID] = incEntry{node: idx}
	return true
}

// Remove drops query id (finish or abort) in O(log n). It reports whether the
// query was tracked.
func (p *IncrementalProfile) Remove(id int) bool {
	e, ok := p.byID[id]
	if !ok {
		return false
	}
	if e.node >= 0 {
		n := p.nodes[e.node]
		p.root = p.deleteKey(p.root, n.ratio, n.id)
	}
	delete(p.byID, id)
	return true
}

// Sync reconciles the structure against a full state slice: O(n) map traffic
// plus O(log n) tree work per entry that actually changed. Entries absent
// from states are swept (the sweep runs only when membership could have
// shrunk). It returns the number of inserted, removed, or re-keyed entries.
func (p *IncrementalProfile) Sync(states []QueryState) int {
	if p.byID == nil {
		p.byID = make(map[int]incEntry)
		p.free, p.root = -1, -1
	}
	p.gen++
	changed, inserted := 0, 0
	for _, q := range states {
		_, existed := p.byID[q.ID]
		if p.Upsert(q) {
			changed++
		}
		if !existed {
			inserted++
		}
	}
	if inserted == 0 && len(states) == len(p.byID) {
		// Same membership as last time and nothing new: no sweep needed.
		return changed
	}
	p.stale = p.stale[:0]
	for id, e := range p.byID {
		g := e.gen
		if e.node >= 0 {
			g = p.nodes[e.node].gen
		}
		if g != p.gen {
			p.stale = append(p.stale, id)
		}
	}
	for _, id := range p.stale {
		p.Remove(id)
		changed++
	}
	return changed
}

// ProfileInto materializes the stage model into out, reusing its slices and
// map. The result is bit-identical to the paper's closed form over the same
// states and C, computed from scratch: the in-order traversal yields exactly the (ratio, ID) order the sort
// produces, ratios are the same single division, and the suffix-weight and
// stage-duration passes run the same float operations in the same order.
func (p *IncrementalProfile) ProfileInto(C float64, out *Profile) {
	if out.Finish == nil {
		out.Finish = make(map[int]float64, len(p.byID))
	} else {
		clear(out.Finish)
	}
	out.Order = out.Order[:0]
	out.StageDur = out.StageDur[:0]
	out.StageW = out.StageW[:0]
	out.Shared = nil
	inf := math.Inf(1)
	for id, e := range p.byID {
		if e.node < 0 {
			out.Finish[id] = inf
		}
	}
	n := p.RunnableLen()
	if n == 0 {
		return
	}

	// In-order traversal of the treap == ascending (ratio, ID).
	order := p.order[:0]
	stack := p.stack[:0]
	t := p.root
	for t >= 0 || len(stack) > 0 {
		for t >= 0 {
			stack = append(stack, t)
			t = p.nodes[t].left
		}
		t = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, t)
		t = p.nodes[t].right
	}
	p.order, p.stack = order, stack

	C = sanitizeRate(C)
	if C <= 0 {
		for _, idx := range order {
			out.Finish[p.nodes[idx].id] = inf
		}
		return
	}
	if cap(p.suffixW) < n+1 {
		p.suffixW = make([]float64, n+1)
	}
	suffixW := p.suffixW[:n+1]
	suffixW[n] = 0
	for i := n - 1; i >= 0; i-- {
		suffixW[i] = suffixW[i+1] + p.nodes[order[i]].w
	}
	prevRatio := 0.0
	elapsed := 0.0
	for k, idx := range order {
		nd := &p.nodes[idx]
		t := (nd.ratio - prevRatio) * suffixW[k] / C
		if math.IsNaN(t) || t < 0 {
			t = 0 // floating-point jitter, or Inf-Inf from degenerate inputs
		}
		elapsed += t
		out.StageDur = append(out.StageDur, t)
		out.StageW = append(out.StageW, suffixW[k])
		out.Order = append(out.Order, nd.id)
		out.Finish[nd.id] = elapsed
		prevRatio = nd.ratio
		if nd.fold != 0 {
			out.Shared = appendFoldStage(out.Shared, nd.fold, nd.id)
		}
	}
	sortFoldStages(out.Shared)
}

// Profile is ProfileInto into a fresh Profile.
func (p *IncrementalProfile) Profile(C float64) Profile {
	var out Profile
	p.ProfileInto(C, &out)
	return out
}

// FinishOf answers a single query's predicted remaining time in O(log n)
// without materializing the profile, from the closed form of the staged sum:
//
//	r_i = (Σ_{j≤i} c_j + (c_i/w_i)·Σ_{j>i} w_j) / C
//
// (Abel summation of the closed form's stage durations). The reassociated
// additions agree with ProfileInto to float rounding, not bit-for-bit — this
// is the cheap point query for scheduling decisions, while the bit-pinned
// read path goes through ProfileInto. Returns (+Inf, true) for blocked
// queries and (0, false) for untracked IDs.
func (p *IncrementalProfile) FinishOf(id int, C float64) (float64, bool) {
	e, ok := p.byID[id]
	if !ok {
		return 0, false
	}
	C = sanitizeRate(C)
	if e.node < 0 || C <= 0 {
		return math.Inf(1), true
	}
	target := p.nodes[e.node]
	if math.IsInf(target.ratio, 1) {
		// Its stage duration is infinite in the staged sum too.
		return math.Inf(1), true
	}
	prefixC, prefixW := 0.0, 0.0
	t := p.root
	for t >= 0 {
		n := &p.nodes[t]
		if n.id == target.id && n.ratio == target.ratio {
			if n.left >= 0 {
				prefixC += p.nodes[n.left].sumC
				prefixW += p.nodes[n.left].sumW
			}
			prefixC += n.c
			prefixW += n.w
			break
		}
		if target.ratio < n.ratio || (target.ratio == n.ratio && target.id < n.id) {
			t = n.left
		} else {
			if n.left >= 0 {
				prefixC += p.nodes[n.left].sumC
				prefixW += p.nodes[n.left].sumW
			}
			prefixC += n.c
			prefixW += n.w
			t = n.right
		}
	}
	suffW := p.nodes[p.root].sumW - prefixW
	if suffW < 0 {
		suffW = 0 // float cancellation in the subtraction
	}
	r := (prefixC + target.ratio*suffW) / C
	if math.IsNaN(r) || r < 0 {
		r = 0
	}
	return r, true
}
