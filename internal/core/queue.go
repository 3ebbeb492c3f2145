package core

import "math"

// queuePass is the multi-query PI of §2.2–2.4 in virtual-time form, and the one
// finish computation behind every estimate. Under weighted fair sharing every
// runnable query's c_i/w_i falls at the common rate C/W, W the runnable weight
// at that instant. On a virtual clock V with dV/dt = C/W(t), a query admitted
// at V_a with remaining cost c and weight w therefore finishes when V reaches
// V_a + c/w, whatever is admitted or finishes in between: its finish tag is
// fixed at admission.
//
// §2.2, no admission queue (MPL 0, or no more queries than slots), is the
// degenerate case: everything is admitted at V = 0, the tags are the c_i/w_i
// the closed form sorts by, and popping them in order charges stage k its
// (c_k/w_k − c_{k−1}/w_{k−1})·W_k/C.
//
// §2.3, FIFO admission into the slots finishers free, is a min-heap on
// (tag, ID): each pop advances V to the tag, charges dt = (tag − V)·W/C of real
// time, frees a slot and admits the queue head at the new V. That is
// O((r+q)·log MPL), against the O((r+q)·MPL) of SimulateProfile's event
// stepping, which rescans the active set at every finish.
//
// §2.4, a predicted arrival every 1/λ seconds, is one more event on the same
// clock: between events V moves linearly, so an arrival due at real time t
// lands at V + (t − now)·C/W and is admitted there with tag V + c̄/w̄. As in
// SimulateProfile, the oracle the pass is held against, a virtual arrival
// starts running when it arrives — it does not wait in the admission queue —
// but it does occupy a slot until it finishes, so queued queries wait for it;
// an arrival due within arrivalTie of the next finish comes first; arrivals
// stop at the default window (the known work's drain time plus one gap) or
// after maxVirtualArrivals; and the pass ends once every known query has its
// finish, however many virtual ones are still running.
//
// Blocked queries (weight 0) hold their slot and never finish; when every slot
// is held by one, the rest of the queue never finishes either. Exact tag ties
// pop in ascending ID at one shared finish time. The zero value is ready to
// use and keeps its heap across calls; not safe for concurrent use.
type queuePass struct {
	heap []finishTag
	v    float64 // virtual clock
	w    float64 // runnable weight: Σ w over the heap
	wRef float64 // largest w since it was last summed afresh
	used int     // occupied slots, blocked holders and virtual arrivals included
	left int     // known queries still without a finish
}

// finishTag is one admitted runnable query waiting for the virtual clock.
type finishTag struct {
	tag float64 // V at admission + c/w
	w   float64
	id  int
	pos int // index into Running ++ Queued; -1 for a virtual arrival
}

func (a finishTag) before(b finishTag) bool {
	if a.tag != b.tag {
		return a.tag < b.tag
	}
	return a.id < b.id
}

// arrivalTie is how close, in seconds, the next finish may come before a
// predicted arrival and still be processed after it (SimulateProfile's rule).
const arrivalTie = 1e-12

// finishes writes the predicted remaining time of every query of in, in
// Running ++ Queued order, into fin (reallocated when too short) and returns
// it; +Inf marks a query that never finishes.
func (p *queuePass) finishes(in EstimateInput, fin []float64) []float64 {
	r, n := len(in.Running), len(in.Running)+len(in.Queued)
	if cap(fin) < n {
		fin = make([]float64, n)
	}
	fin = fin[:n]
	inf := math.Inf(1)
	C := sanitizeRate(in.RateC)
	if C <= 0 {
		for i := range fin {
			fin[i] = inf
		}
		return fin
	}
	p.heap, p.v, p.w, p.wRef, p.used, p.left = p.heap[:0], 0, 0, 0, 0, n
	for i, q := range in.Running {
		p.admit(i, q, fin)
	}
	// The arrival stream: the next one is due at real time arrival (+Inf once
	// there is none), one every gap seconds while inside the window.
	arrival, gap, window, arrived := inf, 0.0, 0.0, 0
	virtual, predicted := in.Arrivals.query()
	if predicted {
		known := 0.0
		for _, q := range in.Running {
			known += sanitize(q).Remaining
		}
		for _, q := range in.Queued {
			known += sanitize(q).Remaining
		}
		gap = 1 / in.Arrivals.Lambda
		arrival, window = gap, known/C+gap
	}
	now, next := 0.0, 0 // real clock; head of the admission queue
	for {
		for next < len(in.Queued) && (in.MPL <= 0 || p.used < in.MPL) {
			p.admit(r+next, in.Queued[next], fin)
			next++
		}
		if p.left == 0 || len(p.heap) == 0 {
			break
		}
		// tag <= V is a tie with the previous finisher, a zero-cost admission or
		// a finish an arrival came in front of: no time passes, and Inf − Inf
		// stays out of the arithmetic.
		top, dt := p.heap[0], 0.0
		if top.tag > p.v {
			dt = mulDiv(top.tag-p.v, p.w, C)
		}
		if now+dt > arrival-arrivalTie {
			if d := arrival - now; d > 0 {
				p.v += mulDiv(d, C, p.w)
				now = arrival
			}
			arrived++
			virtual.ID = futureIDBase - arrived
			p.admit(-1, virtual, fin)
			arrival += gap
			if arrival > window || arrived >= maxVirtualArrivals {
				arrival = inf
			}
			continue
		}
		p.pop()
		now += dt
		if top.tag > p.v {
			p.v = top.tag
		}
		if top.pos >= 0 {
			fin[top.pos] = now
			p.left--
		}
		p.used--
		p.w -= top.w
		// W is kept by add and subtract, so a heavy finisher leaves the light
		// ones behind it with the rounding of the heavy sum. Re-summing once W
		// has shrunk 1024-fold bounds the relative error near (r+q)·2⁻⁴³ and
		// costs a geometric series of passes over an ever lighter heap; it
		// also lands an emptied heap on W = 0 exactly.
		if p.w < p.wRef*(1.0/1024) {
			p.resum()
		}
	}
	for ; next < len(in.Queued); next++ {
		fin[r+next] = inf // every slot is held by a blocked query
	}
	return fin
}

// admit gives q a slot at the current virtual time: a finish tag when it is
// runnable, +Inf when it is blocked. pos is its position in Running ++ Queued,
// -1 for a virtual arrival, which is always runnable and gets no finish.
func (p *queuePass) admit(pos int, q QueryState, fin []float64) {
	q = sanitize(q)
	p.used++
	if q.Weight <= 0 {
		fin[pos] = math.Inf(1)
		p.left--
		return
	}
	p.w += q.Weight
	if p.w > p.wRef {
		p.wRef = p.w
	}
	p.push(finishTag{tag: p.v + q.Remaining/q.Weight, w: q.Weight, id: q.ID, pos: pos})
}

func (p *queuePass) resum() {
	w := 0.0
	for i := range p.heap {
		w += p.heap[i].w
	}
	p.w, p.wRef = w, w
}

func (p *queuePass) push(t finishTag) {
	h := append(p.heap, t)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !t.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = t
	p.heap = h
}

func (p *queuePass) pop() finishTag {
	h := p.heap
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	if n := len(h); n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].before(h[c]) {
				c++
			}
			if !h[c].before(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	p.heap = h
	return top
}

// mulDiv returns a·b/c for a in (0, +Inf] and positive finite b, c, without an
// overflow or underflow in between that the result itself does not have:
// (tag − V)·W/C at C = 1e-300 or c/w = 1e300 must not turn a finite finish
// into +Inf or a positive one into 0.
func mulDiv(a, b, c float64) float64 {
	if p := a * b; p > 1e-150 && p < 1e150 {
		return p / c
	}
	fa, ea := math.Frexp(a)
	fb, eb := math.Frexp(b)
	fc, ec := math.Frexp(c)
	return math.Ldexp(fa*fb/fc, ea+eb-ec)
}
