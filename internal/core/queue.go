package core

import "math"

// queuePass is the §2.3 queue-aware PI for a system with no predicted
// arrivals, in virtual-time form. Under weighted fair sharing every runnable
// query's c_i/w_i falls at the common rate C/W, W the runnable weight at that
// instant. On a virtual clock V with dV/dt = C/W(t), a query admitted at V_a
// with remaining cost c and weight w therefore finishes when V reaches
// V_a + c/w, whatever is admitted or finishes in between: its finish tag is
// fixed at admission. FIFO admission into the slots finishers free is then a
// min-heap on (tag, ID): each pop advances V to the tag, charges
// dt = (tag − V)·W/C of real time, frees a slot and admits the queue head at
// the new V. That is O((r+q)·log MPL), against the O((r+q)·MPL) of
// SimulateProfile's event stepping, which rescans the active set at every
// finish — and which stays as the oracle, and as the only implementation of
// the §2.4 arrival model (a virtual arrival enters on the real clock, not at a
// finish, so it has no tag to wait for).
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
	used int     // occupied slots, blocked holders included
}

// finishTag is one admitted runnable query waiting for the virtual clock.
type finishTag struct {
	tag float64 // V at admission + c/w
	w   float64
	id  int
	pos int // index into Running ++ Queued
}

func (a finishTag) before(b finishTag) bool {
	if a.tag != b.tag {
		return a.tag < b.tag
	}
	return a.id < b.id
}

// finishes writes the predicted remaining time of every query of in, in
// Running ++ Queued order, into fin (reallocated when too short) and returns
// it; +Inf marks a query that never finishes. in.Arrivals is not consulted.
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
	p.heap, p.v, p.w, p.wRef, p.used = p.heap[:0], 0, 0, 0, 0
	for i, q := range in.Running {
		p.admit(i, q, fin)
	}
	now, next := 0.0, 0 // real clock; head of the admission queue
	for {
		for next < len(in.Queued) && (in.MPL <= 0 || p.used < in.MPL) {
			p.admit(r+next, in.Queued[next], fin)
			next++
		}
		if len(p.heap) == 0 {
			break
		}
		top := p.pop()
		// tag == V is a tie with the previous finisher or a zero-cost
		// admission: no time passes, and Inf − Inf stays out of the arithmetic.
		if top.tag != p.v {
			now += mulDiv(top.tag-p.v, p.w, C)
			p.v = top.tag
		}
		fin[top.pos] = now
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

// admit gives the query at position pos a slot at the current virtual time: a
// finish tag when it is runnable, +Inf when it is blocked.
func (p *queuePass) admit(pos int, q QueryState, fin []float64) {
	q = sanitize(q)
	p.used++
	if q.Weight <= 0 {
		fin[pos] = math.Inf(1)
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
