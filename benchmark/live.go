package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// bracket reads the virtual clock and the executed work at one edge of the
// measured phase. GET /queries at depth is a megabyte; it is read outside the
// timed interval.
func (c *client) bracket() (now, doneU float64) {
	o, _, _ := c.overview()
	return o.Now, o.doneU()
}

// submitAndPoll is backlog_submit's unit of work: one submit, one
// read-your-write poll of the new query, then polls of a few older ones.
func (c *client) submitAndPoll(op queryOp, side [sidePolls]int, inSystem []int, due time.Time,
	writes, polls *lat) bool {
	v, d, ok := c.submit(op.SQL(), "load", due)
	if writes != nil {
		writes.add(d)
	}
	if !ok {
		return false
	}
	pv, d, ok := c.poll(v.ID, true)
	polls.add(d)
	if ok && pv.Status != "queued" && pv.Status != "running" {
		c.unusable() // the write just acknowledged must be readable as in the system
	}
	for _, i := range side {
		_, d, _ := c.poll(inSystem[i], false)
		polls.add(d)
	}
	return true
}

// backlogSubmit measures the write path at depth: phase 1 offers submits at a
// fixed open-loop rate and times each from its due instant; phase 2 lets two
// drivers submit back to back to find what the server sustains.
func (e *env) backlogSubmit(inSystem []int) {
	o := e.out
	c1 := e.newClient()
	now0, done0 := c1.bracket()
	start := time.Now()

	var polls1 lat
	o.lateness = openLoop(c1.clk, start, arrivalOffsets(e.sch.Open), nil, func(i int, due time.Time) {
		c1.submitAndPoll(e.sch.Open[i], e.sch.SidePolls[i], inSystem, due, &o.writes, &polls1)
	})
	o.polls = polls1

	// Phase 2: closed loop. The drivers claim ops by atomic index and draw no
	// randomness, so the plan is the same however they interleave.
	var next atomic.Int64
	var accepted atomic.Int64
	var wg sync.WaitGroup
	drivers := [maxInFlight]*client{e.newClient(), e.newClient()}
	perDriver := make([]lat, len(drivers))
	closedStart := time.Now()
	for d, c := range drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(e.sch.Closed) {
					return
				}
				side := e.sch.SidePolls[len(e.sch.Open)+i]
				if c.submitAndPoll(e.sch.Closed[i], side, inSystem, time.Time{}, nil, &perDriver[d]) {
					accepted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	o.closedWall = time.Since(closedStart).Seconds()
	o.wall = time.Since(start).Seconds()
	for _, l := range perDriver {
		o.polls = append(o.polls, l...)
	}
	o.closedOps = int(accepted.Load())

	now1, done1 := c1.bracket()
	o.virt, o.doneU = now1-now0, done1-done0
}

func arrivalOffsets(ops []queryOp) []float64 {
	at := make([]float64, len(ops))
	for i, op := range ops {
		at[i] = op.At
	}
	return at
}

// pollFanout measures the read path at depth with history: driver 1 polls
// flat out, mostly in-system queries, some terminated ones, now and then the
// whole overview; driver 2 keeps mutating beside it at a fixed rate, so
// epochs advance and every estimate cache entry is short-lived.
func (e *env) pollFanout(inSystem, terminated []int) {
	o := e.out
	c1, c2 := e.newClient(), e.newClient()
	now0, done0 := c1.bracket()
	at := make([]float64, len(e.sch.Writes))
	for i, w := range e.sch.Writes {
		at[i] = w.At
	}
	// The flood's samples and spans get their room up front, so no slice
	// growth is timed as part of it.
	o.polls = make(lat, 0, len(e.sch.Polls))
	if e.trace {
		c1.spans = make([]span, 0, 2*len(e.sch.Polls)+8)
	}
	start := time.Now()

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // driver 2: open loop until driver 1 is through
		defer wg.Done()
		var mine []int // its own submits, oldest first
		o.lateness = openLoop(c2.clk, start, at, done.Load, func(i int, due time.Time) {
			w := e.sch.Writes[i]
			var d time.Duration
			switch {
			case w.Kind == writePriority:
				d, _ = c2.priority(inSystem[w.Target], w.Prio, due)
			case w.Kind == writeAbort && len(mine) > 0:
				d, _ = c2.abort(mine[0], due)
				mine = mine[1:]
			default:
				var v view
				var ok bool
				if v, d, ok = c2.submit(w.Q.SQL(), "trickle", due); ok {
					mine = append(mine, v.ID)
				}
			}
			o.writes.add(d)
		})
	}()

	for i, p := range e.sch.Polls { // driver 1: closed loop
		if (i+1)%overviewEvery == 0 {
			_, d, _ := c1.overview()
			o.overviews.add(d)
			continue
		}
		id := 0
		if p >= 0 {
			id = inSystem[p]
		} else {
			id = terminated[-p-1]
		}
		// One poll in sixteen is decoded and checked; the rest are checked by
		// status, so the flood measures the server's encoder, not the
		// driver's decoder.
		v, d, ok := c1.poll(id, i%16 == 0)
		o.polls.add(d)
		if ok && i%16 == 0 && p < 0 && (v.Status != "aborted" || v.Multi == nil || *v.Multi != 0) {
			c1.unusable() // a terminated query reports its state and an ETA of zero
		}
	}
	o.closedWall = time.Since(start).Seconds()
	o.closedOps = len(e.sch.Polls)
	done.Store(true)
	wg.Wait()
	o.wall = o.closedWall

	now1, done1 := c1.bracket()
	o.virt, o.doneU = now1-now0, done1-done0
}
