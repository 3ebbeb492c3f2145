package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"time"
)

// track is what the replay driver remembers about one query it submitted.
type track struct {
	op  queryOp
	obs []etaObs // every poll that carried a finite multi-query ETA
}

// etaObs is one prediction: at virtual time now the query was estimated to
// finish eta seconds later.
type etaObs struct{ now, eta float64 }

// soloSlack is how far a finished query's done_u may sit from the cost of the
// same SQL run alone: the runner charges identical work either way, so only
// float summation order separates the two.
const soloSlack = 1e-6

// replay drives the manual-clock workloads (exec_replay, scan_share): one
// driver advances virtual time to each arrival, submits it, and every
// few virtual seconds polls each query in the system. Nothing depends
// on wall time, so the outcome repeats exactly and ETA quality is scored on
// the very run whose speed is measured.
func (e *env) replay() {
	o := e.out
	c := e.newClient()
	every := replayPollGap
	if e.sch.Workload == "scan_share" {
		every = scanPollGap
	}

	tracks := map[int]*track{}
	var active []int // ids in the system, submission order
	var finished []view
	start := time.Now()

	now := 0.0 // the driver's schedule time; the server's clock is read from polls
	advanceTo := func(t float64) {
		if t > now {
			c.advance(t - now)
			now = t
		}
	}
	pollAll := func() {
		keep := active[:0]
		for _, id := range active {
			v, d, ok := c.poll(id, true)
			o.polls.add(d)
			switch {
			case !ok:
			case v.Status == "finished":
				if v.Fraction != 1 || v.Multi == nil || *v.Multi != 0 {
					c.unusable() // a finished query reports fraction 1 and ETA 0
				}
				finished = append(finished, v)
				o.virt = math.Max(o.virt, v.Now)
				continue
			case v.Status != "running" && v.Status != "queued":
				c.unusable() // nothing in a replay blocks, aborts or fails
				continue
			case v.Multi != nil:
				tr := tracks[id]
				tr.obs = append(tr.obs, etaObs{v.Now, *v.Multi})
			}
			keep = append(keep, id)
		}
		active = keep
	}

	next, nextPoll := 0, every
	horizon := 100 * (e.sch.Open[len(e.sch.Open)-1].At + every) // a stuck server ends the run, not hangs it
	for (next < len(e.sch.Open) || len(active) > 0) && now < horizon {
		if next < len(e.sch.Open) && e.sch.Open[next].At <= nextPoll {
			op := e.sch.Open[next]
			next++
			advanceTo(op.At)
			v, d, ok := c.submit(op.SQL(), "replay", time.Time{})
			o.writes.add(d)
			if ok {
				tracks[v.ID] = &track{op: op}
				active = append(active, v.ID)
			}
			continue
		}
		advanceTo(nextPoll)
		nextPoll += every
		pollAll()
	}
	o.wall = time.Since(start).Seconds()
	o.completed = len(finished)
	o.closedWall, o.closedOps = o.wall, o.completed
	if len(active) > 0 {
		o.failf("%d queries still in the system at virtual time %.0f", len(active), now)
	}

	// Score and check what finished.
	solo := map[string]float64{}
	h := sha256.New()
	var errSum, errTotalSum float64
	for _, v := range finished {
		o.doneU += v.Done
		fmt.Fprintf(h, "%d %s %s\n", v.ID,
			strconv.FormatFloat(v.FinishTime, 'g', -1, 64), strconv.FormatFloat(v.Done, 'g', -1, 64))
		tr := tracks[v.ID]
		sqlText := tr.op.SQL()
		want, ok := solo[sqlText]
		if !ok {
			var err error
			if _, _, want, err = e.st.ds.DB.Query(sqlText); err != nil {
				o.failf("solo run of %q: %v", sqlText, err)
			}
			solo[sqlText] = want
		}
		if math.Abs(v.Done-want) > soloSlack*want {
			o.failf("query %d finished with done_u %.6f, the same SQL alone costs %.6f", v.ID, v.Done, want)
		}
		for _, ob := range tr.obs {
			miss := math.Abs(ob.now + ob.eta - v.FinishTime)
			if remaining := v.FinishTime - ob.now; remaining > 0 {
				errSum += miss / remaining
				errTotalSum += miss / (v.FinishTime - v.SubmitTime)
				o.etaSamples++
			}
		}
	}
	if o.etaSamples > 0 {
		o.etaErr = errSum / float64(o.etaSamples)
		o.etaErrTotal = errTotalSum / float64(o.etaSamples)
	}
	o.fingerprint = hex.EncodeToString(h.Sum(nil))
}
