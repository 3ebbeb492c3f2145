package core

import (
	"fmt"
	"testing"
)

// BenchmarkQueueAwareEstimate prices the finish-tag pass, the one finish
// computation behind every estimate, against the reference implementations it
// replaced, at the shapes the serving tier sees.
//
// With a queue — a loaded tier (MPL 64, 936 queued: the benchmark's
// backlog_submit depth), the same with an arrival model offering a quarter of
// the rate (about 250 virtual arrivals inside the window), and a lightly queued
// tier (MPL 8, 40 queued) — "oracle" is SimulateProfile's event stepping,
// O((r+q+a)·MPL) with a result map, and "pass" is the heap into a reused
// slice, as the production estimator runs it.
//
// Without one (64 and 1000 runners, all admitted) every iteration first moves
// the mix as one scheduler tick does — under fair sharing every runner's c/w
// falls by the same amount, so every key changes and no two swap — and then
// "pass" runs from scratch, "closedform" is ComputeProfile's sort, and "treap"
// is the incremental stage structure patched to the new keys (Sync) and
// materialized (ProfileInto).
func BenchmarkQueueAwareEstimate(b *testing.B) {
	pass := func(in EstimateInput, tick func()) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var p queuePass
			var fin []float64
			for i := 0; i < b.N; i++ {
				tick()
				fin = p.finishes(in, fin)
			}
			if len(fin) != len(in.Running)+len(in.Queued) {
				b.Fatal("short pass")
			}
		}
	}
	quarterLoad := &ArrivalModel{Lambda: 0.05, AvgCost: 5000, AvgWeight: 1}
	for _, shape := range []struct {
		r, q     int
		arrivals *ArrivalModel
	}{{64, 936, nil}, {64, 936, quarterLoad}, {8, 40, nil}} {
		states := benchStates(shape.r + shape.q)
		in := EstimateInput{Running: states[:shape.r], Queued: states[shape.r:], MPL: shape.r, RateC: 1000, Arrivals: shape.arrivals}
		name := fmt.Sprintf("r%d_q%d", shape.r, shape.q)
		if in.Arrivals != nil {
			name += "_arrivals"
		}
		b.Run(name+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prof := SimulateProfile(in.Running, in.RateC, SimOptions{MPL: in.MPL, Queued: in.Queued, Arrivals: in.Arrivals})
				if len(prof.Finish) != len(states) {
					b.Fatal("short profile")
				}
			}
		})
		b.Run(name+"/pass", pass(in, func() {}))
	}

	for _, r := range []int{64, 1000} {
		states, fresh := benchStates(r), benchStates(r)
		in := EstimateInput{Running: states, MPL: r, RateC: 1000}
		// One tick: 0.05 s of fair sharing takes the same 0.05·C/W off every
		// c/w; a query that would finish starts over, standing in for the
		// arrival that takes its slot.
		tick := func() {
			W := 0.0
			for _, q := range states {
				W += q.Weight
			}
			dv := 0.05 * in.RateC / W
			for i := range states {
				if states[i].Remaining -= dv * states[i].Weight; states[i].Remaining <= 0 {
					states[i].Remaining = fresh[i].Remaining
				}
			}
		}
		name := fmt.Sprintf("r%d_q0", r)
		b.Run(name+"/pass", pass(in, tick))
		b.Run(name+"/closedform", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tick()
				if prof := ComputeProfile(states, in.RateC); len(prof.Finish) != r {
					b.Fatal("short profile")
				}
			}
		})
		b.Run(name+"/treap", func(b *testing.B) {
			b.ReportAllocs()
			ip := NewIncrementalProfile()
			var out Profile
			for i := 0; i < b.N; i++ {
				tick()
				ip.Sync(states)
				ip.ProfileInto(in.RateC, &out)
			}
			if len(out.Finish) != r {
				b.Fatal("short profile")
			}
		})
	}
}
