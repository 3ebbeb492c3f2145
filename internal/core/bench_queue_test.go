package core

import (
	"fmt"
	"testing"
)

// BenchmarkQueueAwareEstimate prices the §2.3 queue-aware pass both ways at
// the two shapes the serving tier sees: a loaded tier (MPL 64, 936 queued —
// the benchmark's backlog_submit depth) and a lightly queued one (MPL 8, 40
// queued). "oracle" is SimulateProfile's event stepping, O((r+q)·MPL) with a
// result map; "pass" is the finish-tag heap into a reused slice, as the
// production estimator runs it.
func BenchmarkQueueAwareEstimate(b *testing.B) {
	for _, shape := range []struct{ r, q int }{{64, 936}, {8, 40}} {
		states := benchStates(shape.r + shape.q)
		in := EstimateInput{Running: states[:shape.r], Queued: states[shape.r:], MPL: shape.r, RateC: 1000}
		name := fmt.Sprintf("r%d_q%d", shape.r, shape.q)
		b.Run(name+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prof := SimulateProfile(in.Running, in.RateC, SimOptions{MPL: in.MPL, Queued: in.Queued})
				if len(prof.Finish) != len(states) {
					b.Fatal("short profile")
				}
			}
		})
		b.Run(name+"/pass", func(b *testing.B) {
			b.ReportAllocs()
			var p queuePass
			var fin []float64
			for i := 0; i < b.N; i++ {
				fin = p.finishes(in, fin)
			}
			if len(fin) != len(states) {
				b.Fatal("short pass")
			}
		})
	}
}
