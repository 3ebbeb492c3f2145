package sched

import (
	"fmt"
	"testing"
)

// BenchmarkSharedScan measures tick latency for N same-table scans stepped
// solo versus folded onto one shared cursor. A fold group is one execute-phase
// work item (the scheduler steps its members in lockstep on one goroutine), so
// this benchmark is the coordination-overhead guardrail for the shared-cursor
// barrier: folded ticks must not allocate, and their latency must stay in the
// same band as the solo path. TestSharedScanSteadyStateAllocs pins the
// 0 allocs/op in the same framing.
func BenchmarkSharedScan(b *testing.B) {
	db := benchDB(b)
	for _, members := range []int{1, 2, 4, 8} {
		for _, fold := range []bool{false, true} {
			mode := "solo"
			if fold {
				mode = "fold"
			}
			b.Run(fmt.Sprintf("members%d/%s", members, mode), func(b *testing.B) {
				var srv *Server
				rebuild := func() {
					if srv != nil {
						srv.Close()
					}
					srv = New(Config{
						RateC:   benchPagesPerQuery * float64(members),
						Quantum: 1,
						Workers: 1,
						Fold:    fold,
					})
					for i := 0; i < members; i++ {
						r, err := db.Prepare("SELECT SUM(a) FROM big")
						if err != nil {
							b.Fatal(err)
						}
						r.CollectRows = false
						srv.Submit(srv.NewQuery(fmt.Sprintf("b%d", i), "", 0, r))
					}
				}
				// Same steady-state framing as BenchmarkParallelTick: queries
				// live 8 ticks (2048 pages at 256/tick each); rebuild every 6
				// ticks with the rebuild and one warm-up tick off the clock.
				rebuild()
				srv.Tick()
				ticksLeft := 5
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if ticksLeft == 0 {
						b.StopTimer()
						rebuild()
						srv.Tick()
						ticksLeft = 5
						b.StartTimer()
					}
					srv.Tick()
					ticksLeft--
				}
				b.StopTimer()
				srv.Close()
			})
		}
	}
}
