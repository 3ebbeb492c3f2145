package sched

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mqpi/internal/engine"
	"mqpi/internal/engine/types"
)

// BenchmarkParallelTick measures tick latency across MPL (concurrent
// queries) and execute-phase worker counts; `make bench` runs it, and
// TestTickSteadyStateAllocs pins its 0 allocs/op. RateC is scaled with MPL so
// every query steps ~256 pages per tick regardless of MPL — the benchmark
// then isolates how the fixed per-tick execution work scales with workers,
// instead of shrinking each query's share as MPL grows.

const (
	benchTickPages     = 2048 // heap pages in the shared table
	benchPagesPerQuery = 256  // pages each query consumes per tick
)

var benchTickDB struct {
	once sync.Once
	db   *engine.DB
}

func benchDB(tb testing.TB) *engine.DB {
	benchTickDB.once.Do(func() {
		db := engine.Open()
		if _, err := db.Exec("CREATE TABLE big (a BIGINT)"); err != nil {
			tb.Fatal(err)
		}
		cat := db.Catalog()
		for i := 0; i < benchTickPages*64; i++ {
			if err := cat.Insert("big", types.Row{types.NewInt(int64(i % 9973))}); err != nil {
				tb.Fatal(err)
			}
		}
		if err := db.Analyze(); err != nil {
			tb.Fatal(err)
		}
		benchTickDB.db = db
	})
	return benchTickDB.db
}

func benchWorkerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	return counts
}

func BenchmarkParallelTick(b *testing.B) {
	db := benchDB(b)
	for _, mpl := range []int{1, 4, 16} {
		for _, workers := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("mpl%d/workers%d", mpl, workers), func(b *testing.B) {
				var srv *Server
				rebuild := func() {
					if srv != nil {
						srv.Close()
					}
					srv = New(Config{
						RateC:   benchPagesPerQuery * float64(mpl),
						Quantum: 1,
						Workers: workers,
					})
					for i := 0; i < mpl; i++ {
						r, err := db.Prepare("SELECT SUM(a) FROM big")
						if err != nil {
							b.Fatal(err)
						}
						r.CollectRows = false
						srv.Submit(srv.NewQuery(fmt.Sprintf("b%d", i), "", 0, r))
					}
				}
				// Each query lives 8 ticks (2048 pages at 256/tick). Rebuild
				// every 6 timed ticks, with the rebuild and one warm-up tick
				// off the clock, so the timed region is pure steady state —
				// no query completions, no scratch growth — and allocs/op
				// reports the steady-state figure the alloc tests pin.
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
