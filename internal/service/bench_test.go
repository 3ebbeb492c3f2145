package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mqpi/internal/engine"
	"mqpi/internal/sched"
)

// benchWorkload loads a few tables and submits long-lived queries so the
// pollers always observe a non-trivial system: running queries past the MPL
// cap (so the admission queue is populated) with small RateC so nothing
// finishes during the benchmark window.
func benchWorkload(b *testing.B, tick time.Duration) *Manager {
	b.Helper()
	db := engine.Open()
	for i := 0; i < 4; i++ {
		loadTable(b, db, fmt.Sprintf("b%d", i), 64)
	}
	m := New(db, Config{
		Sched:     sched.Config{RateC: 0.01, Quantum: 0.25, MPL: 3},
		TickEvery: tick,
		TimeScale: 250,
	})
	b.Cleanup(m.Close)
	for i := 0; i < 6; i++ {
		if _, err := m.Submit(SubmitRequest{
			Label:    fmt.Sprintf("bench-%d", i),
			SQL:      fmt.Sprintf("SELECT SUM(a) FROM b%d", i%4),
			Priority: i % 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
	if tick < 0 {
		// Manual clock: advance once so speeds are observed, then hold the
		// epoch fixed.
		if err := m.Advance(0.5); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkConcurrentPoll measures the lock-free read path under parallel
// pollers. idle-owner holds the snapshot epoch fixed; ticking-owner
// republishes every millisecond, so pollers keep loading fresh snapshots
// while the owner runs its estimate passes — the realistic serving mix.
func BenchmarkConcurrentPoll(b *testing.B) {
	b.Run("progress/idle-owner", func(b *testing.B) {
		m := benchWorkload(b, -1)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := m.Progress(1); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("progress/ticking-owner", func(b *testing.B) {
		m := benchWorkload(b, time.Millisecond)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := m.Progress(1); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("overview/ticking-owner", func(b *testing.B) {
		m := benchWorkload(b, time.Millisecond)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := m.Overview(); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkOwnerWakeup prices what the owner pays to move the clock three
// quanta at depth 1000 (64 running, 936 queued, a manual clock so nothing
// else moves it). per-tick is three Advance(quantum) calls — tick, observe
// and publish three times; wakeup is one Advance(3·quantum) — three ticks,
// then one observe and one publish, as a ticker wake-up owing three quanta
// does. Their ratio is the layer saving behind clock_rate_ratio on the
// backlog_submit workload of `make benchmark`, reproducible in seconds.
func BenchmarkOwnerWakeup(b *testing.B) {
	const quantum, depth = 0.25, 1000
	// fill tops the system up to depth; queries finish as the clock moves.
	fill := func(b *testing.B, m *Manager) {
		l := m.Load()
		for i := l.Admitted + l.Queued; i < depth; i++ {
			if _, err := m.Submit(SubmitRequest{SQL: fmt.Sprintf("SELECT SUM(a) FROM w%d", i%8), Priority: i % 3}); err != nil {
				b.Fatal(err)
			}
		}
	}
	deep := func(b *testing.B) *Manager {
		db := engine.Open()
		for i := 0; i < 8; i++ {
			loadTable(b, db, fmt.Sprintf("w%d", i), 8*(i+1))
		}
		m := New(db, Config{
			Sched:     sched.Config{RateC: 200, Quantum: quantum, MPL: 64},
			TickEvery: -1,
		})
		b.Cleanup(m.Close)
		fill(b, m)
		return m
	}
	// Every iteration runs at full depth however long the benchmark goes on;
	// the refill is not timed.
	refill := func(b *testing.B, m *Manager) {
		if l := m.Load(); l.Admitted+l.Queued < depth {
			b.StopTimer()
			fill(b, m)
			b.StartTimer()
		}
	}
	b.Run("per-tick", func(b *testing.B) {
		m := deep(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refill(b, m)
			for k := 0; k < 3; k++ {
				if err := m.Advance(quantum); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("wakeup", func(b *testing.B) {
		m := deep(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refill(b, m)
			if err := m.Advance(3 * quantum); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOverviewBody prices one GET /queries reply, routed and encoded but
// not sent, with two live queries beside 10 and 1,000 terminated ones: the
// finished section is encoded once and copied after, so the two cost about
// the same.
func BenchmarkOverviewBody(b *testing.B) {
	for _, terminated := range []int{10, 1000} {
		b.Run(fmt.Sprint("terminated=", terminated), func(b *testing.B) {
			h := NewHandler(overviewFixture(b, terminated))
			req := httptest.NewRequest("GET", "/queries", nil)
			w := &discardWriter{header: http.Header{}}
			h.ServeHTTP(w, req)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, req)
			}
		})
	}
}
