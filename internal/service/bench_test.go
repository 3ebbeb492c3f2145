package service

import (
	"fmt"
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
