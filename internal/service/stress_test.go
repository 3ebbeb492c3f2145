package service

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mqpi/internal/engine"
	"mqpi/internal/sched"
)

// TestReadPathStressRace pins the safety of the lock-free read path under
// -race (make ci runs this package under the detector): 32 reader goroutines
// hammer Progress, Overview, Events, Diagram, planners, and the metrics
// scrape while the wall-clock ticker advances virtual time and writer
// goroutines submit, block, unblock, re-prioritize, and abort queries —
// including scheduled future arrivals. Every overview a reader takes is
// fingerprinted by epoch: all pollers of one epoch must see one bundle. Every
// scrape is filed under the epoch it reports, with its depth gauges and
// lifecycle counters, and must agree with every overview of that epoch: a
// scrape shows one published state, never one state's gauges beside
// another's epoch.
func TestReadPathStressRace(t *testing.T) {
	db := engine.Open()
	for i := 0; i < 4; i++ {
		loadTable(t, db, fmt.Sprintf("s%d", i), 12)
	}
	m := New(db, Config{
		Sched:     sched.Config{RateC: 5, Quantum: 0.25, MPL: 3},
		TickEvery: time.Millisecond,
		TimeScale: 50,
	})
	defer m.Close()

	const (
		writers          = 2
		readers          = 32
		queriesPerWriter = 25
	)
	var lastID atomic.Int64
	stop := make(chan struct{})
	var bundles sync.Map         // epoch -> fingerprint of that epoch's estimates
	var scraped, viewed sync.Map // epoch -> figures a scrape / an overview showed
	record := func(seen *sync.Map, kind string, epoch uint64, f figures) bool {
		if prev, dup := seen.LoadOrStore(epoch, f); dup && prev != f {
			t.Errorf("epoch %d: two %ss show %v and %v", epoch, kind, prev, f)
			return false
		}
		return true
	}

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for k := 0; k < queriesPerWriter; k++ {
				v, err := m.Submit(SubmitRequest{
					Label:    fmt.Sprintf("w%d-%d", w, k),
					SQL:      fmt.Sprintf("SELECT SUM(a) FROM s%d", (w+k)%4),
					Priority: k % 3,
					Delay:    float64(k%3) * 0.05, // mix immediate and scheduled arrivals
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				lastID.Store(int64(v.ID))
				switch k % 5 {
				case 1:
					_ = m.Block(v.ID) // may race a finish: failures are fine
					_ = m.Unblock(v.ID)
				case 2:
					_ = m.Abort(v.ID)
				case 3:
					_ = m.SetPriority(v.ID, (k+1)%3)
				}
				time.Sleep(300 * time.Microsecond)
			}
		}(w)
	}

	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := int(lastID.Load())
				if id == 0 {
					id = 1
				}
				switch (i + r) % 6 {
				case 0:
					if _, err := m.Progress(id); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("progress: %v", err)
						return
					}
				case 1:
					ov, err := m.Overview()
					if err != nil {
						t.Errorf("overview: %v", err)
						return
					}
					fp := estimateFingerprint(ov)
					if prev, seen := bundles.LoadOrStore(ov.Epoch, fp); seen && prev != fp {
						t.Errorf("epoch %d served two bundles:\n%s\n%s", ov.Epoch, prev, fp)
						return
					}
					if !record(&viewed, "overview", ov.Epoch, overviewFigures(ov)) {
						return
					}
				case 2:
					m.Events(0)
				case 3:
					if _, err := m.Diagram(40); err != nil {
						t.Errorf("diagram: %v", err)
						return
					}
				case 4:
					epoch, f := scrapeFigures(m.Metrics().Text())
					if !record(&scraped, "scrape", epoch, f) {
						return
					}
				case 5:
					// Domain errors (e.g. fewer than two runnable queries)
					// are expected while the workload churns; only a closed
					// manager would be a bug here.
					if _, err := m.SpeedUpOthers(); errors.Is(err, ErrClosed) {
						t.Errorf("speedup-others: %v", err)
						return
					}
				}
				// Yield so 32 spinning pollers don't starve the writers and
				// ticker on small GOMAXPROCS (CI runs this under -race on a
				// single core).
				runtime.Gosched()
				if i%8 == 7 {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(r)
	}

	writerWG.Wait()
	time.Sleep(50 * time.Millisecond) // let readers overlap the tail of the workload
	close(stop)
	readerWG.Wait()

	ov, err := m.Overview()
	if err != nil {
		t.Fatal(err)
	}
	if ov.Now <= 0 {
		t.Error("ticker never advanced the virtual clock under load")
	}
	if m.metrics.pollDur.Count() == 0 {
		t.Error("read path never served a poll")
	}
	text := m.Metrics().Text()
	assertPrometheusText(t, text)

	shared := 0
	scraped.Range(func(epoch, f any) bool {
		if want, ok := viewed.Load(epoch); ok {
			shared++
			if f != want {
				t.Errorf("epoch %d: scrape shows %v, overview %v (running blocked queued scheduled submitted finished failed aborted)", epoch, f, want)
			}
		}
		return true
	})
	if shared == 0 {
		t.Error("no epoch was seen by both a scrape and an overview: nothing was compared")
	}
}

// figures are what sim invariant I8 holds /metrics to: the four depth gauges
// (running, blocked, queued, scheduled) and the lifecycle counters
// (submitted, finished, failed, aborted).
type figures [8]float64

var figureNames = [8]string{
	"mqpi_queries_running", "mqpi_queries_blocked", "mqpi_queries_queued", "mqpi_queries_scheduled",
	"mqpi_queries_submitted_total", "mqpi_queries_finished_total", "mqpi_queries_failed_total", "mqpi_queries_aborted_total",
}

// scrapeFigures reads the figures off a scrape, with the epoch it reports.
func scrapeFigures(text string) (uint64, figures) {
	v := samples(text)
	var f figures
	for i, name := range figureNames {
		f[i] = v[name]
	}
	return uint64(v["mqpi_snapshot_epoch"]), f
}

// overviewFigures derives the figures from an overview as I8 does: the
// terminated list is complete, so every submission is live or in it.
func overviewFigures(ov Overview) figures {
	var f figures
	for _, v := range ov.Running {
		if v.Status == "blocked" {
			f[1]++
		} else {
			f[0]++
		}
	}
	f[2], f[3] = float64(len(ov.Queued)), float64(len(ov.Scheduled))
	f[4] = float64(len(ov.Running) + len(ov.Queued) + len(ov.Scheduled) + len(ov.Finished))
	for _, v := range ov.Finished {
		switch v.Status {
		case "finished":
			f[5]++
		case "failed":
			f[6]++
		case "aborted":
			f[7]++
		}
	}
	return f
}

// estimateFingerprint renders every estimate an overview carries, bit for bit.
func estimateFingerprint(ov Overview) string {
	var b strings.Builder
	fmt.Fprintf(&b, "quiescent=%x", math.Float64bits(float64(ov.QuiescentETA)))
	for _, list := range [][]QueryView{ov.Running, ov.Queued} {
		for _, v := range list {
			fmt.Fprintf(&b, " %d:%x/%x/%x/%x", v.ID, math.Float64bits(float64(v.SingleETA)),
				math.Float64bits(float64(v.MultiETA)), math.Float64bits(float64(v.ETALow)), math.Float64bits(float64(v.ETAHigh)))
		}
	}
	return b.String()
}
