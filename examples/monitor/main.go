// Monitor: a live multi-query progress dashboard. Eight queries of mixed
// sizes run concurrently while new ones arrive; every ten virtual seconds
// the dashboard prints each query's progress bar and the multi-query PI's
// predicted finish time (queue- and future-aware).
//
//	go run ./examples/monitor
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"mqpi/internal/core"
	"mqpi/internal/sched"
	"mqpi/internal/workload"
)

func main() {
	ds, err := workload.BuildDataset(workload.DataConfig{LineitemRows: 30000, Seed: 33})
	if err != nil {
		log.Fatal(err)
	}
	zipf, err := workload.NewZipf(1.4, 20)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	srv := sched.New(sched.Config{RateC: 60, Quantum: 0.5, MPL: 6})

	nextIdx := 1
	submit := func() {
		n := zipf.Sample(rng)
		if err := ds.CreatePartTable(nextIdx, n); err != nil {
			log.Fatal(err)
		}
		runner, err := ds.DB.Prepare(workload.QuerySQL(nextIdx))
		if err != nil {
			log.Fatal(err)
		}
		runner.CollectRows = false
		srv.Submit(srv.NewQuery(fmt.Sprintf("Q%d(N=%d)", nextIdx, n), "", 0, runner))
		nextIdx++
	}
	for i := 0; i < 8; i++ {
		submit()
	}

	// Poisson arrivals for the first 60 virtual seconds.
	poisson := workload.Poisson{Lambda: 0.05}
	nextArrival := poisson.NextInterarrival(rng)

	for srv.Busy() {
		if srv.Now() >= nextArrival && srv.Now() < 60 {
			submit()
			nextArrival += poisson.NextInterarrival(rng)
		}
		if int(srv.Now())%10 == 0 && srv.Now() == float64(int(srv.Now())) {
			render(srv)
		}
		srv.Tick()
	}
	fmt.Printf("\nall queries finished at t=%.0fs\n", srv.Now())
}

func render(srv *sched.Server) {
	fmt.Printf("\n== t = %3.0fs  (running %d, queued %d) ==\n",
		srv.Now(), len(srv.Running()), len(srv.Queued()))
	est, err := core.NewEstimator(core.EstimatorStage)
	if err != nil {
		log.Fatal(err)
	}
	finish := est.Estimates(core.EstimateInput{
		Running: srv.StateRunning(), Queued: srv.StateQueued(), MPL: srv.MPL(), RateC: srv.RateC(),
	}, core.EnsembleState{}).PerQuery
	// finish is in the input's order: the running set, then the queue.
	for i, q := range srv.Running() {
		bar := progressBar(q.Runner.Progress(), 24)
		eta := finish[i].MultiQuery
		fmt.Printf("  %-10s %s %5.1f%%  eta t=%5.0fs\n",
			q.Label, bar, 100*q.Runner.Progress(), srv.Now()+eta)
	}
	for i, q := range srv.Queued() {
		eta := finish[len(srv.Running())+i].MultiQuery
		fmt.Printf("  %-10s [ queued ]              eta t=%5.0fs\n", q.Label, srv.Now()+eta)
	}
}

func progressBar(f float64, width int) string {
	filled := int(f * float64(width))
	if filled > width {
		filled = width
	}
	return "[" + strings.Repeat("#", filled) + strings.Repeat(".", width-filled) + "]"
}
