// Quickstart: run two concurrent SQL queries under the multi-query
// scheduler and watch the single-query and multi-query progress indicators
// disagree — the core of the paper in ~80 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mqpi/internal/core"
	"mqpi/internal/sched"
	"mqpi/internal/workload"
)

func main() {
	// A scaled-down Table 1: lineitem plus two part tables of very
	// different sizes.
	ds, err := workload.BuildDataset(workload.DataConfig{LineitemRows: 30000, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.CreatePartTable(1, 40); err != nil { // big query
		log.Fatal(err)
	}
	if err := ds.CreatePartTable(2, 5); err != nil { // small query
		log.Fatal(err)
	}

	// The simulated RDBMS processes C = 100 U/s, shared fairly.
	srv := sched.New(sched.Config{RateC: 100, Quantum: 0.5})
	var queries []*sched.Query
	for i := 1; i <= 2; i++ {
		sqlText := workload.QuerySQL(i)
		runner, err := ds.DB.Prepare(sqlText)
		if err != nil {
			log.Fatal(err)
		}
		runner.CollectRows = false
		q := srv.NewQuery(fmt.Sprintf("Q%d", i), sqlText, 0, runner)
		queries = append(queries, q)
		srv.Submit(q)
	}
	big := queries[0]

	est, err := core.NewEstimator(core.EstimatorStage)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("time   done%   single-query ETA   multi-query ETA")
	for srv.Busy() {
		if big.Status == sched.StatusRunning {
			single := core.SingleQueryRemainingTime(big.Runner.EstRemaining(), speedOf(srv, big))
			// Estimates come back in the input's order; big was admitted first
			// and stays at the head of the running set until it finishes.
			multi := est.Estimates(core.EstimateInput{Running: srv.StateRunning(), RateC: srv.RateC()},
				core.EnsembleState{}).PerQuery[0].MultiQuery
			fmt.Printf("%4.0fs  %4.0f%%   %13.1fs   %12.1fs\n",
				srv.Now(), 100*big.Runner.Progress(), single, multi)
		}
		for i := 0; i < 20; i++ { // 10 virtual seconds between reports
			srv.Tick()
		}
	}
	fmt.Printf("\nQ1 actually finished at %.1fs; Q2 at %.1fs.\n", big.FinishTime, queries[1].FinishTime)
	fmt.Println("While Q2 was running, the single-query PI assumed Q1's current (halved)")
	fmt.Println("speed would persist; the multi-query PI predicted Q2's completion and the")
	fmt.Println("speed-up that follows — so its ETA was accurate from the start.")
}

// speedOf is the single-query PI's observed speed, with the fair-share
// fallback before enough samples exist.
func speedOf(srv *sched.Server, q *sched.Query) float64 {
	if s := q.ObservedSpeed(); s > 0 {
		return s
	}
	n := 0
	for _, r := range srv.Running() {
		if r.Status == sched.StatusRunning {
			n++
		}
	}
	if n == 0 {
		return srv.RateC()
	}
	return srv.RateC() / float64(n)
}
