// Maintenance advisor: the scheduled-maintenance problem of §3.3. Ten
// queries are running; maintenance is scheduled t seconds from now. Which
// queries should be aborted right away so the rest can finish in time, and
// how much work is lost?
//
//	go run ./examples/maintenance
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"mqpi/internal/core"
	"mqpi/internal/engine"
	"mqpi/internal/sched"
	"mqpi/internal/wm"
	"mqpi/internal/workload"
)

func main() {
	ds, err := workload.BuildDataset(workload.DataConfig{LineitemRows: 30000, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	zipf, err := workload.NewZipf(1.5, 20)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	srv := sched.New(sched.Config{RateC: 50, Quantum: 0.5})

	// Ten queries, already at random points of their execution (the mix a
	// DBA would face at an arbitrary moment).
	for i := 1; i <= 10; i++ {
		if err := ds.CreatePartTable(i, zipf.Sample(rng)); err != nil {
			log.Fatal(err)
		}
		runner, err := ds.DB.Prepare(workload.QuerySQL(i))
		if err != nil {
			log.Fatal(err)
		}
		runner.CollectRows = false
		if _, _, err := runner.Step(rng.Float64() * 0.8 * runner.Plan().EstCost()); err != nil {
			log.Fatal(err)
		}
		srv.Submit(srv.NewQuery(fmt.Sprintf("Q%d", i), workload.QuerySQL(i), 0, runner))
	}

	states := srv.StateRunning()
	for i := range states {
		states[i].Done = mustLookup(srv, states[i].ID).Runner.WorkDone()
	}
	est, err := core.NewEstimator(core.EstimatorStage)
	if err != nil {
		log.Fatal(err)
	}
	bundle := est.Estimates(core.EstimateInput{Running: states, RateC: srv.RateC()}, core.EnsembleState{})
	finish, quiescent := bundle.PerQuery, bundle.Quiescent // the clock is still at 0
	fmt.Printf("10 queries running; estimated system quiescent time: %.0fs\n\n", quiescent)
	fmt.Println("query   done(U)   remaining(U)   est. finish(s)")
	for i, st := range states { // finish[i] is the estimate of states[i]
		fmt.Printf("%-6s %9.0f %14.0f %16.1f\n",
			mustLookup(srv, st.ID).Label, st.Done, st.Remaining, finish[i].MultiQuery)
	}

	for _, frac := range []float64{0.25, 0.5, 0.75} {
		deadline := frac * quiescent
		plan, err := wm.PlanMaintenance(states, srv.RateC(), deadline, wm.Case2TotalCost)
		if err != nil {
			log.Fatal(err)
		}
		exact, err := wm.PlanMaintenanceExact(states, srv.RateC(), deadline, wm.Case2TotalCost)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nmaintenance in %.0fs (%.0f%% of quiescent time):\n", deadline, frac*100)
		fmt.Printf("  greedy (§3.3): abort %s -> %.0f U unfinished, rest done by %.0fs\n",
			labels(srv, plan.Abort), plan.Lost, plan.Quiescent)
		fmt.Printf("  exact optimum: abort %s -> %.0f U unfinished, rest done by %.0fs\n",
			labels(srv, exact.Abort), exact.Lost, exact.Quiescent)
	}

	// Act 2: execute the 50% plan end-to-end — abort, drain, snapshot the
	// database for the maintenance window, "restart", and rerun the aborted
	// queries against the reloaded database.
	deadline := 0.5 * quiescent
	plan, err := wm.PlanMaintenance(states, srv.RateC(), deadline, wm.Case2TotalCost)
	if err != nil {
		log.Fatal(err)
	}
	var rerun []string
	for _, id := range plan.Abort {
		rerun = append(rerun, mustLookup(srv, id).Label)
		if err := srv.Abort(id); err != nil {
			log.Fatal(err)
		}
	}
	start := srv.Now()
	srv.RunUntilIdle(1e9)
	fmt.Printf("\nexecuted the 50%% plan: aborted %s; survivors drained in %.0fs (deadline %.0fs)\n",
		labels(srv, plan.Abort), srv.Now()-start, deadline)

	var snapshot bytes.Buffer
	if err := ds.DB.Save(&snapshot); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("maintenance snapshot: %d KiB; performing maintenance and restarting...\n", snapshot.Len()/1024)

	db2, err := engine.Load(&snapshot)
	if err != nil {
		log.Fatal(err)
	}
	srv2 := sched.New(sched.Config{RateC: 50, Quantum: 0.5})
	for i, id := range plan.Abort {
		orig := mustLookup(srv, id)
		runner, err := db2.Prepare(orig.SQL)
		if err != nil {
			log.Fatal(err)
		}
		runner.CollectRows = false
		srv2.Submit(srv2.NewQuery(fmt.Sprintf("rerun-%d", i+1), orig.SQL, 0, runner))
	}
	srv2.RunUntilIdle(1e9)
	fmt.Printf("after restart, the %d aborted queries (%s) reran to completion in %.0fs\n",
		len(plan.Abort), joinStrings(rerun), srv2.Now())
}

func joinStrings(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}

func mustLookup(srv *sched.Server, id int) *sched.Query {
	q, ok := srv.Lookup(id)
	if !ok {
		log.Fatalf("query %d not found", id)
	}
	return q
}

func labels(srv *sched.Server, ids []int) string {
	if len(ids) == 0 {
		return "nothing"
	}
	out := ""
	for i, id := range ids {
		if i > 0 {
			out += ","
		}
		out += mustLookup(srv, id).Label
	}
	return out
}
