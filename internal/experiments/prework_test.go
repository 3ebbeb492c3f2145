package experiments

import (
	"testing"

	"mqpi/internal/sched"
	"mqpi/internal/workload"
)

// TestPreworkSurvivesInflatedEstimate: when the optimizer overestimates a
// query's cost (here: statistics describe a part table 10× its real size),
// the old prework could silently run the query to completion before the
// experiment's t=0. The fixed prework must leave the query strictly
// unfinished, advanced by its fraction of the *true* cost.
func TestPreworkSurvivesInflatedEstimate(t *testing.T) {
	ds, err := workload.BuildDataset(workload.DataConfig{LineitemRows: 30000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	srv := sched.New(sched.Config{RateC: 100})
	q, err := buildPartQuery(ds, srv, 1, 20, 0, workload.TemplateRetail)
	if err != nil {
		t.Fatal(err)
	}
	// Deflate the table behind the optimizer's back: stats still claim 200
	// rows, reality has ~20, so EstCost is wildly inflated.
	name := workload.PartTableName(1)
	if _, err := ds.DB.Exec("DELETE FROM " + name + " WHERE partkey > 100"); err != nil {
		t.Fatal(err)
	}
	estCost := q.Runner.Plan().EstCost()

	// A large fraction, so the inflated budget certainly overruns the true
	// cost.
	if err := prework(ds, q, 0.88); err != nil {
		t.Fatal(err)
	}
	if q.Runner.Done() {
		t.Fatal("prework ran the query to completion before t=0")
	}
	done := q.Runner.WorkDone()
	if done <= 0 {
		t.Fatalf("prework did no work (WorkDone=%g)", done)
	}
	// The true cost must be far below the inflated estimate, and the work
	// done must be a strict fraction of it: let the query finish and check.
	var total float64
	for !q.Runner.Done() {
		c, _, err := q.Runner.Step(1000)
		if err != nil {
			t.Fatal(err)
		}
		total += c
	}
	trueCost := done + total
	if trueCost >= estCost {
		t.Fatalf("test setup failed to inflate the estimate: true %g vs est %g", trueCost, estCost)
	}
	if done >= trueCost {
		t.Fatalf("prework work %g should be < true cost %g", done, trueCost)
	}
}

// TestPreworkZeroFraction: a zero fraction does nothing and is not an error.
func TestPreworkZeroFraction(t *testing.T) {
	ds, err := workload.BuildDataset(workload.DataConfig{LineitemRows: 30000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	srv := sched.New(sched.Config{RateC: 100})
	q, err := buildPartQuery(ds, srv, 2, 5, 0, workload.TemplateRetail)
	if err != nil {
		t.Fatal(err)
	}
	if err := prework(ds, q, 0); err != nil {
		t.Fatal(err)
	}
	if q.Runner.WorkDone() != 0 {
		t.Errorf("frac=0 should do no work, did %g", q.Runner.WorkDone())
	}
}
