package exec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mqpi/internal/engine/catalog"
	"mqpi/internal/engine/plan"
	"mqpi/internal/engine/sql"
	"mqpi/internal/engine/types"
)

// buildCatalog creates part(partkey, retailprice) with nPart rows and
// lineitem(partkey, quantity, extendedprice) with nLine rows plus an index
// on lineitem.partkey.
func buildCatalog(t testing.TB, nPart, nLine int) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	if _, err := c.CreateTable("part", types.NewSchema(
		types.Column{Name: "partkey", Type: types.KindInt},
		types.Column{Name: "retailprice", Type: types.KindFloat},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("lineitem", types.NewSchema(
		types.Column{Name: "partkey", Type: types.KindInt},
		types.Column{Name: "quantity", Type: types.KindInt},
		types.Column{Name: "extendedprice", Type: types.KindFloat},
	)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < nPart; i++ {
		if err := c.Insert("part", types.Row{
			types.NewInt(int64(i)),
			types.NewFloat(50 + 100*rng.Float64()),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nLine; i++ {
		if err := c.Insert("lineitem", types.Row{
			types.NewInt(int64(rng.Intn(nPart))),
			types.NewInt(int64(1 + rng.Intn(10))),
			types.NewFloat(100 * rng.Float64() * float64(1+rng.Intn(10))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CreateIndex("li_pk", "lineitem", "partkey"); err != nil {
		t.Fatal(err)
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return c
}

func planQuery(t testing.TB, c *catalog.Catalog, src string) plan.Node {
	t.Helper()
	sel, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := plan.NewPlanner(c).PlanSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

const paperQuery = `SELECT * FROM part p WHERE p.retailprice * 0.75 >
	(SELECT SUM(l.extendedprice) / SUM(l.quantity) FROM lineitem l WHERE l.partkey = p.partkey)`

// TestStepBudgetIndependence: executing a query in steps of any budget size
// must produce exactly the rows and total work of a single uninterrupted
// run. This is the core invariant the multi-query scheduler relies on.
func TestStepBudgetIndependence(t *testing.T) {
	c := buildCatalog(t, 60, 600)
	queries := []string{
		paperQuery,
		"SELECT quantity, COUNT(*), SUM(extendedprice) FROM lineitem GROUP BY quantity ORDER BY quantity",
		"SELECT * FROM part ORDER BY retailprice DESC LIMIT 7",
		"SELECT p.partkey, l.quantity FROM part p, lineitem l WHERE p.partkey = l.partkey AND l.quantity = 3",
		"SELECT DISTINCT quantity FROM lineitem",
		`SELECT * FROM part p WHERE EXISTS
		   (SELECT * FROM lineitem l WHERE l.partkey = p.partkey AND l.quantity > 8)`,
	}
	for _, src := range queries {
		ref := NewRunner(planQuery(t, c, src))
		if err := ref.Run(); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for _, budget := range []float64{0.5, 1, 3.7, 16, 1000} {
			r := NewRunner(planQuery(t, c, src))
			steps := 0
			for {
				_, done, err := r.Step(budget)
				if err != nil {
					t.Fatalf("step: %v", err)
				}
				steps++
				if steps > 1e7 {
					t.Fatal("no progress")
				}
				if done {
					break
				}
			}
			if got, want := len(r.Rows()), len(ref.Rows()); got != want {
				t.Fatalf("%s budget=%g: %d rows, want %d", src, budget, got, want)
			}
			for i := range ref.Rows() {
				if r.Rows()[i].Key() != ref.Rows()[i].Key() {
					t.Fatalf("%s budget=%g: row %d differs", src, budget, i)
				}
			}
			if math.Abs(r.WorkDone()-ref.WorkDone()) > 1e-6 {
				t.Fatalf("%s budget=%g: work %g, want %g", src, budget, r.WorkDone(), ref.WorkDone())
			}
		}
	}
}

// Property: random step budgets also preserve the result.
func TestStepBudgetIndependenceQuick(t *testing.T) {
	c := buildCatalog(t, 30, 300)
	ref := NewRunner(planQuery(t, c, paperQuery))
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRunner(planQuery(t, c, paperQuery))
		for i := 0; i < 1e6; i++ {
			_, done, err := r.Step(0.1 + 20*rng.Float64())
			if err != nil {
				return false
			}
			if done {
				break
			}
		}
		if len(r.Rows()) != len(ref.Rows()) {
			return false
		}
		return math.Abs(r.WorkDone()-ref.WorkDone()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestStepOvershootBounded: with sub-plan evaluation as the indivisible
// quantum, a 1-U budget must never overshoot by more than one sub-query's
// work (plus a page).
func TestStepOvershootBounded(t *testing.T) {
	c := buildCatalog(t, 60, 600)
	sub := planQuery(t, c, "SELECT SUM(l.extendedprice) FROM lineitem l WHERE l.partkey = 0")
	bound := sub.EstCost()*4 + 8 // generous: matches vary per key
	r := NewRunner(planQuery(t, c, paperQuery))
	for {
		consumed, done, err := r.Step(1)
		if err != nil {
			t.Fatal(err)
		}
		if consumed > 1+bound {
			t.Fatalf("overshoot: consumed %g U on a 1-U budget (bound %g)", consumed, bound)
		}
		if done {
			break
		}
	}
}

func TestProgressMonotonicAndEstimateConverges(t *testing.T) {
	c := buildCatalog(t, 60, 600)
	r := NewRunner(planQuery(t, c, paperQuery))
	r.CollectRows = false
	prev := -1.0
	for {
		_, done, err := r.Step(25)
		if err != nil {
			t.Fatal(err)
		}
		p := r.Progress()
		if p < prev-1e-9 {
			t.Fatalf("progress regressed: %g -> %g", prev, p)
		}
		if p < 0 || p > 1 {
			t.Fatalf("progress out of range: %g", p)
		}
		prev = p
		if done {
			break
		}
	}
	if r.Progress() != 1 {
		t.Errorf("final progress = %g", r.Progress())
	}
	if r.EstRemaining() != 0 || r.EstRemainingOptimizer() != 0 {
		t.Errorf("finished query should have zero remaining, got %g/%g",
			r.EstRemaining(), r.EstRemainingOptimizer())
	}
}

// TestRefinedEstimateAccuracy: by mid-execution the refined estimate must be
// within a modest factor of the true remaining work — and strictly better
// than nothing. (The optimizer estimate is itself good here, so this mostly
// guards the interpolation math.)
func TestRefinedEstimateAccuracy(t *testing.T) {
	c := buildCatalog(t, 60, 600)
	ref := NewRunner(planQuery(t, c, paperQuery))
	ref.CollectRows = false
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	total := ref.WorkDone()

	r := NewRunner(planQuery(t, c, paperQuery))
	r.CollectRows = false
	for r.WorkDone() < total/2 {
		if _, done, err := r.Step(10); err != nil || done {
			t.Fatalf("done=%v err=%v before half the work", done, err)
		}
	}
	trueRem := total - r.WorkDone()
	est := r.EstRemaining()
	if est < trueRem*0.5 || est > trueRem*2 {
		t.Errorf("refined estimate %g vs true remaining %g (total %g)", est, trueRem, total)
	}
	if r.EstTotal() < total*0.5 || r.EstTotal() > total*2 {
		t.Errorf("EstTotal %g vs true %g", r.EstTotal(), total)
	}
}

func TestRunnerZeroBudgetNoWork(t *testing.T) {
	c := buildCatalog(t, 10, 50)
	r := NewRunner(planQuery(t, c, "SELECT * FROM part"))
	if consumed, done, err := r.Step(0); consumed != 0 || done || err != nil {
		t.Errorf("Step(0) = %g, %v, %v", consumed, done, err)
	}
	if consumed, done, err := r.Step(-5); consumed != 0 || done || err != nil {
		t.Errorf("Step(-5) = %g, %v, %v", consumed, done, err)
	}
	if r.WorkDone() != 0 {
		t.Errorf("work after zero budgets: %g", r.WorkDone())
	}
}

func TestRunnerStepAfterDone(t *testing.T) {
	c := buildCatalog(t, 10, 50)
	r := NewRunner(planQuery(t, c, "SELECT * FROM part"))
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	consumed, done, err := r.Step(100)
	if consumed != 0 || !done || err != nil {
		t.Errorf("Step after done = %g, %v, %v", consumed, done, err)
	}
}

// TestRunnerDropsTreeWhenDone: a runner that finished or failed lets go of
// its operator tree, and every accessor still answers from the plan, the
// meter and its own state, so nothing reaches the tree after Run.
func TestRunnerDropsTreeWhenDone(t *testing.T) {
	c := buildCatalog(t, 40, 400)
	for _, tc := range []struct {
		name, sql string
		fail      bool
	}{
		{"finished", paperQuery + " ORDER BY p.partkey", false},
		{"failed", "SELECT * FROM part p WHERE p.retailprice > (SELECT l.quantity FROM lineitem l)", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := planQuery(t, c, tc.sql)
			r := NewRunner(p)
			if err := r.Run(); (err != nil) != tc.fail {
				t.Fatalf("Run = %v, want failure %v", err, tc.fail)
			}
			if r.root != nil {
				t.Fatal("a done runner still holds its operator tree")
			}
			if !r.Done() || (r.Err() != nil) != tc.fail {
				t.Errorf("Done, Err = %v, %v", r.Done(), r.Err())
			}
			if r.Plan() != p || r.Schema().Len() != p.Schema().Len() {
				t.Error("Plan/Schema must answer from the plan")
			}
			if r.WorkDone() <= 0 || r.CostDone() != r.WorkDone() {
				t.Errorf("WorkDone, CostDone = %g, %g", r.WorkDone(), r.CostDone())
			}
			if r.Progress() != 1 || r.EstRemaining() != 0 || r.EstTotal() != r.WorkDone() {
				t.Errorf("Progress, EstRemaining = %g, %g; want 1, 0", r.Progress(), r.EstRemaining())
			}
			if !tc.fail && len(r.Rows()) == 0 {
				t.Error("the finished query's rows are gone")
			}
			if consumed, done, _ := r.Step(100); consumed != 0 || !done {
				t.Errorf("Step after done = %g, %v", consumed, done)
			}
			if NewFoldRegistry().Attach(r, 0) {
				t.Error("a done runner must not fold")
			}
		})
	}
}

func TestRunnerSchemaAndPlanAccessors(t *testing.T) {
	c := buildCatalog(t, 10, 50)
	p := planQuery(t, c, "SELECT partkey FROM part")
	r := NewRunner(p)
	if r.Plan() != p {
		t.Error("Plan accessor")
	}
	if r.Schema().Len() != 1 || r.Schema().Cols[0].Name != "partkey" {
		t.Errorf("Schema: %v", r.Schema())
	}
	if r.Done() || r.Err() != nil {
		t.Error("fresh runner should not be done")
	}
}

func TestCollectRowsOff(t *testing.T) {
	c := buildCatalog(t, 10, 50)
	r := NewRunner(planQuery(t, c, "SELECT * FROM part"))
	r.CollectRows = false
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Rows() != nil {
		t.Error("rows should be discarded")
	}
	if r.WorkDone() <= 0 {
		t.Error("work must still be accounted")
	}
}

// TestWorkMatchesPageMath: a bare table scan charges exactly its page count.
func TestWorkMatchesPageMath(t *testing.T) {
	c := buildCatalog(t, 130, 50) // 130 rows -> 3 pages
	r := NewRunner(planQuery(t, c, "SELECT * FROM part"))
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if r.WorkDone() != 3 {
		t.Errorf("scan work = %g, want 3 pages", r.WorkDone())
	}
}

// TestIndexScanChargesProbe: an index lookup charges the B+-tree descent
// plus the heap pages it touches — bounded and far below a full scan.
func TestIndexScanChargesProbe(t *testing.T) {
	c := buildCatalog(t, 500, 5000) // ~10 matches per key over ~79 heap pages
	full := NewRunner(planQuery(t, c, "SELECT * FROM lineitem"))
	if err := full.Run(); err != nil {
		t.Fatal(err)
	}
	idx := NewRunner(planQuery(t, c, "SELECT * FROM lineitem WHERE partkey = 5"))
	if err := idx.Run(); err != nil {
		t.Fatal(err)
	}
	if idx.WorkDone() >= full.WorkDone()/2 {
		t.Errorf("index scan %g U vs full scan %g U", idx.WorkDone(), full.WorkDone())
	}
	if len(idx.Rows()) == 0 {
		t.Error("index scan found nothing")
	}
}
