package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mqpi/internal/engine/plan"
	"mqpi/internal/engine/sql"
	"mqpi/internal/engine/types"
)

func evalOn(t *testing.T, e plan.Expr, r types.Row, ctx *Ctx) types.Value {
	t.Helper()
	v, err := Compile(e)(r, ctx)
	if err != nil {
		t.Fatalf("eval %s: %v", e.String(), err)
	}
	return v
}

func TestEvalBasics(t *testing.T) {
	ctx := NewCtx()
	row := types.Row{types.NewInt(7), types.NewFloat(2.5), types.NewString("x"), types.Null}
	col := func(i int) plan.Expr { return plan.ColIdx{Idx: i} }
	c := func(v types.Value) plan.Expr { return plan.Const{Val: v} }

	// Column and constant access.
	if got := evalOn(t, col(0), row, ctx); got.Int() != 7 {
		t.Errorf("col 0 = %v", got)
	}
	if got := evalOn(t, c(types.NewInt(3)), row, ctx); got.Int() != 3 {
		t.Errorf("const = %v", got)
	}
	// Arithmetic.
	add := plan.BinaryExpr{Op: sql.BinAdd, L: col(0), R: c(types.NewInt(1))}
	if got := evalOn(t, add, row, ctx); got.Int() != 8 {
		t.Errorf("7+1 = %v", got)
	}
	div := plan.BinaryExpr{Op: sql.BinDiv, L: col(0), R: c(types.NewInt(2))}
	if got := evalOn(t, div, row, ctx); got.Float() != 3.5 {
		t.Errorf("7/2 = %v", got)
	}
	sub := plan.BinaryExpr{Op: sql.BinSub, L: col(1), R: c(types.NewFloat(0.5))}
	if got := evalOn(t, sub, row, ctx); got.Float() != 2 {
		t.Errorf("2.5-0.5 = %v", got)
	}
	mul := plan.BinaryExpr{Op: sql.BinMul, L: col(0), R: c(types.NewInt(3))}
	if got := evalOn(t, mul, row, ctx); got.Int() != 21 {
		t.Errorf("7*3 = %v", got)
	}
	// Negation.
	neg := plan.NegExpr{X: col(0)}
	if got := evalOn(t, neg, row, ctx); got.Int() != -7 {
		t.Errorf("-7 = %v", got)
	}
	// Comparisons with NULL yield NULL.
	cmp := plan.BinaryExpr{Op: sql.BinGt, L: col(3), R: c(types.NewInt(1))}
	if got := evalOn(t, cmp, row, ctx); !got.IsNull() {
		t.Errorf("NULL > 1 = %v", got)
	}
	// All comparison operators.
	for op, want := range map[sql.BinOp]bool{
		sql.BinEq: false, sql.BinNe: true, sql.BinLt: false,
		sql.BinLe: false, sql.BinGt: true, sql.BinGe: true,
	} {
		e := plan.BinaryExpr{Op: op, L: col(0), R: c(types.NewInt(5))}
		if got := evalOn(t, e, row, ctx); got.Bool() != want {
			t.Errorf("7 %v 5 = %v, want %v", op, got, want)
		}
	}
	// IS NULL.
	if got := evalOn(t, plan.IsNullExpr{X: col(3)}, row, ctx); !got.Bool() {
		t.Error("NULL IS NULL should be true")
	}
	if got := evalOn(t, plan.IsNullExpr{X: col(0), Negate: true}, row, ctx); !got.Bool() {
		t.Error("7 IS NOT NULL should be true")
	}
	// NOT with NULL stays NULL.
	if got := evalOn(t, plan.NotExpr{X: col(3)}, row, ctx); !got.IsNull() {
		t.Errorf("NOT NULL = %v", got)
	}
	if got := evalOn(t, plan.NotExpr{X: c(types.NewBool(true))}, row, ctx); got.Bool() {
		t.Error("NOT true should be false")
	}
}

func TestEvalThreeValuedLogic(t *testing.T) {
	ctx := NewCtx()
	null := plan.Const{Val: types.Null}
	tru := plan.Const{Val: types.NewBool(true)}
	fls := plan.Const{Val: types.NewBool(false)}
	cases := []struct {
		op   sql.BinOp
		l, r plan.Expr
		want string // "t", "f", "n"
	}{
		{sql.BinAnd, tru, tru, "t"},
		{sql.BinAnd, tru, fls, "f"},
		{sql.BinAnd, fls, null, "f"},
		{sql.BinAnd, null, fls, "f"},
		{sql.BinAnd, tru, null, "n"},
		{sql.BinAnd, null, null, "n"},
		{sql.BinOr, fls, fls, "f"},
		{sql.BinOr, fls, tru, "t"},
		{sql.BinOr, null, tru, "t"},
		{sql.BinOr, tru, null, "t"},
		{sql.BinOr, fls, null, "n"},
		{sql.BinOr, null, null, "n"},
	}
	for _, c := range cases {
		got := evalOn(t, plan.BinaryExpr{Op: c.op, L: c.l, R: c.r}, nil, ctx)
		var code string
		switch {
		case got.IsNull():
			code = "n"
		case got.Bool():
			code = "t"
		default:
			code = "f"
		}
		if code != c.want {
			t.Errorf("%s %v %s = %q, want %q", c.l.String(), c.op, c.r.String(), code, c.want)
		}
	}
}

func TestEvalOuterColLevels(t *testing.T) {
	ctx := NewCtx()
	ctx.Outer = []types.Row{
		{types.NewInt(100)}, // level 2 from the innermost frame
		{types.NewInt(200)}, // level 1
	}
	if got := evalOn(t, plan.OuterCol{Level: 1, Idx: 0}, nil, ctx); got.Int() != 200 {
		t.Errorf("level 1 = %v", got)
	}
	if got := evalOn(t, plan.OuterCol{Level: 2, Idx: 0}, nil, ctx); got.Int() != 100 {
		t.Errorf("level 2 = %v", got)
	}
	if _, err := Compile(plan.OuterCol{Level: 3, Idx: 0})(nil, ctx); err == nil {
		t.Error("level beyond the stack should fail")
	}
	if _, err := Compile(plan.OuterCol{Level: 1, Idx: 5})(nil, ctx); err == nil {
		t.Error("index beyond the outer row should fail")
	}
}

func TestEvalErrors(t *testing.T) {
	ctx := NewCtx()
	if _, err := Compile(plan.ColIdx{Idx: 3})(types.Row{types.NewInt(1)}, ctx); err == nil {
		t.Error("column index out of range should fail")
	}
	bad := plan.BinaryExpr{
		Op: sql.BinAdd,
		L:  plan.Const{Val: types.NewString("x")},
		R:  plan.Const{Val: types.NewInt(1)},
	}
	if _, err := Compile(bad)(nil, ctx); err == nil {
		t.Error("string arithmetic should fail")
	}
	mismatch := plan.BinaryExpr{
		Op: sql.BinLt,
		L:  plan.Const{Val: types.NewString("x")},
		R:  plan.Const{Val: types.NewInt(1)},
	}
	if _, err := Compile(mismatch)(nil, ctx); err == nil {
		t.Error("string/int comparison should fail")
	}
}

// TestOperatorProgressMidExecution exercises every operator's Progress
// through partially executed plans with each operator shape at the root.
func TestOperatorProgressMidExecution(t *testing.T) {
	c := buildCatalog(t, 60, 1200)
	queries := []string{
		"SELECT quantity, COUNT(*) FROM lineitem GROUP BY quantity",
		"SELECT * FROM lineitem ORDER BY extendedprice",
		"SELECT DISTINCT quantity FROM lineitem",
		"SELECT * FROM lineitem LIMIT 500",
		"SELECT * FROM part p, lineitem l WHERE p.partkey = l.partkey",
		"SELECT * FROM lineitem WHERE partkey = 5",
	}
	for _, src := range queries {
		r := NewRunner(planQuery(t, c, src))
		r.CollectRows = false
		prev := -1.0
		for i := 0; i < 100000; i++ {
			_, done, err := r.Step(5)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			p := r.Progress()
			if p < 0 || p > 1 {
				t.Fatalf("%s: progress %g out of range", src, p)
			}
			if p < prev-1e-9 {
				t.Fatalf("%s: progress regressed %g -> %g", src, prev, p)
			}
			prev = p
			if done {
				break
			}
		}
		if r.Progress() != 1 {
			t.Errorf("%s: final progress %g", src, r.Progress())
		}
	}
}

// TestPlanExprStrings pins the display forms the EXPLAIN output relies on.
func TestPlanExprStrings(t *testing.T) {
	exprs := map[string]plan.Expr{
		"$2":                    plan.ColIdx{Idx: 2},
		"a":                     plan.ColIdx{Idx: 0, Name: "a"},
		"outer(1).p.k":          plan.OuterCol{Level: 1, Idx: 0, Name: "p.k"},
		"outer(2).$3":           plan.OuterCol{Level: 2, Idx: 3},
		"42":                    plan.Const{Val: types.NewInt(42)},
		"NOT a":                 plan.NotExpr{X: plan.ColIdx{Name: "a"}},
		"(-a)":                  plan.NegExpr{X: plan.ColIdx{Name: "a"}},
		"a IS NULL":             plan.IsNullExpr{X: plan.ColIdx{Name: "a"}},
		"a IS NOT NULL":         plan.IsNullExpr{X: plan.ColIdx{Name: "a"}, Negate: true},
		"(a AND b)":             plan.BinaryExpr{Op: sql.BinAnd, L: plan.ColIdx{Name: "a"}, R: plan.ColIdx{Name: "b"}},
		"exists(cost<=0.0)":     plan.ExistsExpr{},
		"not-exists(cost<=0.0)": plan.ExistsExpr{Negate: true},
		"subplan(cost=5.0)":     plan.SubplanExpr{PerEvalCost: 5},
	}
	for want, e := range exprs {
		if got := e.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if !strings.Contains((plan.OuterCol{Level: 1, Idx: 0}).String(), "outer(1)") {
		t.Error("anonymous outer ref rendering")
	}
}

// TestAccumulatorProperties cross-checks the streaming aggregate
// accumulators against straightforward reference computations on random
// inputs with NULLs.
func TestAccumulatorProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		specs := []plan.AggSpec{
			{Func: sql.AggCount, Star: true},
			{Func: sql.AggCount, Arg: plan.ColIdx{Idx: 0}},
			{Func: sql.AggSum, Arg: plan.ColIdx{Idx: 0}},
			{Func: sql.AggAvg, Arg: plan.ColIdx{Idx: 0}},
			{Func: sql.AggMin, Arg: plan.ColIdx{Idx: 0}},
			{Func: sql.AggMax, Arg: plan.ColIdx{Idx: 0}},
		}
		accs := newAccums(specs)
		var vals []int64
		total := 0
		for i := 0; i < n; i++ {
			var v types.Value
			if rng.Intn(5) == 0 {
				v = types.Null
			} else {
				x := int64(rng.Intn(2001) - 1000)
				vals = append(vals, x)
				v = types.NewInt(x)
			}
			total++
			for j := range accs {
				if accs[j].star {
					accs[j].add(types.NewInt(1))
				} else {
					accs[j].add(v)
				}
			}
		}
		// References.
		var sum, minV, maxV int64
		for i, x := range vals {
			sum += x
			if i == 0 || x < minV {
				minV = x
			}
			if i == 0 || x > maxV {
				maxV = x
			}
		}
		if accs[0].result().Int() != int64(total) {
			return false
		}
		if accs[1].result().Int() != int64(len(vals)) {
			return false
		}
		if len(vals) == 0 {
			for _, i := range []int{2, 3, 4, 5} {
				if !accs[i].result().IsNull() {
					return false
				}
			}
			return true
		}
		if accs[2].result().Int() != sum {
			return false
		}
		wantAvg := float64(sum) / float64(len(vals))
		if math.Abs(accs[3].result().Float()-wantAvg) > 1e-9 {
			return false
		}
		return accs[4].result().Int() == minV && accs[5].result().Int() == maxV
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAccumulatorMixedIntFloatSum: SUM over mixed int/float inputs promotes
// to float.
func TestAccumulatorMixedIntFloatSum(t *testing.T) {
	specs := []plan.AggSpec{{Func: sql.AggSum, Arg: plan.ColIdx{Idx: 0}}}
	accs := newAccums(specs)
	accs[0].add(types.NewInt(2))
	accs[0].add(types.NewFloat(0.5))
	got := accs[0].result()
	if got.Kind() != types.KindFloat || got.Float() != 2.5 {
		t.Errorf("mixed sum = %v (%v)", got, got.Kind())
	}
}

// TestCompileColConstMatchesCompare pins the typed fast path of a
// column-vs-constant comparison, column on either side, to types.Compare's
// semantics for every pair of kinds: same-kind ints and floats take the fast
// path, every other pair the fallback, and all must agree on the result,
// NULL, and the error.
func TestCompileColConstMatchesCompare(t *testing.T) {
	vals := []types.Value{
		types.Null, types.NewInt(-3), types.NewInt(2), types.NewFloat(2), types.NewFloat(-0.5),
		types.NewFloat(math.NaN()), types.NewString("x"), types.NewString("y"), types.NewBool(true), types.NewBool(false),
	}
	ops := map[sql.BinOp]func(c int) bool{
		sql.BinEq: func(c int) bool { return c == 0 }, sql.BinNe: func(c int) bool { return c != 0 },
		sql.BinLt: func(c int) bool { return c < 0 }, sql.BinLe: func(c int) bool { return c <= 0 },
		sql.BinGt: func(c int) bool { return c > 0 }, sql.BinGe: func(c int) bool { return c >= 0 },
	}
	ctx := NewCtx()
	for op, holds := range ops {
		for _, cv := range vals {
			for _, kv := range vals {
				for _, constFirst := range []bool{false, true} {
					e := plan.BinaryExpr{Op: op, L: plan.ColIdx{Idx: 1}, R: plan.Const{Val: kv}}
					l, r := cv, kv
					if constFirst {
						e.L, e.R = e.R, e.L
						l, r = kv, cv
					}
					got, err := Compile(e)(types.Row{types.Null, cv}, ctx)
					cmp, werr := types.Compare(l, r)
					switch {
					case l.IsNull() || r.IsNull():
						if err != nil || !got.IsNull() {
							t.Errorf("%v %v %v = %v, %v; want NULL", l, op, r, got, err)
						}
					case werr != nil:
						if err == nil || err.Error() != werr.Error() {
							t.Errorf("%v %v %v: error %v, want %v", l, op, r, err, werr)
						}
					case err != nil || got.Kind() != types.KindBool || got.Bool() != holds(cmp):
						t.Errorf("%v %v %v = %v, %v; want %v", l, op, r, got, err, holds(cmp))
					}
				}
			}
		}
	}
	if _, err := Compile(plan.BinaryExpr{Op: sql.BinGt, L: plan.Const{Val: types.NewInt(1)}, R: plan.ColIdx{Idx: 4}})(types.Row{types.NewInt(1)}, ctx); err == nil {
		t.Error("column index out of range should fail on the fast path too")
	}
}

// TestSubplanBuiltOncePerRunner: a correlated sub-query's operator tree is
// built when its runner is, and each evaluation re-opens it. One more outer
// row that evaluates the sub-query costs that evaluation's own allocations
// (the probe's row ids, the aggregate's output row), far fewer than building
// the sub-plan's tree and compiling its expressions again would.
func TestSubplanBuiltOncePerRunner(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	c := buildCatalog(t, 60, 1200)
	const sub = `(SELECT SUM(l.extendedprice) FROM lineitem l WHERE l.partkey = p.partkey)`
	allocs := func(n int) float64 {
		p := planQuery(t, c, fmt.Sprintf("SELECT p.partkey FROM part p WHERE p.partkey < %d AND p.retailprice < %s", n, sub))
		return testing.AllocsPerRun(20, func() {
			r := NewRunner(p)
			r.CollectRows = false
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	perRow := allocs(31) - allocs(30)
	subPlan := planQuery(t, c, "SELECT SUM(l.extendedprice) FROM lineitem l WHERE l.partkey = 7")
	build := testing.AllocsPerRun(20, func() { Build(subPlan) })
	t.Logf("one more outer row: %.0f allocs; one Build of the sub-plan: %.0f", perRow, build)
	if perRow > 4 || perRow >= build {
		t.Fatalf("one more outer row costs %.0f allocs (a Build is %.0f); the sub-plan is being rebuilt per row", perRow, build)
	}
}
