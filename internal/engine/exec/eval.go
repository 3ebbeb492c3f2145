package exec

import (
	"fmt"

	"mqpi/internal/engine/plan"
	"mqpi/internal/engine/sql"
	"mqpi/internal/engine/types"
)

type row = types.Row

// Eval is a compiled expression, evaluated against the current row with SQL
// three-valued logic. Sub-plans run inline, charging the context's meter: this
// is how the paper's correlated sub-query dominates its query's cost.
type Eval func(r row, ctx *Ctx) (types.Value, error)

// Compile walks a bound expression once and returns its Eval; Build compiles
// each expression of an operator tree, DELETE/UPDATE each of a statement's.
// An Eval holding a sub-plan's operator tree is as single-owner as a Runner.
func Compile(e plan.Expr) Eval {
	switch x := e.(type) {
	case plan.ColIdx:
		idx := x.Idx
		return func(r row, _ *Ctx) (types.Value, error) {
			if idx >= len(r) {
				return types.Null, colRangeErr(idx, r)
			}
			return r[idx], nil
		}
	case plan.OuterCol:
		return func(_ row, ctx *Ctx) (types.Value, error) {
			pos := len(ctx.Outer) - x.Level
			if pos < 0 || pos >= len(ctx.Outer) {
				return types.Null, fmt.Errorf("exec: outer reference level %d with %d outer rows", x.Level, len(ctx.Outer))
			}
			or := ctx.Outer[pos]
			if x.Idx >= len(or) {
				return types.Null, fmt.Errorf("exec: outer column index %d out of range", x.Idx)
			}
			return or[x.Idx], nil
		}
	case plan.Const:
		v := x.Val
		return func(row, *Ctx) (types.Value, error) { return v, nil }
	case plan.BinaryExpr:
		return compileBinary(x)
	case plan.NotExpr:
		return unary(x.X, func(v types.Value) (types.Value, error) {
			if v.IsNull() {
				return types.Null, nil
			}
			return types.NewBool(!v.Truthy()), nil
		})
	case plan.NegExpr:
		return unary(x.X, func(v types.Value) (types.Value, error) { return types.Arith(types.OpSub, types.NewInt(0), v) })
	case plan.IsNullExpr:
		return unary(x.X, func(v types.Value) (types.Value, error) { return types.NewBool(v.IsNull() != x.Negate), nil })
	case plan.SubplanExpr:
		return compileSubplan(x.Plan, true, false)
	case plan.ExistsExpr:
		return compileSubplan(x.Plan, false, x.Negate)
	default:
		err := fmt.Errorf("exec: unsupported expression %T", e)
		return func(row, *Ctx) (types.Value, error) { return types.Null, err }
	}
}

func colRangeErr(idx int, r row) error {
	return fmt.Errorf("exec: column index %d out of range (row width %d)", idx, len(r))
}

func unary(x plan.Expr, f func(types.Value) (types.Value, error)) Eval {
	sub := Compile(x)
	return func(r row, ctx *Ctx) (types.Value, error) {
		v, err := sub(r, ctx)
		if err != nil {
			return types.Null, err
		}
		return f(v)
	}
}

// compileSubplan builds a sub-query's operator tree once, at its first
// evaluation, so a runner that never runs holds none; each evaluation re-opens
// it (Open resets every operator) with the current row pushed onto the
// outer-row stack and the yield limit suspended: one evaluation is the
// indivisible work quantum. A scalar sub-query of zero rows yields NULL, of
// more than one an error, as in PostgreSQL; EXISTS stops at the first row.
func compileSubplan(p plan.Node, scalar, negate bool) Eval {
	var op Operator
	return func(r row, ctx *Ctx) (types.Value, error) {
		if op == nil {
			op = Build(p)
		}
		ctx.Outer = append(ctx.Outer, r)
		savedLimit := ctx.Limit
		ctx.Limit = 0
		defer func() {
			ctx.Outer = ctx.Outer[:len(ctx.Outer)-1]
			ctx.Limit = savedLimit
		}()
		if err := op.Open(ctx); err != nil {
			return types.Null, err
		}
		defer op.Close()
		first, err := op.Next(ctx)
		switch {
		case err != nil:
			return types.Null, err
		case !scalar:
			return types.NewBool((first != nil) != negate), nil
		case first == nil:
			return types.Null, nil
		}
		if second, err := op.Next(ctx); err != nil || second != nil {
			if err == nil {
				err = fmt.Errorf("exec: scalar sub-query returned more than one row")
			}
			return types.Null, err
		}
		return first[0], nil
	}
}

var arithOps = map[sql.BinOp]types.ArithOp{
	sql.BinAdd: types.OpAdd, sql.BinSub: types.OpSub, sql.BinMul: types.OpMul, sql.BinDiv: types.OpDiv,
}

func compileBinary(x plan.BinaryExpr) Eval {
	if x.Op == sql.BinAnd || x.Op == sql.BinOr {
		return compileLogical(x.Op == sql.BinAnd, Compile(x.L), Compile(x.R))
	}
	arith, isArith := arithOps[x.Op]
	truth, ok := truthTables[x.Op]
	cmp := comparison{x.Op, truth, ok}
	if ok {
		if fast := compileColConst(cmp, x); fast != nil {
			return fast
		}
	}
	l, r := Compile(x.L), Compile(x.R)
	return func(rw row, ctx *Ctx) (types.Value, error) {
		lv, err := l(rw, ctx)
		if err != nil {
			return types.Null, err
		}
		rv, err := r(rw, ctx)
		if err != nil {
			return types.Null, err
		}
		if isArith {
			return types.Arith(arith, lv, rv)
		}
		return cmp.apply(lv, rv)
	}
}

// compileColConst compiles a column-vs-constant comparison, column on either
// side, or returns nil for any other shape. A row value of the constant's
// numeric kind compares on int64 or float64 directly; every other pair of
// kinds falls back to comparison.apply, as the generic path does.
func compileColConst(cmp comparison, x plan.BinaryExpr) Eval {
	col, cok := x.L.(plan.ColIdx)
	k, kok := x.R.(plan.Const)
	constFirst := !cok || !kok
	if constFirst {
		col, cok = x.R.(plan.ColIdx)
		k, kok = x.L.(plan.Const)
	}
	if !cok || !kok {
		return nil
	}
	idx, kv, kind := col.Idx, k.Val, k.Val.Kind()
	// c compares column to constant; a constant on the left flips the outcome.
	truth := cmp.truth
	if constFirst {
		truth[0], truth[2] = truth[2], truth[0]
	}
	return func(r row, _ *Ctx) (types.Value, error) {
		if idx >= len(r) {
			return types.Null, colRangeErr(idx, r)
		}
		v := &r[idx]
		var c int
		switch {
		case v.Kind() == kind && kind == types.KindInt:
			c = cmp3(v.Int(), kv.Int())
		case v.Kind() == kind && kind == types.KindFloat:
			c = cmp3(v.Float(), kv.Float())
		case constFirst:
			return cmp.apply(kv, *v)
		default:
			return cmp.apply(*v, kv)
		}
		return types.NewBool(truth[c+1]), nil
	}
}

func cmp3[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// comparison is a comparison operator compiled to its truth value for each
// three-way comparison outcome -1, 0 and 1; ok is false for an operator that
// is not a comparison.
type comparison struct {
	op    sql.BinOp
	truth [3]bool
	ok    bool
}

var truthTables = map[sql.BinOp][3]bool{
	sql.BinEq: {false, true, false}, sql.BinNe: {true, false, true},
	sql.BinLt: {true, false, false}, sql.BinLe: {true, true, false},
	sql.BinGt: {false, false, true}, sql.BinGe: {false, true, true},
}

// apply compares two values with SQL semantics: a NULL operand yields NULL,
// and incomparable kinds are an error.
func (c comparison) apply(l, r types.Value) (types.Value, error) {
	if l.IsNull() || r.IsNull() {
		return types.Null, nil
	}
	cmp, err := types.Compare(l, r)
	if err != nil {
		return types.Null, err
	}
	if !c.ok {
		return types.Null, fmt.Errorf("exec: unsupported binary op %v", c.op)
	}
	return types.NewBool(c.truth[cmp+1]), nil
}

// compileLogical implements SQL three-valued AND/OR with short-circuiting; OR
// is AND with the roles of true and false swapped.
func compileLogical(and bool, l, r Eval) Eval {
	decides := !and // the operand value that settles the result alone
	return func(rw row, ctx *Ctx) (types.Value, error) {
		lv, err := l(rw, ctx)
		if err != nil {
			return types.Null, err
		}
		if !lv.IsNull() && lv.Truthy() == decides {
			return types.NewBool(decides), nil
		}
		rv, err := r(rw, ctx)
		if err != nil {
			return types.Null, err
		}
		switch {
		case !rv.IsNull() && rv.Truthy() == decides:
			return types.NewBool(decides), nil
		case lv.IsNull() || rv.IsNull():
			return types.Null, nil
		}
		return types.NewBool(!decides), nil
	}
}
