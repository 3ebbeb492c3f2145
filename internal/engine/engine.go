// Package engine is the facade over the SQL engine substrate: parse,
// plan, and execute statements against an in-memory catalog. The
// multi-query scheduler (internal/sched) drives long-running SELECTs through
// exec.Runner; everything else (DDL, INSERT, ad-hoc queries) goes through DB.
package engine

import (
	"fmt"

	"mqpi/internal/engine/catalog"
	"mqpi/internal/engine/exec"
	"mqpi/internal/engine/plan"
	"mqpi/internal/engine/sql"
	"mqpi/internal/engine/storage"
	"mqpi/internal/engine/types"
)

// DB is an in-memory SQL database instance.
//
// Prepared runners may be stepped concurrently by distinct goroutines — all
// execution-time reads (heap pages, index probes, statistics) are lock-free
// and read-shared. Exec (DDL/DML) mutates that shared state and must be
// serialized against every in-flight runner step: callers either own all
// runners (single goroutine) or route Exec through the service owner
// goroutine, which never overlaps a tick's parallel execute phase.
type DB struct {
	cat     *catalog.Catalog
	planner *plan.Planner
}

// Open creates an empty database.
func Open() *DB {
	cat := catalog.New()
	return &DB{cat: cat, planner: plan.NewPlanner(cat)}
}

// Catalog exposes the underlying catalog (used by the workload generator to
// bulk-load data without SQL round-trips).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Analyze recomputes optimizer statistics for every table.
func (db *DB) Analyze() error { return db.cat.AnalyzeAll() }

// Exec runs a DDL or DML statement. For INSERT it returns the number of
// rows inserted; for DDL it returns 0.
func (db *DB) Exec(src string) (int, error) {
	st, err := sql.Parse(src)
	if err != nil {
		return 0, err
	}
	switch x := st.(type) {
	case sql.CreateTable:
		schema := types.NewSchema(x.Cols...)
		if _, err := db.cat.CreateTable(x.Name, schema); err != nil {
			return 0, err
		}
		return 0, nil
	case sql.CreateIndex:
		if _, err := db.cat.CreateIndex(x.Name, x.Table, x.Column); err != nil {
			return 0, err
		}
		return 0, nil
	case sql.DropTable:
		return 0, db.cat.DropTable(x.Name)
	case sql.Insert:
		n := 0
		for _, exprRow := range x.Rows {
			row := make(types.Row, len(exprRow))
			for i, e := range exprRow {
				v, err := evalConst(e)
				if err != nil {
					return n, err
				}
				row[i] = v
			}
			if err := db.cat.Insert(x.Table, row); err != nil {
				return n, err
			}
			n++
		}
		return n, nil
	case sql.Delete:
		return db.execDelete(x)
	case sql.Update:
		return db.execUpdate(x)
	case *sql.Select:
		return 0, fmt.Errorf("engine: use Query or Plan for SELECT statements")
	default:
		return 0, fmt.Errorf("engine: unsupported statement %T", st)
	}
}

// matchingRows scans a table and returns the RowIDs of live rows satisfying
// the (already bound) predicate; a nil predicate matches everything.
func (db *DB) matchingRows(tableName string, pred plan.Expr) ([]storage.RowID, error) {
	t, err := db.cat.Table(tableName)
	if err != nil {
		return nil, err
	}
	if pred == nil {
		pred = plan.Const{Val: types.NewBool(true)}
	}
	match := exec.Compile(pred)
	ctx := exec.NewCtx()
	var out []storage.RowID
	for p := 0; p < t.Rel.NumPages(); p++ {
		for s, row := range t.Rel.Page(p) {
			rid := storage.RowID{Page: p, Slot: s}
			if !t.Rel.Live(rid) {
				continue
			}
			v, err := match(row, ctx)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
			out = append(out, rid)
		}
	}
	return out, nil
}

func (db *DB) execDelete(st sql.Delete) (int, error) {
	var pred plan.Expr
	if st.Where != nil {
		var err error
		pred, err = db.planner.BindRowExpr(st.Table, st.Where)
		if err != nil {
			return 0, err
		}
	}
	rids, err := db.matchingRows(st.Table, pred)
	if err != nil {
		return 0, err
	}
	for _, rid := range rids {
		if err := db.cat.Delete(st.Table, rid); err != nil {
			return 0, err
		}
	}
	return len(rids), nil
}

func (db *DB) execUpdate(st sql.Update) (int, error) {
	t, err := db.cat.Table(st.Table)
	if err != nil {
		return 0, err
	}
	schema := t.Rel.Schema()
	var pred plan.Expr
	if st.Where != nil {
		pred, err = db.planner.BindRowExpr(st.Table, st.Where)
		if err != nil {
			return 0, err
		}
	}
	type setSpec struct {
		idx  int
		eval exec.Eval
	}
	specs := make([]setSpec, 0, len(st.Sets))
	for _, set := range st.Sets {
		ci, err := schema.ColIndex("", set.Column)
		if err != nil {
			return 0, err
		}
		bound, err := db.planner.BindRowExpr(st.Table, set.Expr)
		if err != nil {
			return 0, err
		}
		specs = append(specs, setSpec{idx: ci, eval: exec.Compile(bound)})
	}
	rids, err := db.matchingRows(st.Table, pred)
	if err != nil {
		return 0, err
	}
	// Compute every replacement row before mutating, so SET expressions see
	// a consistent pre-update table even with self-referential sub-queries.
	ctx := exec.NewCtx()
	newRows := make([]types.Row, len(rids))
	for i, rid := range rids {
		old, err := t.Rel.Fetch(rid)
		if err != nil {
			return 0, err
		}
		nr := old.Clone()
		for _, sp := range specs {
			v, err := sp.eval(old, ctx)
			if err != nil {
				return 0, err
			}
			nr[sp.idx] = v
		}
		newRows[i] = nr
	}
	for i, rid := range rids {
		if err := db.cat.Delete(st.Table, rid); err != nil {
			return 0, err
		}
		if err := db.cat.Insert(st.Table, newRows[i]); err != nil {
			return 0, err
		}
	}
	return len(rids), nil
}

// Plan parses and plans a SELECT without executing it.
func (db *DB) Plan(src string) (plan.Node, error) {
	sel, err := sql.ParseSelect(src)
	if err != nil {
		return nil, err
	}
	return db.planner.PlanSelect(sel)
}

// Prepare plans a SELECT and wraps it in a resumable runner.
func (db *DB) Prepare(src string) (*exec.Runner, error) {
	p, err := db.Plan(src)
	if err != nil {
		return nil, err
	}
	return exec.NewRunner(p), nil
}

// Query plans and fully executes a SELECT, returning the result rows, the
// output schema, and the work (in U's) the query consumed.
func (db *DB) Query(src string) ([]types.Row, types.Schema, float64, error) {
	r, err := db.Prepare(src)
	if err != nil {
		return nil, types.Schema{}, 0, err
	}
	if err := r.Run(); err != nil {
		return nil, types.Schema{}, r.WorkDone(), err
	}
	return r.Rows(), r.Schema(), r.WorkDone(), nil
}

// evalConst evaluates a constant expression (INSERT values): literals and
// arithmetic over literals.
func evalConst(e sql.Expr) (types.Value, error) {
	switch x := e.(type) {
	case sql.Literal:
		return x.Val, nil
	case sql.Unary:
		if x.Op != "-" {
			return types.Null, fmt.Errorf("engine: %s is not allowed in VALUES", x.Op)
		}
		v, err := evalConst(x.X)
		if err != nil {
			return types.Null, err
		}
		return types.Arith(types.OpSub, types.NewInt(0), v)
	case sql.Binary:
		l, err := evalConst(x.L)
		if err != nil {
			return types.Null, err
		}
		r, err := evalConst(x.R)
		if err != nil {
			return types.Null, err
		}
		switch x.Op {
		case sql.BinAdd:
			return types.Arith(types.OpAdd, l, r)
		case sql.BinSub:
			return types.Arith(types.OpSub, l, r)
		case sql.BinMul:
			return types.Arith(types.OpMul, l, r)
		case sql.BinDiv:
			return types.Arith(types.OpDiv, l, r)
		default:
			return types.Null, fmt.Errorf("engine: operator %s is not allowed in VALUES", x.Op)
		}
	default:
		return types.Null, fmt.Errorf("engine: VALUES must be constant expressions, got %T", e)
	}
}
