package engine

// Differential testing: random queries are executed both through the full
// parse→plan→execute pipeline and by a deliberately naive reference
// evaluator written independently in this file. Any disagreement is a bug in
// the engine (or the reference, which is simple enough to audit).

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mqpi/internal/engine/types"
)

// refRow mirrors a row of the random table.
type refRow struct {
	a     *int64   // nil = NULL
	b     *float64 // nil = NULL
	c     string
	cNull bool
}

// buildRandomTable creates table t(a BIGINT, b DOUBLE, c TEXT) with n rows
// of random data (including NULLs) and returns the reference copy.
func buildRandomTable(t *testing.T, db *DB, rng *rand.Rand, n int) []refRow {
	t.Helper()
	if _, err := db.Exec("CREATE TABLE t (a BIGINT, b DOUBLE, c TEXT)"); err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog()
	ref := make([]refRow, 0, n)
	words := []string{"ant", "bee", "cat", "dog", "elk"}
	for i := 0; i < n; i++ {
		var r refRow
		row := make(types.Row, 3)
		if rng.Intn(10) == 0 {
			row[0] = types.Null
		} else {
			v := int64(rng.Intn(21) - 10)
			r.a = &v
			row[0] = types.NewInt(v)
		}
		if rng.Intn(10) == 0 {
			row[1] = types.Null
		} else {
			v := float64(rng.Intn(200))/10 - 10
			r.b = &v
			row[1] = types.NewFloat(v)
		}
		if rng.Intn(10) == 0 {
			r.cNull = true
			row[2] = types.Null
		} else {
			r.c = words[rng.Intn(len(words))]
			row[2] = types.NewString(r.c)
		}
		if err := cat.Insert("t", row); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, r)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return ref
}

// tv is SQL three-valued logic: +1 true, 0 unknown, -1 false.
type tv int

func tvOf(b bool) tv {
	if b {
		return 1
	}
	return -1
}

// pred is a randomly generated predicate that can render itself to SQL and
// evaluate itself against a reference row.
type pred interface {
	SQL() string
	Eval(r refRow) tv
}

// cmpPred compares a column (plus a constant, for arithmetic) with a
// constant, the constant on either side. mixed pits a numeric column
// against the other numeric kind's constant: a BIGINT column against a
// DOUBLE literal, a DOUBLE column against a BIGINT literal.
type cmpPred struct {
	col   string // "a", "b", or "c"
	op    string // =, <>, <, <=, >, >=
	i     int64
	f     float64
	s     string
	flip  bool  // the constant is the left operand
	mixed bool  // numeric column against the other numeric kind's constant
	plus  int64 // when nonzero, the operand is (col + plus); numeric columns only
}

func (p cmpPred) SQL() string {
	operand, konst := p.col, fmt.Sprintf("'%s'", p.s)
	if p.plus != 0 {
		operand = fmt.Sprintf("(%s + %d)", p.col, p.plus)
	}
	switch {
	case p.col == "a" && p.mixed, p.col == "b" && !p.mixed:
		konst = strconv.FormatFloat(p.f, 'g', -1, 64)
		if p.mixed && !strings.ContainsAny(konst, ".e") {
			konst += ".0"
		}
	case p.col != "c":
		konst = fmt.Sprint(p.i)
	}
	if p.flip {
		return fmt.Sprintf("%s %s %s", konst, p.op, operand)
	}
	return fmt.Sprintf("%s %s %s", operand, p.op, konst)
}

func (p cmpPred) Eval(r refRow) tv {
	var cmp int
	switch p.col {
	case "a", "b":
		var x float64
		switch {
		case p.col == "a" && r.a != nil:
			x = float64(*r.a + p.plus)
		case p.col == "b" && r.b != nil:
			x = *r.b + float64(p.plus)
		default:
			return 0
		}
		k := p.f
		if (p.col == "a") != p.mixed {
			k = float64(p.i)
		}
		switch {
		case x < k:
			cmp = -1
		case x > k:
			cmp = 1
		}
	default:
		if r.cNull {
			return 0
		}
		switch {
		case r.c < p.s:
			cmp = -1
		case r.c > p.s:
			cmp = 1
		}
	}
	if p.flip {
		cmp = -cmp
	}
	switch p.op {
	case "=":
		return tvOf(cmp == 0)
	case "<>":
		return tvOf(cmp != 0)
	case "<":
		return tvOf(cmp < 0)
	case "<=":
		return tvOf(cmp <= 0)
	case ">":
		return tvOf(cmp > 0)
	default:
		return tvOf(cmp >= 0)
	}
}

type isNullPred struct {
	col    string
	negate bool
}

func (p isNullPred) SQL() string {
	if p.negate {
		return p.col + " IS NOT NULL"
	}
	return p.col + " IS NULL"
}

func (p isNullPred) Eval(r refRow) tv {
	var isNull bool
	switch p.col {
	case "a":
		isNull = r.a == nil
	case "b":
		isNull = r.b == nil
	default:
		isNull = r.cNull
	}
	return tvOf(isNull != p.negate)
}

type logicalPred struct {
	op   string // AND / OR
	l, r pred
}

func (p logicalPred) SQL() string {
	return "(" + p.l.SQL() + " " + p.op + " " + p.r.SQL() + ")"
}

func (p logicalPred) Eval(r refRow) tv {
	l, rv := p.l.Eval(r), p.r.Eval(r)
	if p.op == "AND" {
		if l == -1 || rv == -1 {
			return -1
		}
		if l == 0 || rv == 0 {
			return 0
		}
		return 1
	}
	if l == 1 || rv == 1 {
		return 1
	}
	if l == 0 || rv == 0 {
		return 0
	}
	return -1
}

type notPred struct{ x pred }

func (p notPred) SQL() string      { return "NOT " + p.x.SQL() }
func (p notPred) Eval(r refRow) tv { return -p.x.Eval(r) }

// randomPred builds a predicate tree of the given depth.
func randomPred(rng *rand.Rand, depth int) pred {
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(5) == 0 {
			return isNullPred{col: []string{"a", "b", "c"}[rng.Intn(3)], negate: rng.Intn(2) == 0}
		}
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		p := cmpPred{
			col:  []string{"a", "b", "c"}[rng.Intn(3)],
			op:   ops[rng.Intn(len(ops))],
			i:    int64(rng.Intn(21) - 10),
			f:    float64(rng.Intn(200))/10 - 10,
			s:    []string{"ant", "bee", "cat", "dog", "elk"}[rng.Intn(5)],
			flip: rng.Intn(3) == 0,
		}
		if p.col != "c" {
			switch rng.Intn(4) {
			case 0:
				p.mixed = true
			case 1:
				p.plus = int64(1 + rng.Intn(3))
			}
		}
		return p
	}
	switch rng.Intn(3) {
	case 0:
		return notPred{x: randomPred(rng, depth-1)}
	default:
		op := "AND"
		if rng.Intn(2) == 0 {
			op = "OR"
		}
		return logicalPred{op: op, l: randomPred(rng, depth-1), r: randomPred(rng, depth-1)}
	}
}

func rowKeyOf(r types.Row) string { return r.Key() }

func refKeyOf(r refRow) string {
	row := make(types.Row, 3)
	if r.a != nil {
		row[0] = types.NewInt(*r.a)
	}
	if r.b != nil {
		row[1] = types.NewFloat(*r.b)
	}
	if !r.cNull {
		row[2] = types.NewString(r.c)
	}
	return row.Key()
}

// TestDifferentialFilters runs many random WHERE clauses and compares the
// engine's result multiset against the reference evaluator's.
func TestDifferentialFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(20260706))
	db := Open()
	ref := buildRandomTable(t, db, rng, 500)
	for trial := 0; trial < 300; trial++ {
		p := randomPred(rng, 3)
		src := "SELECT * FROM t WHERE " + p.SQL()
		rows, _, _, err := db.Query(src)
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, src, err)
		}
		var want []string
		for _, r := range ref {
			if p.Eval(r) == 1 {
				want = append(want, refKeyOf(r))
			}
		}
		got := make([]string, 0, len(rows))
		for _, r := range rows {
			got = append(got, rowKeyOf(r))
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(got, "\x00") != strings.Join(want, "\x00") {
			t.Fatalf("trial %d: %s\nengine returned %d rows, reference %d", trial, src, len(got), len(want))
		}
	}
}

// TestDifferentialAggregates compares COUNT/SUM/MIN/MAX/AVG under random
// predicates.
func TestDifferentialAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	db := Open()
	ref := buildRandomTable(t, db, rng, 400)
	for trial := 0; trial < 100; trial++ {
		p := randomPred(rng, 2)
		src := "SELECT COUNT(*), COUNT(a), SUM(a), MIN(b), MAX(b) FROM t WHERE " + p.SQL()
		rows, _, _, err := db.Query(src)
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, src, err)
		}
		var countStar, countA, sumA int64
		var minB, maxB *float64
		for _, r := range ref {
			if p.Eval(r) != 1 {
				continue
			}
			countStar++
			if r.a != nil {
				countA++
				sumA += *r.a
			}
			if r.b != nil {
				if minB == nil || *r.b < *minB {
					v := *r.b
					minB = &v
				}
				if maxB == nil || *r.b > *maxB {
					v := *r.b
					maxB = &v
				}
			}
		}
		got := rows[0]
		if got[0].Int() != countStar || got[1].Int() != countA {
			t.Fatalf("trial %d: %s\ncounts: got %v/%v, want %d/%d", trial, src, got[0], got[1], countStar, countA)
		}
		if countA == 0 {
			if !got[2].IsNull() {
				t.Fatalf("trial %d: SUM of empty set must be NULL, got %v", trial, got[2])
			}
		} else if got[2].Int() != sumA {
			t.Fatalf("trial %d: %s\nSUM: got %v, want %d", trial, src, got[2], sumA)
		}
		checkFloat := func(name string, got types.Value, want *float64) {
			t.Helper()
			if want == nil {
				if !got.IsNull() {
					t.Fatalf("trial %d: %s of empty set must be NULL, got %v", trial, name, got)
				}
				return
			}
			if got.IsNull() || got.Float() != *want {
				t.Fatalf("trial %d: %s: got %v, want %g", trial, name, got, *want)
			}
		}
		checkFloat("MIN", got[3], minB)
		checkFloat("MAX", got[4], maxB)
	}
}

// TestDifferentialGroupBy compares GROUP BY c counts under random
// predicates.
func TestDifferentialGroupBy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := Open()
	ref := buildRandomTable(t, db, rng, 400)
	for trial := 0; trial < 50; trial++ {
		p := randomPred(rng, 2)
		src := "SELECT c, COUNT(*) FROM t WHERE " + p.SQL() + " GROUP BY c"
		rows, _, _, err := db.Query(src)
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, src, err)
		}
		want := map[string]int64{}
		for _, r := range ref {
			if p.Eval(r) != 1 {
				continue
			}
			key := r.c
			if r.cNull {
				key = "\x00NULL"
			}
			want[key]++
		}
		got := map[string]int64{}
		for _, r := range rows {
			key := "\x00NULL"
			if !r[0].IsNull() {
				key = r[0].Str()
			}
			got[key] = r[1].Int()
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %s\ngroups: got %d, want %d", trial, src, len(got), len(want))
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("trial %d: %s\ngroup %q: got %d, want %d", trial, src, k, got[k], w)
			}
		}
	}
}

// TestDifferentialOrderLimit compares ORDER BY + LIMIT against reference
// sorting under random predicates.
func TestDifferentialOrderLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	db := Open()
	ref := buildRandomTable(t, db, rng, 300)
	for trial := 0; trial < 50; trial++ {
		p := randomPred(rng, 2)
		limit := 1 + rng.Intn(20)
		src := fmt.Sprintf("SELECT a FROM t WHERE %s ORDER BY a LIMIT %d", p.SQL(), limit)
		rows, _, _, err := db.Query(src)
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, src, err)
		}
		// Reference: filter, collect a (NULLs first), sort, truncate.
		var nullCount int
		var vals []int64
		for _, r := range ref {
			if p.Eval(r) != 1 {
				continue
			}
			if r.a == nil {
				nullCount++
			} else {
				vals = append(vals, *r.a)
			}
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		var want []string
		for i := 0; i < nullCount && len(want) < limit; i++ {
			want = append(want, "NULL")
		}
		for _, v := range vals {
			if len(want) >= limit {
				break
			}
			want = append(want, fmt.Sprint(v))
		}
		if len(rows) != len(want) {
			t.Fatalf("trial %d: %s\ngot %d rows, want %d", trial, src, len(rows), len(want))
		}
		for i, r := range rows {
			if r[0].String() != want[i] {
				t.Fatalf("trial %d: %s\nrow %d = %v, want %s", trial, src, i, r[0], want[i])
			}
		}
	}
}

// TestDifferentialCorrelatedSubquery cross-checks the engine's correlated
// sub-query evaluation against a reference nested loop.
func TestDifferentialCorrelatedSubquery(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	db := Open()
	if _, err := db.Exec("CREATE TABLE outerT (k BIGINT, lim DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE innerT (k BIGINT, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog()
	type inner struct {
		k int64
		v float64
	}
	var inners []inner
	for i := 0; i < 600; i++ {
		row := inner{k: int64(rng.Intn(40)), v: float64(rng.Intn(100))}
		inners = append(inners, row)
		if err := cat.Insert("innerT", types.Row{types.NewInt(row.k), types.NewFloat(row.v)}); err != nil {
			t.Fatal(err)
		}
	}
	type outer struct {
		k   int64
		lim float64
	}
	var outers []outer
	for i := 0; i < 80; i++ {
		row := outer{k: int64(rng.Intn(50)), lim: float64(rng.Intn(3000))}
		outers = append(outers, row)
		if err := cat.Insert("outerT", types.Row{types.NewInt(row.k), types.NewFloat(row.lim)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("CREATE INDEX inner_k ON innerT (k)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	rows, _, _, err := db.Query(`SELECT o.k, o.lim FROM outerT o WHERE o.lim <
	    (SELECT SUM(i.v) FROM innerT i WHERE i.k = o.k)`)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: group inner sums, then filter. Missing groups are NULL and
	// never pass the comparison.
	sums := map[int64]float64{}
	present := map[int64]bool{}
	for _, r := range inners {
		sums[r.k] += r.v
		present[r.k] = true
	}
	want := 0
	for _, o := range outers {
		if present[o.k] && o.lim < sums[o.k] {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("correlated subquery: got %d rows, want %d", len(rows), want)
	}
}

// TestDifferentialDML runs DELETE and UPDATE under random WHERE clauses, so
// the predicate DML compiles once per statement is checked row by row
// against the reference evaluator: UPDATE must change exactly the rows the
// reference matches, and DELETE must leave exactly the rows it does not.
func TestDifferentialDML(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 40; trial++ {
		db := Open()
		ref := buildRandomTable(t, db, rng, 150)
		p := randomPred(rng, 2)
		update := "UPDATE t SET a = a + 100 WHERE " + p.SQL()
		del := "DELETE FROM t WHERE " + p.SQL()
		var afterUpdate, afterDelete []string
		matched := 0
		for _, r := range ref {
			if p.Eval(r) != 1 {
				afterDelete = append(afterDelete, refKeyOf(r))
				afterUpdate = append(afterUpdate, refKeyOf(r))
				continue
			}
			matched++
			if r.a != nil {
				v := *r.a + 100
				r.a = &v
			}
			afterUpdate = append(afterUpdate, refKeyOf(r))
		}
		check := func(stmt string, want []string) {
			t.Helper()
			n, err := db.Exec(stmt)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, stmt, err)
			}
			if n != matched {
				t.Fatalf("trial %d: %s touched %d rows, reference matches %d", trial, stmt, n, matched)
			}
			rows, _, _, err := db.Query("SELECT * FROM t")
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, 0, len(rows))
			for _, r := range rows {
				got = append(got, rowKeyOf(r))
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, "\x00") != strings.Join(want, "\x00") {
				t.Fatalf("trial %d: %s\ntable has %d rows after it, reference %d", trial, stmt, len(got), len(want))
			}
		}
		check(update, afterUpdate)
		// The predicate now sees the updated a values; undo them first.
		if _, err := db.Exec("UPDATE t SET a = a - 100 WHERE a >= 90"); err != nil {
			t.Fatal(err)
		}
		check(del, afterDelete)
	}
}
