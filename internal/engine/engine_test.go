package engine

import (
	"strings"
	"testing"

	"mqpi/internal/engine/types"
)

func testDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	stmts := []string{
		"CREATE TABLE part (partkey BIGINT, retailprice DOUBLE, name TEXT)",
		"CREATE TABLE lineitem (partkey BIGINT, quantity BIGINT, extendedprice DOUBLE)",
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := db.Exec(
			"INSERT INTO part VALUES (" +
				itoa(i) + ", " + itoa(100+i) + ".0, 'part-" + itoa(i) + "')"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if _, err := db.Exec(
			"INSERT INTO lineitem VALUES (" + itoa(i%20) + ", " + itoa(1+i%5) + ", " + itoa(10*i) + ".0)"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("CREATE INDEX li_pk ON lineitem (partkey)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		p--
		b[p] = '-'
	}
	return string(b[p:])
}

func query(t *testing.T, db *DB, src string) []types.Row {
	t.Helper()
	rows, _, _, err := db.Query(src)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	return rows
}

func TestExecDDLAndInsertCounts(t *testing.T) {
	db := Open()
	if n, err := db.Exec("CREATE TABLE t (a BIGINT)"); err != nil || n != 0 {
		t.Fatalf("create: %d, %v", n, err)
	}
	n, err := db.Exec("INSERT INTO t VALUES (1), (2), (3)")
	if err != nil || n != 3 {
		t.Fatalf("insert: %d, %v", n, err)
	}
	rows := query(t, db, "SELECT * FROM t")
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	if n, err := db.Exec("DROP TABLE t"); err != nil || n != 0 {
		t.Fatalf("drop: %d, %v", n, err)
	}
}

func TestExecConstExpressions(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE t (a BIGINT, b DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (2 + 3 * 4, 10.0 / 4)"); err != nil {
		t.Fatal(err)
	}
	rows := query(t, db, "SELECT * FROM t")
	if rows[0][0].Int() != 14 || rows[0][1].Float() != 2.5 {
		t.Errorf("const eval: %v", rows[0])
	}
	if _, err := db.Exec("INSERT INTO t VALUES (a, 1)"); err == nil {
		t.Error("column ref in VALUES should fail")
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1 = 1, 1)"); err == nil {
		t.Error("comparison in VALUES should fail")
	}
}

func TestExecRejectsSelect(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("SELECT * FROM part"); err == nil {
		t.Error("Exec(SELECT) should direct callers to Query")
	}
}

func TestQueryFilterProject(t *testing.T) {
	db := testDB(t)
	rows := query(t, db, "SELECT name, retailprice FROM part WHERE partkey = 3")
	if len(rows) != 1 {
		t.Fatalf("rows: %v", rows)
	}
	if rows[0][0].Str() != "part-3" || rows[0][1].Float() != 103 {
		t.Errorf("row: %v", rows[0])
	}
}

func TestQueryAggregates(t *testing.T) {
	db := testDB(t)
	rows := query(t, db, "SELECT COUNT(*), SUM(quantity), MIN(extendedprice), MAX(extendedprice), AVG(quantity) FROM lineitem")
	r := rows[0]
	if r[0].Int() != 200 {
		t.Errorf("count = %v", r[0])
	}
	// quantity cycles 1..5 over 200 rows: sum = 40×(1+2+3+4+5) = 600.
	if r[1].Int() != 600 {
		t.Errorf("sum = %v", r[1])
	}
	if r[2].Float() != 0 || r[3].Float() != 1990 {
		t.Errorf("min/max = %v/%v", r[2], r[3])
	}
	if r[4].Float() != 3 {
		t.Errorf("avg = %v", r[4])
	}
}

func TestQueryGroupBy(t *testing.T) {
	db := testDB(t)
	rows := query(t, db, "SELECT quantity, COUNT(*) FROM lineitem GROUP BY quantity ORDER BY quantity")
	if len(rows) != 5 {
		t.Fatalf("groups: %d", len(rows))
	}
	for i, r := range rows {
		if r[0].Int() != int64(i+1) || r[1].Int() != 40 {
			t.Errorf("group %d: %v", i, r)
		}
	}
}

func TestQueryHaving(t *testing.T) {
	db := testDB(t)
	rows := query(t, db, "SELECT quantity FROM lineitem GROUP BY quantity HAVING SUM(extendedprice) > 39000 ORDER BY quantity")
	// Per-quantity sums: quantity q group holds rows i ≡ q-1 (mod 5);
	// sum = 10×(q-1) + 10×(q-1+5) + ... = 40 terms; only the largest pass.
	if len(rows) == 0 || len(rows) == 5 {
		t.Fatalf("having filtered %d groups", len(rows))
	}
}

func TestQueryOrderLimit(t *testing.T) {
	db := testDB(t)
	rows := query(t, db, "SELECT partkey FROM part ORDER BY partkey DESC LIMIT 3")
	if len(rows) != 3 || rows[0][0].Int() != 19 || rows[2][0].Int() != 17 {
		t.Errorf("rows: %v", rows)
	}
}

func TestQueryJoin(t *testing.T) {
	db := testDB(t)
	rows := query(t, db, `SELECT p.name, l.extendedprice FROM part p, lineitem l
	                      WHERE p.partkey = l.partkey AND l.extendedprice > 1900`)
	// extendedprice > 1900: rows 191..199 -> 9 rows.
	if len(rows) != 9 {
		t.Fatalf("join rows: %d", len(rows))
	}
	for _, r := range rows {
		if !strings.HasPrefix(r[0].Str(), "part-") {
			t.Errorf("row: %v", r)
		}
	}
}

func TestQueryCorrelatedSubquery(t *testing.T) {
	db := testDB(t)
	// Parts whose total lineitem revenue exceeds a threshold.
	rows := query(t, db, `SELECT p.partkey FROM part p
	       WHERE (SELECT SUM(l.extendedprice) FROM lineitem l WHERE l.partkey = p.partkey) > 10000
	       ORDER BY p.partkey`)
	// Part k matches lineitem rows k, k+20, ..., k+180: sum = 10*(10k + (0+20+...+180)) = 100k + 9000.
	// > 10000 ⇔ k > 10.
	if len(rows) != 9 {
		t.Fatalf("rows: %d (%v)", len(rows), rows)
	}
	if rows[0][0].Int() != 11 {
		t.Errorf("first = %v", rows[0])
	}
}

func TestQueryScalarSubqueryNoMatchIsNull(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("INSERT INTO part VALUES (999, 1.0, 'orphan')"); err != nil {
		t.Fatal(err)
	}
	rows := query(t, db, `SELECT (SELECT SUM(l.quantity) FROM lineitem l WHERE l.partkey = p.partkey) x
	                      FROM part p WHERE p.partkey = 999`)
	if len(rows) != 1 || !rows[0][0].IsNull() {
		t.Errorf("empty scalar subquery should be NULL: %v", rows)
	}
	// NULL comparisons are not truthy: the orphan is filtered out.
	rows = query(t, db, `SELECT p.partkey FROM part p WHERE p.partkey = 999 AND
	       (SELECT SUM(l.quantity) FROM lineitem l WHERE l.partkey = p.partkey) > 0`)
	if len(rows) != 0 {
		t.Errorf("NULL predicate must not pass rows: %v", rows)
	}
}

func TestQueryScalarSubqueryMultiRowFails(t *testing.T) {
	db := testDB(t)
	_, _, _, err := db.Query("SELECT (SELECT partkey FROM part) FROM lineitem")
	if err == nil || !strings.Contains(err.Error(), "more than one row") {
		t.Errorf("expected multi-row error, got %v", err)
	}
}

func TestQueryNullSemantics(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE t (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1), (NULL), (3)"); err != nil {
		t.Fatal(err)
	}
	if rows := query(t, db, "SELECT a FROM t WHERE a > 0"); len(rows) != 2 {
		t.Errorf("NULL must not satisfy a > 0: %v", rows)
	}
	if rows := query(t, db, "SELECT a FROM t WHERE a IS NULL"); len(rows) != 1 {
		t.Errorf("IS NULL: %v", rows)
	}
	if rows := query(t, db, "SELECT a FROM t WHERE a IS NOT NULL"); len(rows) != 2 {
		t.Errorf("IS NOT NULL: %v", rows)
	}
	// Aggregates ignore NULLs; COUNT(*) does not.
	rows := query(t, db, "SELECT COUNT(*), COUNT(a), SUM(a) FROM t")
	if rows[0][0].Int() != 3 || rows[0][1].Int() != 2 || rows[0][2].Int() != 4 {
		t.Errorf("aggregate NULL handling: %v", rows[0])
	}
	// NULL sorts first.
	rows = query(t, db, "SELECT a FROM t ORDER BY a")
	if !rows[0][0].IsNull() {
		t.Errorf("NULL should sort first: %v", rows)
	}
	// Three-valued OR: NULL OR TRUE = TRUE.
	rows = query(t, db, "SELECT a FROM t WHERE a > 100 OR 1 = 1")
	if len(rows) != 3 {
		t.Errorf("OR true: %v", rows)
	}
}

func TestQueryWorkAccounting(t *testing.T) {
	db := testDB(t)
	_, _, workScan, err := db.Query("SELECT * FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	// 200 rows = 4 pages.
	if workScan != 4 {
		t.Errorf("seqscan work = %g U, want 4", workScan)
	}
	_, _, workIdx, err := db.Query("SELECT * FROM lineitem WHERE partkey = 3")
	if err != nil {
		t.Fatal(err)
	}
	if workIdx >= workScan+2 {
		t.Errorf("index scan work %g should beat seqscan %g", workIdx, workScan)
	}
	if workIdx < 1 {
		t.Errorf("index scan must charge at least the probe: %g", workIdx)
	}
}

func TestPlanExposesCost(t *testing.T) {
	db := testDB(t)
	p, err := db.Plan("SELECT * FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if p.EstCost() != 4 {
		t.Errorf("EstCost = %g, want 4 pages", p.EstCost())
	}
}

// TestQueryNestedCorrelationTwoLevels exercises an OuterCol reference that
// crosses two sub-query levels.
func TestQueryNestedCorrelationTwoLevels(t *testing.T) {
	db := testDB(t)
	// For each part, compare its price against a sub-query that itself
	// contains a sub-query referencing the OUTERMOST part row.
	q := `SELECT p.partkey FROM part p WHERE p.retailprice >
	        (SELECT AVG(l.extendedprice) FROM lineitem l WHERE l.partkey =
	            (SELECT MIN(l2.partkey) FROM lineitem l2 WHERE l2.partkey = p.partkey))
	      ORDER BY p.partkey`
	rows, _, _, err := db.Query(q)
	if err != nil {
		t.Fatalf("nested correlation: %v", err)
	}
	// Reference: part k matches rows k, k+20, ..., k+180 with prices
	// 10k, 10(k+20), ...: avg = 10k+900. retailprice = 100+k.
	// 100+k > 10k+900 never holds; adjust: use AVG(l.quantity) instead.
	_ = rows
	q2 := `SELECT p.partkey FROM part p WHERE p.retailprice >
	        (SELECT 30 * AVG(l.quantity) FROM lineitem l WHERE l.partkey =
	            (SELECT MIN(l2.partkey) FROM lineitem l2 WHERE l2.partkey = p.partkey))
	      ORDER BY p.partkey`
	rows2, _, _, err := db.Query(q2)
	if err != nil {
		t.Fatalf("nested correlation 2: %v", err)
	}
	// avg quantity for part k: quantities cycle 1+i%5 over matching rows
	// i = k, k+20, ..., k+180 -> quantity = 1+(k+20j)%5 = 1+(k)%5 when 20j%5=0:
	// all matches share quantity 1+k%5. Threshold: 100+k > 30*(1+k%5).
	var want []int64
	for k := int64(0); k < 20; k++ {
		if float64(100+k) > 30*float64(1+k%5) {
			want = append(want, k)
		}
	}
	if len(rows2) != len(want) {
		t.Fatalf("rows: got %d, want %d", len(rows2), len(want))
	}
	for i, w := range want {
		if rows2[i][0].Int() != w {
			t.Errorf("row %d = %v, want %d", i, rows2[i][0], w)
		}
	}
}

func TestQueryOrderByStringsAndNulls(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE s (name TEXT, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO s VALUES ('beta', 2), (NULL, 0), ('alpha', 1), ('gamma', 3)"); err != nil {
		t.Fatal(err)
	}
	rows := query(t, db, "SELECT name FROM s ORDER BY name")
	if !rows[0][0].IsNull() || rows[1][0].Str() != "alpha" || rows[3][0].Str() != "gamma" {
		t.Errorf("order: %v", rows)
	}
	rows = query(t, db, "SELECT name FROM s ORDER BY name DESC")
	if rows[0][0].Str() != "gamma" || !rows[3][0].IsNull() {
		t.Errorf("desc order: %v", rows)
	}
}

func TestQueryLimitEdgeCases(t *testing.T) {
	db := testDB(t)
	if rows := query(t, db, "SELECT * FROM part LIMIT 0"); len(rows) != 0 {
		t.Errorf("LIMIT 0: %d rows", len(rows))
	}
	if rows := query(t, db, "SELECT * FROM part LIMIT 1000"); len(rows) != 20 {
		t.Errorf("oversized LIMIT: %d rows", len(rows))
	}
}

func TestQueryEmptyTable(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE e (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if rows := query(t, db, "SELECT * FROM e"); len(rows) != 0 {
		t.Errorf("empty scan: %v", rows)
	}
	rows := query(t, db, "SELECT COUNT(*), SUM(a) FROM e")
	if rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Errorf("empty aggregates: %v", rows[0])
	}
	if rows := query(t, db, "SELECT a, COUNT(*) FROM e GROUP BY a"); len(rows) != 0 {
		t.Errorf("empty group by: %v", rows)
	}
	// Cross join with an empty side is empty.
	if _, err := db.Exec("CREATE TABLE f (b BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO f VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if rows := query(t, db, "SELECT * FROM e, f"); len(rows) != 0 {
		t.Errorf("empty×1 join: %v", rows)
	}
	if rows := query(t, db, "SELECT * FROM f, e"); len(rows) != 0 {
		t.Errorf("1×empty join: %v", rows)
	}
}

func TestQuerySubqueryInSelectList(t *testing.T) {
	db := testDB(t)
	rows := query(t, db, `SELECT p.partkey,
	        (SELECT COUNT(*) FROM lineitem l WHERE l.partkey = p.partkey) cnt
	      FROM part p WHERE p.partkey < 3 ORDER BY p.partkey`)
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r[1].Int() != 10 { // 200 rows / 20 parts
			t.Errorf("count for part %v = %v", r[0], r[1])
		}
	}
}

func TestQueryThreeWayJoin(t *testing.T) {
	db := Open()
	for _, stmt := range []string{
		"CREATE TABLE x (a BIGINT)", "CREATE TABLE y (b BIGINT)", "CREATE TABLE z (c BIGINT)",
		"INSERT INTO x VALUES (1), (2)",
		"INSERT INTO y VALUES (10), (20)",
		"INSERT INTO z VALUES (100)",
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	rows := query(t, db, "SELECT a, b, c FROM x, y, z ORDER BY a, b")
	if len(rows) != 4 {
		t.Fatalf("cross product: %d rows", len(rows))
	}
	if rows[0][0].Int() != 1 || rows[0][1].Int() != 10 || rows[0][2].Int() != 100 {
		t.Errorf("first row: %v", rows[0])
	}
}
