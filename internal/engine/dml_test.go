package engine

import "testing"

func TestDeleteBasic(t *testing.T) {
	db := testDB(t)
	n, err := db.Exec("DELETE FROM part WHERE partkey < 5")
	if err != nil || n != 5 {
		t.Fatalf("delete: %d, %v", n, err)
	}
	rows := query(t, db, "SELECT COUNT(*) FROM part")
	if rows[0][0].Int() != 15 {
		t.Errorf("remaining: %v", rows[0])
	}
	// Deleted rows are invisible to filters and joins.
	if rows := query(t, db, "SELECT * FROM part WHERE partkey = 3"); len(rows) != 0 {
		t.Errorf("deleted row visible: %v", rows)
	}
}

func TestDeleteAll(t *testing.T) {
	db := testDB(t)
	n, err := db.Exec("DELETE FROM part")
	if err != nil || n != 20 {
		t.Fatalf("delete all: %d, %v", n, err)
	}
	if rows := query(t, db, "SELECT * FROM part"); len(rows) != 0 {
		t.Errorf("rows remain: %v", rows)
	}
	// Re-insert works after full delete.
	if _, err := db.Exec("INSERT INTO part VALUES (100, 1.0, 'new')"); err != nil {
		t.Fatal(err)
	}
	if rows := query(t, db, "SELECT * FROM part"); len(rows) != 1 {
		t.Errorf("re-insert: %v", rows)
	}
}

func TestDeleteThroughIndex(t *testing.T) {
	db := testDB(t)
	// Delete some lineitem rows; index probes must skip the tombstones.
	n, err := db.Exec("DELETE FROM lineitem WHERE partkey = 7 AND quantity = 3")
	if err != nil || n == 0 {
		t.Fatalf("delete: %d, %v", n, err)
	}
	rows := query(t, db, "SELECT * FROM lineitem WHERE partkey = 7")
	if len(rows) != 10-n {
		t.Errorf("index scan after delete: %d rows, want %d", len(rows), 10-n)
	}
	for _, r := range rows {
		if r[1].Int() == 3 {
			t.Errorf("deleted row returned by index scan: %v", r)
		}
	}
}

func TestDeleteWithCorrelatedSubquery(t *testing.T) {
	db := testDB(t)
	// Delete parts with total revenue above a threshold (k > 10, see
	// TestQueryCorrelatedSubquery).
	n, err := db.Exec(`DELETE FROM part WHERE
	    (SELECT SUM(l.extendedprice) FROM lineitem l WHERE l.partkey = part.partkey) > 10000`)
	if err != nil || n != 9 {
		t.Fatalf("correlated delete: %d, %v", n, err)
	}
	rows := query(t, db, "SELECT COUNT(*) FROM part")
	if rows[0][0].Int() != 11 {
		t.Errorf("remaining: %v", rows[0])
	}
}

func TestUpdateBasic(t *testing.T) {
	db := testDB(t)
	n, err := db.Exec("UPDATE part SET retailprice = retailprice * 2 WHERE partkey < 3")
	if err != nil || n != 3 {
		t.Fatalf("update: %d, %v", n, err)
	}
	rows := query(t, db, "SELECT retailprice FROM part WHERE partkey = 2")
	if len(rows) != 1 || rows[0][0].Float() != 204 {
		t.Errorf("updated price: %v", rows)
	}
	// Untouched rows unchanged.
	rows = query(t, db, "SELECT retailprice FROM part WHERE partkey = 5")
	if rows[0][0].Float() != 105 {
		t.Errorf("untouched price: %v", rows)
	}
	// Total count is preserved.
	rows = query(t, db, "SELECT COUNT(*) FROM part")
	if rows[0][0].Int() != 20 {
		t.Errorf("count after update: %v", rows[0])
	}
}

func TestUpdateMultipleColumns(t *testing.T) {
	db := testDB(t)
	n, err := db.Exec("UPDATE part SET retailprice = 1.0, name = 'cheap' WHERE partkey = 4")
	if err != nil || n != 1 {
		t.Fatalf("update: %d, %v", n, err)
	}
	rows := query(t, db, "SELECT retailprice, name FROM part WHERE partkey = 4")
	if rows[0][0].Float() != 1.0 || rows[0][1].Str() != "cheap" {
		t.Errorf("row: %v", rows[0])
	}
}

func TestUpdateIndexedColumn(t *testing.T) {
	db := testDB(t)
	// Move all lineitem rows from partkey 3 to partkey 777; the index must
	// serve the new key and not the old one.
	n, err := db.Exec("UPDATE lineitem SET partkey = 777 WHERE partkey = 3")
	if err != nil || n != 10 {
		t.Fatalf("update: %d, %v", n, err)
	}
	if rows := query(t, db, "SELECT * FROM lineitem WHERE partkey = 3"); len(rows) != 0 {
		t.Errorf("old key still matches: %v", rows)
	}
	if rows := query(t, db, "SELECT * FROM lineitem WHERE partkey = 777"); len(rows) != 10 {
		t.Errorf("new key: %d rows", len(rows))
	}
}

func TestUpdateSeesPreUpdateState(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE t (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	// Every row becomes the pre-update total: the sub-query must not see
	// partially updated rows.
	n, err := db.Exec("UPDATE t SET a = (SELECT SUM(x.a) FROM t x)")
	if err != nil || n != 3 {
		t.Fatalf("update: %d, %v", n, err)
	}
	rows := query(t, db, "SELECT a FROM t")
	for _, r := range rows {
		if r[0].Int() != 6 {
			t.Errorf("row: %v, want 6", r)
		}
	}
}

func TestDMLErrors(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("DELETE FROM missing"); err == nil {
		t.Error("delete from missing table should fail")
	}
	if _, err := db.Exec("UPDATE part SET nope = 1"); err == nil {
		t.Error("update of unknown column should fail")
	}
	if _, err := db.Exec("UPDATE part SET retailprice = nope"); err == nil {
		t.Error("unknown column in SET expression should fail")
	}
	if _, err := db.Exec("DELETE FROM part WHERE nope = 1"); err == nil {
		t.Error("unknown column in predicate should fail")
	}
}

func TestAnalyzeAfterDelete(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("DELETE FROM part WHERE partkey >= 10"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	st := db.Catalog().TableStats("part")
	if st.RowCount != 10 {
		t.Errorf("stats rowcount = %d, want 10", st.RowCount)
	}
	if st.Cols["partkey"].Max.Int() != 9 {
		t.Errorf("stats max = %v", st.Cols["partkey"].Max)
	}
}

func TestSelectDistinct(t *testing.T) {
	db := testDB(t)
	rows := query(t, db, "SELECT DISTINCT quantity FROM lineitem ORDER BY quantity")
	if len(rows) != 5 {
		t.Fatalf("distinct quantities: %d", len(rows))
	}
	for i, r := range rows {
		if r[0].Int() != int64(i+1) {
			t.Errorf("row %d: %v", i, r)
		}
	}
	// DISTINCT over multiple columns.
	// quantity = 1+i%5 is fully determined by partkey = i%20 here, so the
	// only pairs with partkey < 2 are (0,1) and (1,2).
	rows = query(t, db, "SELECT DISTINCT partkey, quantity FROM lineitem WHERE partkey < 2")
	if len(rows) != 2 {
		t.Errorf("multi-column distinct: %d rows", len(rows))
	}
	// DISTINCT with no duplicates is a no-op.
	rows = query(t, db, "SELECT DISTINCT partkey FROM part")
	if len(rows) != 20 {
		t.Errorf("distinct partkeys: %d", len(rows))
	}
}

func TestExistsSubquery(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("INSERT INTO part VALUES (500, 9.0, 'orphan')"); err != nil {
		t.Fatal(err)
	}
	// Parts with at least one lineitem.
	rows := query(t, db, `SELECT COUNT(*) FROM part p WHERE EXISTS
	    (SELECT * FROM lineitem l WHERE l.partkey = p.partkey)`)
	if rows[0][0].Int() != 20 {
		t.Errorf("EXISTS count: %v", rows[0])
	}
	// NOT EXISTS finds the orphan.
	rows = query(t, db, `SELECT p.name FROM part p WHERE NOT EXISTS
	    (SELECT * FROM lineitem l WHERE l.partkey = p.partkey)`)
	if len(rows) != 1 || rows[0][0].Str() != "orphan" {
		t.Errorf("NOT EXISTS: %v", rows)
	}
	// Uncorrelated EXISTS.
	rows = query(t, db, "SELECT COUNT(*) FROM part WHERE EXISTS (SELECT * FROM lineitem)")
	if rows[0][0].Int() != 21 {
		t.Errorf("uncorrelated EXISTS: %v", rows[0])
	}
	rows = query(t, db, "SELECT COUNT(*) FROM part WHERE EXISTS (SELECT * FROM lineitem WHERE partkey = 12345)")
	if rows[0][0].Int() != 0 {
		t.Errorf("empty EXISTS: %v", rows[0])
	}
}

func TestExistsInDelete(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("INSERT INTO part VALUES (500, 9.0, 'orphan')"); err != nil {
		t.Fatal(err)
	}
	n, err := db.Exec(`DELETE FROM part WHERE NOT EXISTS
	    (SELECT * FROM lineitem l WHERE l.partkey = part.partkey)`)
	if err != nil || n != 1 {
		t.Fatalf("delete orphans: %d, %v", n, err)
	}
}
