package workload

import (
	"strings"
	"testing"

	"mqpi/internal/engine/sql"
)

func smallData(t *testing.T) *Dataset {
	t.Helper()
	ds, err := BuildDataset(DataConfig{LineitemRows: 6000, MatchesPerKey: 30, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildDatasetShape(t *testing.T) {
	ds := smallData(t)
	cat := ds.DB.Catalog()
	li, err := cat.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if li.Rel.NumRows() != 6000 {
		t.Errorf("lineitem rows = %d", li.Rel.NumRows())
	}
	if ds.MaxPartKey != 200 {
		t.Errorf("MaxPartKey = %d, want 6000/30", ds.MaxPartKey)
	}
	if _, ok := cat.IndexOn("lineitem", "partkey"); !ok {
		t.Error("partkey index missing")
	}
	if cat.TableStats("lineitem") == nil {
		t.Error("stats missing after build")
	}
	// Keys live in [1, MaxPartKey].
	st := cat.TableStats("lineitem")
	if st.Cols["partkey"].Min.Int() < 1 || st.Cols["partkey"].Max.Int() > ds.MaxPartKey {
		t.Errorf("key range: %v..%v", st.Cols["partkey"].Min, st.Cols["partkey"].Max)
	}
}

func TestCreatePartTable(t *testing.T) {
	ds := smallData(t)
	if err := ds.CreatePartTable(1, 5); err != nil {
		t.Fatal(err)
	}
	cat := ds.DB.Catalog()
	pt, err := cat.Table("part_1")
	if err != nil {
		t.Fatal(err)
	}
	if pt.Rel.NumRows() != 50 {
		t.Errorf("part_1 rows = %d, want 10×N", pt.Rel.NumRows())
	}
	// All partkeys distinct.
	seen := map[int64]bool{}
	for p := 0; p < pt.Rel.NumPages(); p++ {
		for _, row := range pt.Rel.Page(p) {
			k := row[0].Int()
			if seen[k] {
				t.Fatalf("duplicate partkey %d", k)
			}
			if k < 1 || k > ds.MaxPartKey {
				t.Fatalf("partkey %d out of range", k)
			}
			seen[k] = true
		}
	}
	if cat.TableStats("part_1") == nil {
		t.Error("part stats missing")
	}
	// Recreating replaces the table.
	if err := ds.CreatePartTable(1, 3); err != nil {
		t.Fatal(err)
	}
	pt, _ = cat.Table("part_1")
	if pt.Rel.NumRows() != 30 {
		t.Errorf("recreated part_1 rows = %d", pt.Rel.NumRows())
	}
}

func TestCreatePartTableErrors(t *testing.T) {
	ds := smallData(t)
	if err := ds.CreatePartTable(1, 0); err == nil {
		t.Error("N=0 should fail")
	}
	// 10×N must fit within the distinct key space (200 here).
	if err := ds.CreatePartTable(2, 21); err == nil {
		t.Error("oversized part table should fail")
	}
}

func TestDropPartTable(t *testing.T) {
	ds := smallData(t)
	if err := ds.CreatePartTable(7, 2); err != nil {
		t.Fatal(err)
	}
	if err := ds.DropPartTable(7); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.DB.Catalog().Table("part_7"); err == nil {
		t.Error("table should be gone")
	}
	// Dropping a non-existent table is a no-op.
	if err := ds.DropPartTable(7); err != nil {
		t.Errorf("double drop: %v", err)
	}
}

func TestQuerySQLParsesAndRuns(t *testing.T) {
	ds := smallData(t)
	if err := ds.CreatePartTable(1, 4); err != nil {
		t.Fatal(err)
	}
	src := QuerySQL(1)
	if !strings.Contains(src, "part_1") || !strings.Contains(src, "0.75") {
		t.Errorf("query text: %s", src)
	}
	if _, err := sql.ParseSelect(src); err != nil {
		t.Fatalf("query does not parse: %v", err)
	}
	rows, _, work, err := ds.DB.Query(src)
	if err != nil {
		t.Fatalf("query failed: %v", err)
	}
	// The predicate is selective but not empty or total for this seed.
	if len(rows) == 0 || len(rows) == 40 {
		t.Logf("note: predicate passed %d/40 rows", len(rows))
	}
	if work <= 0 {
		t.Error("no work accounted")
	}
	// Cost is dominated by the 40 correlated probes.
	if work < 40 {
		t.Errorf("work = %g U, expected at least one probe per part row", work)
	}
}

func TestMatchesPerKeyApproximation(t *testing.T) {
	ds := smallData(t)
	cat := ds.DB.Catalog()
	bt, _ := cat.IndexOn("lineitem", "partkey")
	total := 0
	for k := int64(1); k <= ds.MaxPartKey; k++ {
		total += len(bt.SearchEq(k).RowIDs)
	}
	avg := float64(total) / float64(ds.MaxPartKey)
	if avg < 25 || avg > 35 {
		t.Errorf("avg matches per key = %g, want ~30", avg)
	}
}

func TestPartTableNameFormat(t *testing.T) {
	if PartTableName(12) != "part_12" {
		t.Errorf("name: %s", PartTableName(12))
	}
}

func TestDatasetDefaults(t *testing.T) {
	cfg := DataConfig{}.withDefaults()
	if cfg.LineitemRows != 120000 || cfg.MatchesPerKey != 30 {
		t.Errorf("defaults: %+v", cfg)
	}
}
