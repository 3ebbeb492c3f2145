package catalog

import (
	"strings"
	"testing"

	"mqpi/internal/engine/storage"
	"mqpi/internal/engine/types"
)

func schemaAB() types.Schema {
	return types.NewSchema(
		types.Column{Name: "a", Type: types.KindInt},
		types.Column{Name: "b", Type: types.KindFloat},
	)
}

func TestCreateAndLookup(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("T1", schemaAB()); err != nil {
		t.Fatal(err)
	}
	// Lookup is case-insensitive.
	if _, err := c.Table("t1"); err != nil {
		t.Errorf("lowercase lookup failed: %v", err)
	}
	if _, err := c.Table("T1"); err != nil {
		t.Errorf("original-case lookup failed: %v", err)
	}
	if _, err := c.CreateTable("t1", schemaAB()); err == nil {
		t.Error("duplicate create should fail")
	}
	if _, err := c.Table("nope"); err == nil {
		t.Error("missing table lookup should fail")
	}
}

func TestDropTable(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("t", schemaAB()); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("t"); err == nil {
		t.Error("dropped table still visible")
	}
	if err := c.DropTable("t"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestTableNamesSorted(t *testing.T) {
	c := New()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := c.CreateTable(n, schemaAB()); err != nil {
			t.Fatal(err)
		}
	}
	got := c.TableNames()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("TableNames = %v", got)
	}
}

func TestInsertMaintainsIndex(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("t", schemaAB()); err != nil {
		t.Fatal(err)
	}
	// Rows before index creation are indexed at build time...
	if err := c.Insert("t", types.Row{types.NewInt(1), types.NewFloat(0.5)}); err != nil {
		t.Fatal(err)
	}
	bt, err := c.CreateIndex("idx", "t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if bt.Len() != 1 {
		t.Errorf("index built with %d entries", bt.Len())
	}
	// ...and later inserts are maintained incrementally.
	if err := c.Insert("t", types.Row{types.NewInt(2), types.NewFloat(1.5)}); err != nil {
		t.Fatal(err)
	}
	if bt.Len() != 2 {
		t.Errorf("index has %d entries after insert", bt.Len())
	}
	if got := bt.SearchEq(2); len(got.RowIDs) != 1 {
		t.Errorf("SearchEq(2) = %v", got.RowIDs)
	}
	// NULL keys are skipped.
	if err := c.Insert("t", types.Row{types.Null, types.NewFloat(2.0)}); err != nil {
		t.Fatal(err)
	}
	if bt.Len() != 2 {
		t.Errorf("NULL key should not be indexed, len=%d", bt.Len())
	}
}

func TestCreateIndexErrors(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("t", schemaAB()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("i", "missing", "a"); err == nil {
		t.Error("index on missing table should fail")
	}
	if _, err := c.CreateIndex("i", "t", "b"); err == nil {
		t.Error("index on non-integer column should fail")
	}
	if _, err := c.CreateIndex("i", "t", "nope"); err == nil {
		t.Error("index on missing column should fail")
	}
	if _, err := c.CreateIndex("i", "t", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("i2", "t", "a"); err == nil {
		t.Error("duplicate index on same column should fail")
	}
}

func TestIndexOn(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("t", schemaAB()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.IndexOn("t", "a"); ok {
		t.Error("no index yet")
	}
	if _, err := c.CreateIndex("i", "t", "a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.IndexOn("t", "A"); !ok {
		t.Error("IndexOn should be case-insensitive")
	}
	if _, ok := c.IndexOn("missing", "a"); ok {
		t.Error("IndexOn missing table should be false")
	}
}

func TestAnalyze(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("t", schemaAB()); err != nil {
		t.Fatal(err)
	}
	vals := []struct {
		a int64
		b float64
	}{{5, 1.0}, {3, 2.0}, {5, 3.0}, {9, 4.0}}
	for _, v := range vals {
		if err := c.Insert("t", types.Row{types.NewInt(v.a), types.NewFloat(v.b)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Insert("t", types.Row{types.Null, types.NewFloat(5)}); err != nil {
		t.Fatal(err)
	}
	if st := c.TableStats("t"); st != nil {
		t.Error("stats should be nil before Analyze")
	}
	if err := c.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	st := c.TableStats("t")
	if st == nil {
		t.Fatal("no stats after Analyze")
	}
	if st.RowCount != 5 {
		t.Errorf("RowCount = %d", st.RowCount)
	}
	cs := st.Cols["a"]
	if cs.Distinct != 3 {
		t.Errorf("distinct(a) = %d, want 3", cs.Distinct)
	}
	if cs.Min.Int() != 3 || cs.Max.Int() != 9 {
		t.Errorf("min/max(a) = %v/%v", cs.Min, cs.Max)
	}
	if cs.NullFrac != 0.2 {
		t.Errorf("nullfrac(a) = %g, want 0.2", cs.NullFrac)
	}
	if err := c.Analyze("missing"); err == nil {
		t.Error("Analyze on missing table should fail")
	}
}

func TestAnalyzeAll(t *testing.T) {
	c := New()
	for _, n := range []string{"x", "y"} {
		if _, err := c.CreateTable(n, schemaAB()); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	if c.TableStats("x") == nil || c.TableStats("y") == nil {
		t.Error("AnalyzeAll should populate all stats")
	}
}

func TestInsertIntoMissingTable(t *testing.T) {
	c := New()
	err := c.Insert("nope", types.Row{types.NewInt(1)})
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestIndexKeysMustBeIntegers: the B+-tree keys on int64, so a value of
// another kind in an indexed column is refused, whether the index comes
// first or the row does, and nothing is logged for it.
func TestIndexKeysMustBeIntegers(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("t", schemaAB()); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("t", types.Row{types.NewString("x"), types.NewFloat(1)}); err != nil {
		t.Fatal(err)
	}
	var log recorder
	c.SetObserver(&log)
	if _, err := c.CreateIndex("t_a", "t", "a"); err == nil {
		t.Fatal("an index over a string key was built")
	}
	if err := c.Delete("t", storage.RowID{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("t_a", "t", "a"); err != nil {
		t.Fatalf("a dead row's key blocked the index: %v", err)
	}
	if err := c.Insert("t", types.Row{types.NewFloat(1.5), types.NewFloat(1)}); err == nil {
		t.Error("a float key went into the index")
	}
	if err := c.Insert("t", types.Row{types.Null, types.NewFloat(1)}); err != nil {
		t.Errorf("a NULL key was refused: %v", err)
	}
	if want := []string{"delete", "index", "insert"}; strings.Join(log, ",") != strings.Join(want, ",") {
		t.Errorf("logged %v, want %v", log, want)
	}
}

// recorder is an Observer that notes the kind of each mutation.
type recorder []string

func (r *recorder) OnCreateTable(string, types.Schema) error { *r = append(*r, "create"); return nil }
func (r *recorder) OnDropTable(string) error                 { *r = append(*r, "drop"); return nil }
func (r *recorder) OnCreateIndex(string, string, string) error {
	*r = append(*r, "index")
	return nil
}
func (r *recorder) OnInsert(string, types.Row) error     { *r = append(*r, "insert"); return nil }
func (r *recorder) OnDelete(string, storage.RowID) error { *r = append(*r, "delete"); return nil }
