package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mqpi/internal/engine/storage"
	"mqpi/internal/engine/types"
)

// layout renders everything a checkpoint keeps of db, in order: each table's
// schema, indexes and whether it has statistics, then every physical slot
// with its liveness and row.
func layout(db *DB) string {
	var b strings.Builder
	cat := db.Catalog()
	for _, name := range cat.TableNames() {
		t, err := cat.Table(name)
		if err != nil {
			panic(err)
		}
		var idx []string
		for col, bt := range t.Indexes {
			idx = append(idx, bt.Name()+"("+col+")")
		}
		sort.Strings(idx)
		fmt.Fprintf(&b, "table %q %v indexes %q analyzed %t\n", name, t.Rel.Schema().Cols, idx, cat.TableStats(name) != nil)
		for p := 0; p < t.Rel.NumPages(); p++ {
			for s, row := range t.Rel.Page(p) {
				rid := storage.RowID{Page: p, Slot: s}
				fmt.Fprintf(&b, "  %v live=%t %s\n", rid, t.Rel.Live(rid), row.Key())
			}
		}
	}
	return b.String()
}

// sameLayout fails the test at the first line where the layouts of got and
// want differ.
func sameLayout(t *testing.T, what string, got, want *DB) {
	t.Helper()
	g, w := strings.Split(layout(got), "\n"), strings.Split(layout(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			t.Fatalf("%s: layouts differ at line %d (%d vs %d lines):\n got %q\nwant %q", what, i+1, len(g), len(w), at(g, i), at(w, i))
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end>"
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same tables.
	n1, n2 := db.Catalog().TableNames(), db2.Catalog().TableNames()
	if strings.Join(n1, ",") != strings.Join(n2, ",") {
		t.Fatalf("tables: %v vs %v", n1, n2)
	}
	// Identical query results, including through the rebuilt index.
	queries := []string{
		"SELECT * FROM part ORDER BY partkey",
		"SELECT * FROM lineitem WHERE partkey = 7 ORDER BY extendedprice",
		"SELECT quantity, COUNT(*), SUM(extendedprice) FROM lineitem GROUP BY quantity ORDER BY quantity",
	}
	for _, src := range queries {
		a := query(t, db, src)
		b := query(t, db2, src)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d rows", src, len(a), len(b))
		}
		for i := range a {
			if a[i].Key() != b[i].Key() {
				t.Fatalf("%s: row %d differs: %v vs %v", src, i, a[i], b[i])
			}
		}
	}
	// Statistics were re-collected (testDB analyzed the original).
	if db2.Catalog().TableStats("lineitem") == nil {
		t.Error("stats not restored")
	}
	// Plans agree on cost (same data, same stats).
	p1, err := db.Plan("SELECT * FROM lineitem WHERE partkey = 3")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := db2.Plan("SELECT * FROM lineitem WHERE partkey = 3")
	if err != nil {
		t.Fatal(err)
	}
	if p1.EstCost() != p2.EstCost() {
		t.Errorf("plan costs differ after reload: %g vs %g", p1.EstCost(), p2.EstCost())
	}
}

// Property: any random database round-trips exactly.
func TestSnapshotRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := Open()
		if _, err := db.Exec("CREATE TABLE r (a BIGINT, b DOUBLE, c TEXT, d BOOLEAN)"); err != nil {
			return false
		}
		cat := db.Catalog()
		n := rng.Intn(300)
		for i := 0; i < n; i++ {
			row := types.Row{
				randValue(rng, types.KindInt),
				randValue(rng, types.KindFloat),
				randValue(rng, types.KindString),
				randValue(rng, types.KindBool),
			}
			if err := cat.Insert("r", row); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			return false
		}
		db2, err := Load(&buf)
		if err != nil {
			t.Logf("seed %d: load: %v", seed, err)
			return false
		}
		a, _, _, err1 := db.Query("SELECT * FROM r")
		b, _, _, err2 := db2.Query("SELECT * FROM r")
		if err1 != nil || err2 != nil || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Key() != b[i].Key() {
				t.Logf("seed %d: row %d: %v vs %v", seed, i, a[i], b[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func randValue(rng *rand.Rand, kind types.Kind) types.Value {
	if rng.Intn(8) == 0 {
		return types.Null
	}
	switch kind {
	case types.KindInt:
		return types.NewInt(rng.Int63() - rng.Int63())
	case types.KindFloat:
		return types.NewFloat(rng.NormFloat64() * 1e6)
	case types.KindString:
		b := make([]byte, rng.Intn(20))
		for i := range b {
			b[i] = byte(32 + rng.Intn(95))
		}
		return types.NewString(string(b))
	default:
		return types.NewBool(rng.Intn(2) == 0)
	}
}

// TestSnapshotKeepsTombstoneLayout: a reloaded relation keeps its dead slots,
// so every RowID names the same tuple before and after the checkpoint.
func TestSnapshotKeepsTombstoneLayout(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("DELETE FROM lineitem WHERE partkey < 10"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameLayout(t, "reloaded", db2, db)
	li, err := db2.Catalog().Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if li.Rel.NumSlots() != 200 || li.Rel.NumRows() != 100 {
		t.Errorf("reloaded lineitem: %d slots, %d rows; want 200, 100", li.Rel.NumSlots(), li.Rel.NumRows())
	}
}

// randomStep runs one random statement against db: DDL (create or drop a
// table, create an index) or DML (INSERT, DELETE, UPDATE) on one of three
// tables.
func randomStep(t *testing.T, rng *rand.Rand, db *DB) {
	t.Helper()
	name := fmt.Sprintf("r%d", rng.Intn(3))
	_, err := db.Catalog().Table(name)
	var stmt string
	switch op := rng.Intn(10); {
	case err != nil:
		stmt = "CREATE TABLE " + name + " (a BIGINT, d BIGINT, b DOUBLE, c TEXT)"
	case op < 4:
		rows := make([]string, 1+rng.Intn(30))
		for i := range rows {
			a := fmt.Sprint(rng.Intn(20))
			if rng.Intn(10) == 0 {
				a = "NULL"
			}
			rows[i] = fmt.Sprintf("(%s, %d, %d.5, 'v%d')", a, rng.Intn(20), rng.Intn(100), rng.Intn(5))
		}
		stmt = "INSERT INTO " + name + " VALUES " + strings.Join(rows, ", ")
	case op < 6:
		stmt = fmt.Sprintf("DELETE FROM %s WHERE a = %d", name, rng.Intn(20))
	case op < 8:
		stmt = fmt.Sprintf("UPDATE %s SET b = b + 1, d = %d WHERE a < %d", name, rng.Intn(20), rng.Intn(8))
	case op == 8:
		col := []string{"a", "d"}[rng.Intn(2)]
		if _, ok := db.Catalog().IndexOn(name, col); ok {
			return
		}
		stmt = fmt.Sprintf("CREATE INDEX %s_%s ON %s (%s)", name, col, name, col)
	default:
		if rng.Intn(3) > 0 {
			return
		}
		stmt = "DROP TABLE " + name
	}
	if _, err := db.Exec(stmt); err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
}

// samePlanCosts fails unless got and want price a few plans over each table
// alike.
func samePlanCosts(t *testing.T, what string, got, want *DB) {
	t.Helper()
	names := want.Catalog().TableNames()
	var srcs []string
	for _, name := range names {
		srcs = append(srcs,
			"SELECT * FROM "+name+" WHERE a = 7",
			"SELECT COUNT(*) FROM "+name+" WHERE d < 5")
	}
	if len(names) >= 2 {
		srcs = append(srcs, "SELECT * FROM "+names[0]+" x, "+names[1]+" y WHERE x.a = y.d")
	}
	for _, src := range srcs {
		pg, err1 := got.Plan(src)
		pw, err2 := want.Plan(src)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %s: %v / %v", what, src, err1, err2)
		}
		if pg.EstCost() != pw.EstCost() {
			t.Fatalf("%s: %s costs %g, want %g", what, src, pg.EstCost(), pw.EstCost())
		}
	}
}

// TestCheckpointThenLogRandom: a checkpoint taken at a random step of random
// DDL and DML, plus the log attached right after it, recovers the live
// database exactly — the same tables, every slot in the same place (dead ones
// included) and the same plan costs, before and after ANALYZE.
func TestCheckpointThenLogRandom(t *testing.T) {
	const steps = 120
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := Open()
		cut := rng.Intn(steps + 1)
		var snap, wal bytes.Buffer
		for step := 0; step <= steps; step++ {
			if step == cut {
				if err := db.Save(&snap); err != nil {
					t.Fatal(err)
				}
				if err := db.AttachWAL(&wal); err != nil {
					t.Fatal(err)
				}
			}
			if step < steps {
				randomStep(t, rng, db)
			}
		}
		db.DetachWAL()
		what := fmt.Sprintf("seed %d, checkpoint at step %d", seed, cut)
		recovered, _, err := Recover(bytes.NewReader(snap.Bytes()), bytes.NewReader(wal.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		sameLayout(t, what, recovered, db)
		samePlanCosts(t, what, recovered, db)
		if err := db.Analyze(); err != nil {
			t.Fatal(err)
		}
		if err := recovered.Analyze(); err != nil {
			t.Fatal(err)
		}
		samePlanCosts(t, what+", analyzed", recovered, db)
	}
}

// TestSaveIsDeterministic: one state has one checkpoint, byte for byte,
// whatever order the index map iterates in.
func TestSaveIsDeterministic(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("CREATE INDEX li_qty ON lineitem (quantity)"); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := db.Save(&first); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 20; i++ {
		var again bytes.Buffer
		if err := db.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("save %d differs from the first", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("nope"),
		[]byte("MQWL1"), // a header and no end record
		append([]byte("MQWL1"), 0xff, 0xff, 0xff, 0xff), // an unknown record type
	}
	for i, data := range cases {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestLoadRejectsTruncatedSnapshot(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{len(data) / 4, len(data) / 2, len(data) - 3} {
		if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestSnapshotEmptyDatabase(t *testing.T) {
	var buf bytes.Buffer
	if err := Open().Save(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Catalog().TableNames()) != 0 {
		t.Error("empty database should stay empty")
	}
}
