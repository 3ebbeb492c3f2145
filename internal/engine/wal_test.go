package engine

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"mqpi/internal/engine/types"
)

// sameQueryResults asserts two databases agree on a set of probes.
func sameQueryResults(t *testing.T, a, b *DB, queries []string) {
	t.Helper()
	for _, src := range queries {
		ra, _, _, err1 := a.Query(src)
		rb, _, _, err2 := b.Query(src)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", src, err1, err2)
		}
		if len(ra) != len(rb) {
			t.Fatalf("%s: %d vs %d rows", src, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].Key() != rb[i].Key() {
				t.Fatalf("%s: row %d: %v vs %v", src, i, ra[i], rb[i])
			}
		}
	}
}

func TestWALRecoverFromEmpty(t *testing.T) {
	var wal bytes.Buffer
	db := Open()
	if err := db.AttachWAL(&wal); err != nil {
		t.Fatal(err)
	}
	stmts := []string{
		"CREATE TABLE t (a BIGINT, b TEXT)",
		"INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')",
		"CREATE INDEX t_a ON t (a)",
		"DELETE FROM t WHERE a = 2",
		"UPDATE t SET b = 'updated' WHERE a = 3",
		"CREATE TABLE u (c DOUBLE)",
		"INSERT INTO u VALUES (1.5)",
		"DROP TABLE u",
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	db.DetachWAL()

	recovered, applied, err := Recover(nil, bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("no records applied")
	}
	sameQueryResults(t, db, recovered, []string{
		"SELECT * FROM t ORDER BY a",
		"SELECT * FROM t WHERE a = 1",
		"SELECT * FROM t WHERE a = 3",
		"SELECT COUNT(*) FROM t",
	})
	// The dropped table stays dropped.
	if _, err := recovered.Catalog().Table("u"); err == nil {
		t.Error("dropped table resurrected")
	}
	// The index was replayed and serves probes.
	if _, ok := recovered.Catalog().IndexOn("t", "a"); !ok {
		t.Error("index missing after replay")
	}
}

func TestWALPlusCheckpoint(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE t (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	// Checkpoint, then log the post-checkpoint mutations.
	var snap bytes.Buffer
	if err := db.Save(&snap); err != nil {
		t.Fatal(err)
	}
	var wal bytes.Buffer
	if err := db.AttachWAL(&wal); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (3)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DELETE FROM t WHERE a = 1"); err != nil {
		t.Fatal(err)
	}
	db.DetachWAL()

	recovered, applied, err := Recover(bytes.NewReader(snap.Bytes()), bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Errorf("applied %d records, want 2", applied)
	}
	sameQueryResults(t, db, recovered, []string{"SELECT * FROM t ORDER BY a"})
}

// TestWALTornTail: replay of a truncated log stops cleanly at the torn
// record instead of failing.
func TestWALTornTail(t *testing.T) {
	var wal bytes.Buffer
	db := Open()
	if err := db.AttachWAL(&wal); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE t (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := db.Exec("INSERT INTO t VALUES (1)"); err != nil {
			t.Fatal(err)
		}
	}
	db.DetachWAL()
	full := wal.Bytes()
	// Cut mid-record (anywhere past the header and first record).
	for _, cut := range []int{len(full) - 1, len(full) - 5, len(full) / 2} {
		recovered, applied, err := Recover(nil, bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if applied < 1 || applied > 11 {
			t.Errorf("cut %d: applied %d", cut, applied)
		}
		rows, _, _, err := recovered.Query("SELECT COUNT(*) FROM t")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if rows[0][0].Int() != int64(applied-1) { // first record created the table
			t.Errorf("cut %d: %v rows vs %d applied", cut, rows[0][0], applied)
		}
	}
}

func TestWALRejectsGarbage(t *testing.T) {
	db := Open()
	if _, err := db.ReplayWAL(bytes.NewReader([]byte("not a wal"))); err == nil {
		t.Error("garbage header accepted")
	}
	// Unknown record type is an error, not a silent stop.
	data := append([]byte("MQWL1"), 0x7f)
	if _, err := db.ReplayWAL(bytes.NewReader(data)); err == nil {
		t.Error("unknown record type accepted")
	}
}

// Property: a random mutation sequence recovers to identical query results,
// including through direct catalog inserts (the workload generator's path).
func TestWALRandomSequenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var wal bytes.Buffer
		db := Open()
		if err := db.AttachWAL(&wal); err != nil {
			return false
		}
		if _, err := db.Exec("CREATE TABLE t (a BIGINT, b DOUBLE)"); err != nil {
			return false
		}
		cat := db.Catalog()
		live := 0
		for op := 0; op < 200; op++ {
			switch {
			case live == 0 || rng.Intn(3) > 0:
				row := types.Row{types.NewInt(int64(rng.Intn(50))), types.NewFloat(rng.Float64())}
				if err := cat.Insert("t", row); err != nil {
					return false
				}
				live++
			default:
				if _, err := db.Exec("DELETE FROM t WHERE a = " + types.NewInt(int64(rng.Intn(50))).String()); err != nil {
					return false
				}
				rows, _, _, err := db.Query("SELECT COUNT(*) FROM t")
				if err != nil {
					return false
				}
				live = int(rows[0][0].Int())
			}
		}
		db.DetachWAL()
		recovered, _, err := Recover(nil, bytes.NewReader(wal.Bytes()))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		a, _, _, err1 := db.Query("SELECT * FROM t ORDER BY a, b")
		b, _, _, err2 := recovered.Query("SELECT * FROM t ORDER BY a, b")
		if err1 != nil || err2 != nil || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Key() != b[i].Key() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
