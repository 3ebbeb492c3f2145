package engine

// Checkpoints: the whole catalog written as the redo log that rebuilds it
// (wal.go holds the format). This is the maintenance-scenario companion:
// after the paper's scheduled maintenance (§3.3) the RDBMS restarts and
// aborted queries are rerun against the reloaded database.

import (
	"errors"
	"io"
	"sort"

	"mqpi/internal/engine/storage"
)

// Save writes the database to w as a checkpoint: per table, in name order,
// its creation, one insert per physical slot (each dead slot deleted right
// after it), its indexes in column order, and an analyze record if it has
// statistics; then an end record.
func (db *DB) Save(w io.Writer) error {
	e := newEncoder(w)
	for _, name := range db.cat.TableNames() {
		t, err := db.cat.Table(name)
		if err != nil {
			return err
		}
		e.createTable(name, t.Rel.Schema())
		for p := 0; p < t.Rel.NumPages(); p++ {
			for s, row := range t.Rel.Page(p) {
				e.insert(name, row)
				if rid := (storage.RowID{Page: p, Slot: s}); !t.Rel.Live(rid) {
					e.delete(name, rid)
				}
			}
		}
		// Indexes are rebuilt from the loaded rows (cheaper to recreate than
		// to serialize tree pages, and guaranteed consistent).
		cols := make([]string, 0, len(t.Indexes))
		for col := range t.Indexes {
			cols = append(cols, col)
		}
		sort.Strings(cols)
		for _, col := range cols {
			e.createIndex(t.Indexes[col].Name(), name, col)
		}
		if db.cat.TableStats(name) != nil {
			e.analyze(name)
		}
	}
	e.w.WriteByte(recEnd)
	return e.w.Flush()
}

// Load reads a checkpoint into a fresh database. Unlike a log, a checkpoint
// must be whole: a torn record or a missing end record is an error.
func Load(r io.Reader) (*DB, error) {
	db := Open()
	_, ended, err := db.replay(r, true)
	if err != nil {
		return nil, err
	}
	if !ended {
		return nil, errors.New("engine: checkpoint has no end record")
	}
	return db, nil
}

// Recover rebuilds a database from a checkpoint plus the WAL written since
// that checkpoint, and returns how many WAL records it applied. Either
// reader may be nil (no checkpoint: start empty; no WAL: checkpoint only).
// Statistics are re-collected for every table that had them in the
// checkpoint; re-run Analyze after heavy replay.
func Recover(snapshot, wal io.Reader) (*DB, int, error) {
	db := Open()
	if snapshot != nil {
		var err error
		if db, err = Load(snapshot); err != nil {
			return nil, 0, err
		}
	}
	if wal == nil {
		return db, 0, nil
	}
	applied, err := db.ReplayWAL(wal)
	if err != nil {
		return nil, applied, err
	}
	return db, applied, nil
}
