package engine

// Write-ahead logging: a logical redo log of catalog mutations. Combined
// with snapshots this gives point-in-time recovery — Recover(snapshot, wal)
// rebuilds the database a crash interrupted:
//
//	wal, _ := os.Create("db.wal")
//	db.AttachWAL(wal)            // every mutation is logged before applying
//	...
//	db.Save(checkpoint)          // checkpoint; a fresh WAL can start here
//
// Records are self-delimiting; replay stops cleanly at a torn tail (the
// partial record a crash may leave), so recovery never fails on the
// artifacts of the crash it exists to survive.
//
// Record formats (after the "MQWL1" header):
//
//	0x01 create-table: str name, u32 cols, per col (str name, u8 kind)
//	0x02 drop-table:   str name
//	0x03 create-index: str idxName, str table, str column
//	0x04 insert:       str table, u32 cols, values
//	0x05 delete:       str table, u32 page, u32 slot
//
// Simplifications vs a production WAL, documented deliberately: no fsync
// control (callers own the file), no LSNs (the snapshot/WAL pairing is
// positional: attach a fresh WAL right after a checkpoint), and statistics
// are not logged (re-run ANALYZE after recovery).

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"mqpi/internal/engine/catalog"
	"mqpi/internal/engine/storage"
	"mqpi/internal/engine/types"
)

var walMagic = []byte("MQWL1")

const (
	walCreateTable byte = 0x01
	walDropTable   byte = 0x02
	walCreateIndex byte = 0x03
	walInsert      byte = 0x04
	walDelete      byte = 0x05
)

// WAL is a catalog.Observer that appends a logical redo record for every
// mutation before it is applied.
type WAL struct {
	w *bufio.Writer
}

// NewWAL writes the header and returns a ready log.
func NewWAL(w io.Writer) (*WAL, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(walMagic); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return &WAL{w: bw}, nil
}

func (l *WAL) record(f func() error) error {
	if err := f(); err != nil {
		return fmt.Errorf("engine: wal append: %w", err)
	}
	// Flush per record: the write-ahead property is only as strong as the
	// buffering between us and the disk.
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("engine: wal flush: %w", err)
	}
	return nil
}

// OnCreateTable implements catalog.Observer.
func (l *WAL) OnCreateTable(name string, schema types.Schema) error {
	return l.record(func() error {
		if err := l.w.WriteByte(walCreateTable); err != nil {
			return err
		}
		if err := writeStr(l.w, name); err != nil {
			return err
		}
		if err := writeU32(l.w, uint32(schema.Len())); err != nil {
			return err
		}
		for _, col := range schema.Cols {
			if err := writeStr(l.w, col.Name); err != nil {
				return err
			}
			if err := l.w.WriteByte(byte(col.Type)); err != nil {
				return err
			}
		}
		return nil
	})
}

// OnDropTable implements catalog.Observer.
func (l *WAL) OnDropTable(name string) error {
	return l.record(func() error {
		if err := l.w.WriteByte(walDropTable); err != nil {
			return err
		}
		return writeStr(l.w, name)
	})
}

// OnCreateIndex implements catalog.Observer.
func (l *WAL) OnCreateIndex(idxName, table, column string) error {
	return l.record(func() error {
		if err := l.w.WriteByte(walCreateIndex); err != nil {
			return err
		}
		if err := writeStr(l.w, idxName); err != nil {
			return err
		}
		if err := writeStr(l.w, table); err != nil {
			return err
		}
		return writeStr(l.w, column)
	})
}

// OnInsert implements catalog.Observer.
func (l *WAL) OnInsert(table string, row types.Row) error {
	return l.record(func() error {
		if err := l.w.WriteByte(walInsert); err != nil {
			return err
		}
		if err := writeStr(l.w, table); err != nil {
			return err
		}
		if err := writeU32(l.w, uint32(len(row))); err != nil {
			return err
		}
		for _, v := range row {
			if err := writeValue(l.w, v); err != nil {
				return err
			}
		}
		return nil
	})
}

// OnDelete implements catalog.Observer.
func (l *WAL) OnDelete(table string, rid storage.RowID) error {
	return l.record(func() error {
		if err := l.w.WriteByte(walDelete); err != nil {
			return err
		}
		if err := writeStr(l.w, table); err != nil {
			return err
		}
		if err := writeU32(l.w, uint32(rid.Page)); err != nil {
			return err
		}
		return writeU32(l.w, uint32(rid.Slot))
	})
}

var _ catalog.Observer = (*WAL)(nil)

// AttachWAL starts logging every catalog mutation to w (write-ahead: the
// record is flushed before the mutation applies); DetachWAL stops logging.
func (db *DB) AttachWAL(w io.Writer) error {
	l, err := NewWAL(w)
	if err != nil {
		return err
	}
	db.cat.SetObserver(l)
	return nil
}

// DetachWAL stops logging.
func (db *DB) DetachWAL() { db.cat.SetObserver(nil) }

// ReplayWAL applies a redo log to the database. It returns the number of
// records applied. A torn final record (crash artifact) ends replay cleanly;
// any other malformed input is an error.
func (db *DB) ReplayWAL(r io.Reader) (int, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, fmt.Errorf("engine: reading wal header: %w", err)
	}
	if string(magic) != string(walMagic) {
		return 0, fmt.Errorf("engine: not a wal file (magic %q)", magic)
	}
	applied := 0
	for {
		rec, err := br.ReadByte()
		if err == io.EOF {
			return applied, nil
		}
		if err != nil {
			return applied, err
		}
		if err := db.replayRecord(br, rec); err != nil {
			if isTorn(err) {
				return applied, nil
			}
			return applied, fmt.Errorf("engine: wal record %d: %w", applied+1, err)
		}
		applied++
	}
}

func isTorn(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

func (db *DB) replayRecord(br *bufio.Reader, rec byte) error {
	switch rec {
	case walCreateTable:
		name, err := readStr(br)
		if err != nil {
			return err
		}
		n, err := readU32(br)
		if err != nil {
			return err
		}
		if n == 0 || n > 1<<16 {
			return fmt.Errorf("implausible column count %d", n)
		}
		cols := make([]types.Column, n)
		for i := range cols {
			cname, err := readStr(br)
			if err != nil {
				return err
			}
			kind, err := br.ReadByte()
			if err != nil {
				return err
			}
			cols[i] = types.Column{Name: cname, Type: types.Kind(kind)}
		}
		_, err = db.cat.CreateTable(name, types.NewSchema(cols...))
		return err
	case walDropTable:
		name, err := readStr(br)
		if err != nil {
			return err
		}
		return db.cat.DropTable(name)
	case walCreateIndex:
		idxName, err := readStr(br)
		if err != nil {
			return err
		}
		table, err := readStr(br)
		if err != nil {
			return err
		}
		column, err := readStr(br)
		if err != nil {
			return err
		}
		_, err = db.cat.CreateIndex(idxName, table, column)
		return err
	case walInsert:
		table, err := readStr(br)
		if err != nil {
			return err
		}
		n, err := readU32(br)
		if err != nil {
			return err
		}
		if n == 0 || n > 1<<16 {
			return fmt.Errorf("implausible column count %d", n)
		}
		row := make(types.Row, n)
		for i := range row {
			v, err := readValue(br)
			if err != nil {
				return err
			}
			row[i] = v
		}
		return db.cat.Insert(table, row)
	case walDelete:
		table, err := readStr(br)
		if err != nil {
			return err
		}
		page, err := readU32(br)
		if err != nil {
			return err
		}
		slot, err := readU32(br)
		if err != nil {
			return err
		}
		return db.cat.Delete(table, storage.RowID{Page: int(page), Slot: int(slot)})
	default:
		return fmt.Errorf("unknown record type 0x%02x", rec)
	}
}

// Recover rebuilds a database from a checkpoint snapshot plus the WAL
// written since that checkpoint. Either reader may be nil (no checkpoint:
// start empty; no WAL: snapshot only). Statistics are re-collected for every
// table that had them in the snapshot; re-run Analyze after heavy replay.
func Recover(snapshot, wal io.Reader) (*DB, int, error) {
	var db *DB
	var err error
	if snapshot != nil {
		db, err = Load(snapshot)
		if err != nil {
			return nil, 0, err
		}
	} else {
		db = Open()
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
