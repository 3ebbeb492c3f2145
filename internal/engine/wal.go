package engine

// The redo log: the one binary encoding of a database. A write-ahead log is
// a stream of catalog mutations; a checkpoint (Save) is the same stream
// rebuilding the state it holds, closed by an end record. Recover(snapshot,
// wal) replays the checkpoint and then the log written after it:
//
//	db.Save(checkpoint)          // checkpoint
//	db.AttachWAL(wal)            // every later mutation is logged before applying
//
// A checkpoint inserts every physical slot in page/slot order and deletes
// each dead one right after it, so the reloaded relations have the live
// ones' exact layout and the RowIDs a later log names.
//
// Format (all integers little-endian), after the header "MQWL1":
//
//	0x01 create-table: str name, u32 cols, per col (str name, u8 kind)
//	0x02 drop-table:   str name
//	0x03 create-index: str idxName, str table, str column
//	0x04 insert:       str table, u32 cols, per col value
//	0x05 delete:       str table, u32 page, u32 slot
//	0x06 analyze:      str table (checkpoints only)
//	0x07 end:          closes a checkpoint (checkpoints only)
//	value: u8 kind, then null: nothing | bool: u8 | int: u64 (two's
//	  complement) | float: u64 (IEEE bits) | string: str
//	str: u32 length + bytes
//
// Replay of a log stops cleanly at a torn final record (the partial record a
// crash may leave), so recovery never fails on the artifacts of the crash it
// exists to survive; a checkpoint must be whole and end with its end record.
//
// Simplifications vs a production WAL, documented deliberately: no fsync
// control (callers own the file), no LSNs (the checkpoint/WAL pairing is
// positional: attach a fresh WAL right after a checkpoint), and the live log
// records no statistics (re-run ANALYZE after recovery).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"mqpi/internal/engine/storage"
	"mqpi/internal/engine/types"
)

var walMagic = []byte("MQWL1")

const (
	recCreateTable byte = 0x01
	recDropTable   byte = 0x02
	recCreateIndex byte = 0x03
	recInsert      byte = 0x04
	recDelete      byte = 0x05
	recAnalyze     byte = 0x06
	recEnd         byte = 0x07
)

const maxStrLen = 64 << 20 // 64 MiB guards against corrupt length prefixes

// encoder appends records to a buffered writer. bufio.Writer's errors are
// sticky, so records are written unchecked and the next Flush reports the
// first failure.
type encoder struct{ w *bufio.Writer }

// newEncoder writes the header to w.
func newEncoder(w io.Writer) encoder {
	e := encoder{bufio.NewWriter(w)}
	e.w.Write(walMagic)
	return e
}

func (e encoder) u32(v uint32) { e.w.Write(binary.LittleEndian.AppendUint32(e.w.AvailableBuffer(), v)) }
func (e encoder) u64(v uint64) { e.w.Write(binary.LittleEndian.AppendUint64(e.w.AvailableBuffer(), v)) }

func (e encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.w.WriteString(s)
}

func (e encoder) value(v types.Value) {
	e.w.WriteByte(byte(v.Kind()))
	switch v.Kind() {
	case types.KindBool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		e.w.WriteByte(b)
	case types.KindInt:
		e.u64(uint64(v.Int()))
	case types.KindFloat:
		e.u64(math.Float64bits(v.Float()))
	case types.KindString:
		e.str(v.Str())
	}
}

func (e encoder) createTable(name string, schema types.Schema) {
	e.w.WriteByte(recCreateTable)
	e.str(name)
	e.u32(uint32(schema.Len()))
	for _, col := range schema.Cols {
		e.str(col.Name)
		e.w.WriteByte(byte(col.Type))
	}
}

func (e encoder) dropTable(name string) {
	e.w.WriteByte(recDropTable)
	e.str(name)
}

func (e encoder) createIndex(idxName, table, column string) {
	e.w.WriteByte(recCreateIndex)
	e.str(idxName)
	e.str(table)
	e.str(column)
}

func (e encoder) insert(table string, row types.Row) {
	e.w.WriteByte(recInsert)
	e.str(table)
	e.u32(uint32(len(row)))
	for _, v := range row {
		e.value(v)
	}
}

func (e encoder) delete(table string, rid storage.RowID) {
	e.w.WriteByte(recDelete)
	e.str(table)
	e.u32(uint32(rid.Page))
	e.u32(uint32(rid.Slot))
}

func (e encoder) analyze(table string) {
	e.w.WriteByte(recAnalyze)
	e.str(table)
}

// walObserver is the catalog.Observer AttachWAL installs: it appends a record
// for every mutation and flushes it before the mutation is applied — the
// write-ahead property is only as strong as the buffering between us and the
// disk.
type walObserver struct{ e encoder }

func (l walObserver) flush() error {
	if err := l.e.w.Flush(); err != nil {
		return fmt.Errorf("engine: wal append: %w", err)
	}
	return nil
}

func (l walObserver) OnCreateTable(name string, schema types.Schema) error {
	l.e.createTable(name, schema)
	return l.flush()
}

func (l walObserver) OnDropTable(name string) error {
	l.e.dropTable(name)
	return l.flush()
}

func (l walObserver) OnCreateIndex(idxName, table, column string) error {
	l.e.createIndex(idxName, table, column)
	return l.flush()
}

func (l walObserver) OnInsert(table string, row types.Row) error {
	l.e.insert(table, row)
	return l.flush()
}

func (l walObserver) OnDelete(table string, rid storage.RowID) error {
	l.e.delete(table, rid)
	return l.flush()
}

// AttachWAL writes the log header to w and starts logging every catalog
// mutation to it (write-ahead: the record is flushed before the mutation
// applies); DetachWAL stops logging.
func (db *DB) AttachWAL(w io.Writer) error {
	l := walObserver{newEncoder(w)}
	if err := l.flush(); err != nil {
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
	applied, _, err := db.replay(r, false)
	return applied, err
}

// decoder reads records from a buffered reader. Its first error is sticky:
// later reads return zero, which passes every bounds check, so a failed check
// sets err without hiding an earlier one, and a record's caller checks err
// once.
type decoder struct {
	r   *bufio.Reader
	err error
}

// next returns the next n bytes, valid until the following read, or nil once
// a read has failed.
func (d *decoder) next(n int) []byte {
	if d.err != nil {
		return nil
	}
	var b []byte
	if n <= d.r.Size() {
		b, d.err = d.r.Peek(n)
		d.r.Discard(len(b))
	} else {
		b = make([]byte, n)
		_, d.err = io.ReadFull(d.r, b)
	}
	if d.err != nil {
		return nil
	}
	return b
}

func (d *decoder) u8() byte {
	if b := d.next(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if b := d.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if b := d.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *decoder) str() string {
	n := d.u32()
	if n > maxStrLen {
		d.err = fmt.Errorf("implausible string length %d", n)
	}
	return string(d.next(int(n)))
}

// cols reads a column count, which must be positive and at most 1<<16.
func (d *decoder) cols() int {
	n := d.u32()
	if d.err == nil && (n == 0 || n > 1<<16) {
		d.err = fmt.Errorf("implausible column count %d", n)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *decoder) value() types.Value {
	switch kind := types.Kind(d.u8()); kind {
	case types.KindNull:
		return types.Null
	case types.KindBool:
		return types.NewBool(d.u8() != 0)
	case types.KindInt:
		return types.NewInt(int64(d.u64()))
	case types.KindFloat:
		return types.NewFloat(math.Float64frombits(d.u64()))
	case types.KindString:
		return types.NewString(d.str())
	default:
		d.err = fmt.Errorf("unknown value kind %d", kind)
		return types.Null
	}
}

// replay applies the records in r, after checking the header, and returns
// how many it applied and whether the last was an end record. strict is for
// checkpoints: a torn record is an error there, where a log ends at it.
func (db *DB) replay(r io.Reader, strict bool) (applied int, ended bool, err error) {
	d := &decoder{r: bufio.NewReader(r)}
	if magic := d.next(len(walMagic)); d.err != nil {
		return 0, false, fmt.Errorf("engine: reading log header: %w", d.err)
	} else if string(magic) != string(walMagic) {
		return 0, false, fmt.Errorf("engine: not a redo log (magic %q)", magic)
	}
	for {
		rec := d.u8()
		if d.err == io.EOF {
			return applied, ended, nil
		}
		if d.err != nil {
			return applied, ended, d.err
		}
		if ended = rec == recEnd; ended {
			continue
		}
		if err := db.apply(d, rec); err != nil {
			if !strict && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
				return applied, false, nil
			}
			return applied, false, fmt.Errorf("engine: record %d: %w", applied+1, err)
		}
		applied++
	}
}

// apply decodes the body of one record of type rec and applies it.
func (db *DB) apply(d *decoder, rec byte) error {
	switch rec {
	case recCreateTable:
		name := d.str()
		cols := make([]types.Column, d.cols())
		for i := range cols {
			cols[i].Name = d.str()
			if cols[i].Type = types.Kind(d.u8()); cols[i].Type > types.KindString {
				d.err = fmt.Errorf("unknown column kind %d", cols[i].Type)
			}
		}
		if d.err == nil {
			_, err := db.cat.CreateTable(name, types.NewSchema(cols...))
			return err
		}
	case recDropTable:
		if name := d.str(); d.err == nil {
			return db.cat.DropTable(name)
		}
	case recCreateIndex:
		idxName, table, column := d.str(), d.str(), d.str()
		if d.err == nil {
			_, err := db.cat.CreateIndex(idxName, table, column)
			return err
		}
	case recInsert:
		table := d.str()
		row := make(types.Row, d.cols())
		for i := range row {
			row[i] = d.value()
		}
		if d.err == nil {
			return db.cat.Insert(table, row)
		}
	case recDelete:
		table, page, slot := d.str(), d.u32(), d.u32()
		if d.err == nil {
			return db.cat.Delete(table, storage.RowID{Page: int(page), Slot: int(slot)})
		}
	case recAnalyze:
		if table := d.str(); d.err == nil {
			return db.cat.Analyze(table)
		}
	default:
		return fmt.Errorf("unknown record type 0x%02x", rec)
	}
	return d.err
}
