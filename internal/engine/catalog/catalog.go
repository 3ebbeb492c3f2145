// Package catalog tracks the engine's tables, indexes, and optimizer
// statistics. The paper's experiments run "the PostgreSQL statistics
// collection program on all the relations" before measuring; Analyze is the
// equivalent here, and the planner's cardinality estimates come from it.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mqpi/internal/engine/index"
	"mqpi/internal/engine/storage"
	"mqpi/internal/engine/types"
)

// ColStats holds per-column optimizer statistics.
type ColStats struct {
	Min      types.Value
	Max      types.Value
	Distinct int
	NullFrac float64
	// Hist is an equi-depth histogram over numeric columns (nil for
	// non-numeric columns or tiny tables); it sharpens range selectivity on
	// skewed data where min/max interpolation fails.
	Hist *Histogram
}

// Stats holds per-table optimizer statistics.
type Stats struct {
	RowCount int
	Pages    int
	Cols     map[string]ColStats
}

// Table bundles a relation with its indexes and statistics.
type Table struct {
	Rel     *storage.Relation
	Indexes map[string]*index.BTree // keyed by lower-cased column name
	Stats   *Stats
}

// Observer is notified of catalog mutations before they are applied — the
// hook the write-ahead log uses. A non-nil error aborts the mutation.
type Observer interface {
	OnCreateTable(name string, schema types.Schema) error
	OnDropTable(name string) error
	OnCreateIndex(idxName, table, column string) error
	OnInsert(table string, row types.Row) error
	OnDelete(table string, rid storage.RowID) error
}

// Catalog is the namespace of tables. The namespace itself (lookups,
// creation, drops, stats installation) is guarded by an RWMutex and safe for
// concurrent use. The *contents* of a Table — its Relation pages and B+-tree
// nodes — are not covered by that lock: they are read-shared during query
// execution (plan nodes capture *Table pointers at plan time and scan them
// lock-free from the parallel execute phase), so Insert/Delete and index
// builds must never overlap query execution. The service layer enforces this
// by running DML on the scheduler's owner goroutine, strictly between ticks.
type Catalog struct {
	mu       sync.RWMutex
	tables   map[string]*Table
	observer Observer
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// SetObserver installs (or removes, with nil) the mutation observer.
func (c *Catalog) SetObserver(o Observer) {
	c.mu.Lock()
	c.observer = o
	c.mu.Unlock()
}

func (c *Catalog) notify(f func(Observer) error) error {
	c.mu.RLock()
	o := c.observer
	c.mu.RUnlock()
	if o == nil {
		return nil
	}
	return f(o)
}

// CreateTable registers a new empty table.
func (c *Catalog) CreateTable(name string, schema types.Schema) (*Table, error) {
	key := strings.ToLower(name)
	c.mu.RLock()
	_, exists := c.tables[key]
	c.mu.RUnlock()
	if exists {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	if err := c.notify(func(o Observer) error { return o.OnCreateTable(key, schema) }); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &Table{
		Rel:     storage.NewRelation(key, schema),
		Indexes: make(map[string]*index.BTree),
	}
	c.tables[key] = t
	return t, nil
}

// DropTable removes a table; it is an error if the table does not exist.
func (c *Catalog) DropTable(name string) error {
	key := strings.ToLower(name)
	c.mu.RLock()
	_, exists := c.tables[key]
	c.mu.RUnlock()
	if !exists {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	if err := c.notify(func(o Observer) error { return o.OnDropTable(key) }); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	delete(c.tables, key)
	return nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// TableNames returns the sorted list of table names.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CreateIndex builds a B+-tree over an existing integer column, indexing all
// current rows. New inserts through Insert keep it maintained.
func (c *Catalog) CreateIndex(idxName, tableName, column string) (*index.BTree, error) {
	t, err := c.Table(tableName)
	if err != nil {
		return nil, err
	}
	colKey := strings.ToLower(column)
	ci, err := t.Rel.Schema().ColIndex("", column)
	if err != nil {
		return nil, err
	}
	if t.Rel.Schema().Cols[ci].Type != types.KindInt {
		return nil, fmt.Errorf("catalog: index column %s.%s must be BIGINT", tableName, column)
	}
	c.mu.RLock()
	_, exists := t.Indexes[colKey]
	c.mu.RUnlock()
	if exists {
		return nil, fmt.Errorf("catalog: index on %s.%s already exists", tableName, column)
	}
	bt := index.New(idxName, strings.ToLower(tableName), colKey)
	for p := 0; p < t.Rel.NumPages(); p++ {
		for s, row := range t.Rel.Page(p) {
			rid := storage.RowID{Page: p, Slot: s}
			if row[ci].IsNull() || !t.Rel.Live(rid) {
				continue
			}
			if row[ci].Kind() != types.KindInt {
				return nil, fmt.Errorf("catalog: cannot index %s.%s: row %v holds %s", tableName, column, rid, row[ci])
			}
			bt.Insert(row[ci].Int(), rid)
		}
	}
	if err := c.notify(func(o Observer) error {
		return o.OnCreateIndex(idxName, strings.ToLower(tableName), colKey)
	}); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := t.Indexes[colKey]; ok {
		return nil, fmt.Errorf("catalog: index on %s.%s already exists", tableName, column)
	}
	t.Indexes[colKey] = bt
	return bt, nil
}

// Insert appends a row to a table and maintains its indexes.
func (c *Catalog) Insert(tableName string, row types.Row) error {
	t, err := c.Table(tableName)
	if err != nil {
		return err
	}
	if len(row) != t.Rel.Schema().Len() {
		return fmt.Errorf("catalog: %s expects %d columns, got %d", tableName, t.Rel.Schema().Len(), len(row))
	}
	c.mu.RLock()
	for col := range t.Indexes {
		ci, _ := t.Rel.Schema().ColIndex("", col)
		if k := row[ci].Kind(); k != types.KindNull && k != types.KindInt {
			c.mu.RUnlock()
			return fmt.Errorf("catalog: %s.%s is indexed and takes BIGINT, got %s", tableName, col, row[ci])
		}
	}
	c.mu.RUnlock()
	if err := c.notify(func(o Observer) error {
		return o.OnInsert(strings.ToLower(tableName), row)
	}); err != nil {
		return err
	}
	rid, err := t.Rel.Insert(row)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for col, bt := range t.Indexes {
		ci, cerr := t.Rel.Schema().ColIndex("", col)
		if cerr != nil {
			return cerr
		}
		if !row[ci].IsNull() {
			bt.Insert(row[ci].Int(), rid)
		}
	}
	return nil
}

// Delete tombstones a row. Index entries for it remain in the B+-trees;
// probes verify liveness against the heap.
func (c *Catalog) Delete(tableName string, rid storage.RowID) error {
	t, err := c.Table(tableName)
	if err != nil {
		return err
	}
	if !t.Rel.Live(rid) {
		return fmt.Errorf("catalog: %s has no live tuple %v", tableName, rid)
	}
	if err := c.notify(func(o Observer) error {
		return o.OnDelete(strings.ToLower(tableName), rid)
	}); err != nil {
		return err
	}
	return t.Rel.Delete(rid)
}

// IndexOn returns the index on tableName.column, if any.
func (c *Catalog) IndexOn(tableName, column string) (*index.BTree, bool) {
	t, err := c.Table(tableName)
	if err != nil {
		return nil, false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	bt, ok := t.Indexes[strings.ToLower(column)]
	return bt, ok
}

// Analyze recomputes optimizer statistics for one table with a full pass:
// row/page counts and, per column, min/max/distinct/null fraction.
func (c *Catalog) Analyze(tableName string) error {
	t, err := c.Table(tableName)
	if err != nil {
		return err
	}
	schema := t.Rel.Schema()
	st := &Stats{
		RowCount: t.Rel.NumRows(),
		Pages:    t.Rel.NumPages(),
		Cols:     make(map[string]ColStats, schema.Len()),
	}
	distinct := make([]map[string]struct{}, schema.Len())
	mins := make([]types.Value, schema.Len())
	maxs := make([]types.Value, schema.Len())
	nulls := make([]int, schema.Len())
	numeric := make([][]float64, schema.Len())
	for i := range distinct {
		distinct[i] = make(map[string]struct{})
	}
	for p := 0; p < t.Rel.NumPages(); p++ {
		for s, row := range t.Rel.Page(p) {
			if !t.Rel.Live(storage.RowID{Page: p, Slot: s}) {
				continue
			}
			for i, v := range row {
				if v.IsNull() {
					nulls[i]++
					continue
				}
				distinct[i][v.String()] = struct{}{}
				if v.IsNumeric() {
					numeric[i] = append(numeric[i], v.Float())
				}
				if mins[i].IsNull() {
					mins[i], maxs[i] = v, v
					continue
				}
				if cmp, cerr := types.Compare(v, mins[i]); cerr == nil && cmp < 0 {
					mins[i] = v
				}
				if cmp, cerr := types.Compare(v, maxs[i]); cerr == nil && cmp > 0 {
					maxs[i] = v
				}
			}
		}
	}
	for i, col := range schema.Cols {
		cs := ColStats{Min: mins[i], Max: maxs[i], Distinct: len(distinct[i])}
		if st.RowCount > 0 {
			cs.NullFrac = float64(nulls[i]) / float64(st.RowCount)
		}
		cs.Hist = BuildHistogram(numeric[i])
		st.Cols[strings.ToLower(col.Name)] = cs
	}
	c.mu.Lock()
	t.Stats = st
	c.mu.Unlock()
	return nil
}

// AnalyzeAll runs Analyze on every table.
func (c *Catalog) AnalyzeAll() error {
	for _, name := range c.TableNames() {
		if err := c.Analyze(name); err != nil {
			return err
		}
	}
	return nil
}

// TableStats returns the statistics for a table, or nil if Analyze has not
// been run. The planner falls back to live row counts in that case.
func (c *Catalog) TableStats(tableName string) *Stats {
	t, err := c.Table(tableName)
	if err != nil {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return t.Stats
}
