package experiments

import (
	"fmt"
	"strings"

	"mqpi/internal/workload"
)

// DatasetConfig configures the Table 1 reproduction.
type DatasetConfig struct {
	Common
	// PartSizes lists the N_i of part tables to materialize alongside
	// lineitem (defaults to the NAQ sizes 50, 10, 20).
	PartSizes []int
}

// DatasetRow is one row of Table 1.
type DatasetRow struct {
	Relation string
	Tuples   int
	Pages    int
	AvgMatch float64 // average lineitem matches per part tuple (parts only)
}

// DatasetResult is the reproduced Table 1 (tuple counts and on-"disk" pages
// instead of the paper's gigabytes, since pages are the engine's size unit).
type DatasetResult struct {
	Rows       []DatasetRow
	MaxPartKey int64
}

// RunDataset builds the test data set and reports Table 1.
func RunDataset(cfg DatasetConfig) (*DatasetResult, error) {
	if len(cfg.PartSizes) == 0 {
		cfg.PartSizes = []int{50, 10, 20}
	}
	cfg.Common = cfg.Common.withDefaults(Common{})
	ds, err := workload.BuildDataset(cfg.Data)
	if err != nil {
		return nil, err
	}
	res := &DatasetResult{MaxPartKey: ds.MaxPartKey}
	cat := ds.DB.Catalog()
	li, err := cat.Table("lineitem")
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, DatasetRow{
		Relation: "lineitem",
		Tuples:   li.Rel.NumRows(),
		Pages:    li.Rel.NumPages(),
	})
	for i, n := range cfg.PartSizes {
		idx := i + 1
		if err := ds.CreatePartTable(idx, n); err != nil {
			return nil, err
		}
		pt, err := cat.Table(workload.PartTableName(idx))
		if err != nil {
			return nil, err
		}
		// Average matches: count lineitem rows for each part key via the
		// index (this is also a sanity check on the ~30 matches the schema
		// promises).
		bt, ok := cat.IndexOn("lineitem", "partkey")
		if !ok {
			return nil, fmt.Errorf("experiments: lineitem.partkey index missing")
		}
		totalMatches := 0
		for p := 0; p < pt.Rel.NumPages(); p++ {
			for _, row := range pt.Rel.Page(p) {
				totalMatches += len(bt.SearchEq(row[0].Int()).RowIDs)
			}
		}
		avg := 0.0
		if pt.Rel.NumRows() > 0 {
			avg = float64(totalMatches) / float64(pt.Rel.NumRows())
		}
		res.Rows = append(res.Rows, DatasetRow{
			Relation: workload.PartTableName(idx),
			Tuples:   pt.Rel.NumRows(),
			Pages:    pt.Rel.NumPages(),
			AvgMatch: avg,
		})
	}
	return res, nil
}

func (r *DatasetResult) report() *Report { return new(Report).text("%s", r.Render()) }

// Render draws Table 1 as text.
func (r *DatasetResult) Render() string {
	var b strings.Builder
	b.WriteString("== Table 1: test data set ==\n")
	fmt.Fprintf(&b, "%-12s  %10s  %8s  %12s\n", "relation", "tuples", "pages", "avg matches")
	b.WriteString(strings.Repeat("-", 48))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		match := "-"
		if row.AvgMatch > 0 {
			match = fmt.Sprintf("%.1f", row.AvgMatch)
		}
		fmt.Fprintf(&b, "%-12s  %10d  %8d  %12s\n", row.Relation, row.Tuples, row.Pages, match)
	}
	fmt.Fprintf(&b, "(max partkey: %d)\n", r.MaxPartKey)
	return b.String()
}
