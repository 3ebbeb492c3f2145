package workload

import (
	"fmt"
	"math/rand"

	"mqpi/internal/engine"
	"mqpi/internal/engine/types"
)

// DataConfig scales the Table 1 dataset. The paper used 24M lineitem tuples
// (3.02 GB); the defaults here shrink that to laptop-test size while keeping
// the schema and the ~30 lineitem matches per partkey that shape the
// correlated sub-query plans.
type DataConfig struct {
	// LineitemRows is the lineitem cardinality (default 120000).
	LineitemRows int
	// MatchesPerKey is the average number of lineitem rows per partkey
	// (default 30, as in the paper).
	MatchesPerKey int
	// Seed drives all data randomness.
	Seed int64
}

func (c DataConfig) withDefaults() DataConfig {
	if c.LineitemRows <= 0 {
		c.LineitemRows = 120000
	}
	if c.MatchesPerKey <= 0 {
		c.MatchesPerKey = 30
	}
	return c
}

// Dataset is a database loaded with the lineitem relation and zero or more
// part_i relations.
type Dataset struct {
	DB         *engine.DB
	Cfg        DataConfig
	MaxPartKey int64
	partTables map[int]int // part index -> N_i
	rng        *rand.Rand
}

// maxPartKey returns the lineitem key range implied by the config.
func (c DataConfig) maxPartKey() int64 {
	maxKey := int64(c.LineitemRows / c.MatchesPerKey)
	if maxKey < 1 {
		maxKey = 1
	}
	return maxKey
}

// lineitemRow draws one lineitem row. Keeping every rng draw inside this one
// function is what lets DatasetCache replay the generator stream without
// rebuilding the relation: hydration calls it the same number of times a
// fresh build would, discarding the rows.
func lineitemRow(rng *rand.Rand, maxKey int64) types.Row {
	partkey := rng.Int63n(maxKey) + 1
	quantity := int64(1 + rng.Intn(50))
	// TPC-style price: roughly proportional to quantity with noise.
	price := float64(quantity) * (900 + 200*rng.Float64())
	discount := float64(rng.Intn(11)) / 100
	return types.Row{
		types.NewInt(partkey),
		types.NewInt(quantity),
		types.NewFloat(price),
		types.NewFloat(discount),
	}
}

// BuildDataset returns a database with the lineitem relation (partkey,
// quantity, extendedprice, discount), an index on partkey, and fresh
// statistics. The base catalog is built at most once per DataConfig and
// process: later calls hydrate a private copy from the shared in-memory
// snapshot, with the generator rng replayed so the result is
// indistinguishable from a from-scratch build.
func BuildDataset(cfg DataConfig) (*Dataset, error) {
	return sharedCache.Hydrate(cfg)
}

// DemoDB is the demo database of mqpi-serve -demo and the shell's \demo:
// lineitem scaled to rows plus part_1..part_3 in the paper's Table 1
// proportions (N = 50, 10, 20). The seed is fixed, so every replica a sharded
// tier builds is identical. part_1's 500 distinct partkeys need rows >= 15000.
func DemoDB(rows int) (*engine.DB, error) {
	ds, err := BuildDataset(DataConfig{LineitemRows: rows, Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("demo dataset: %w", err)
	}
	for i, n := range []int{50, 10, 20} {
		if err := ds.CreatePartTable(i+1, n); err != nil {
			return nil, fmt.Errorf("demo dataset: %w", err)
		}
	}
	return ds.DB, nil
}

// buildDatasetFresh constructs the base catalog from scratch.
func buildDatasetFresh(cfg DataConfig) (*Dataset, error) {
	cfg = cfg.withDefaults()
	db := engine.Open()
	if _, err := db.Exec(`CREATE TABLE lineitem (partkey BIGINT, quantity BIGINT, extendedprice DOUBLE, discount DOUBLE)`); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	maxKey := cfg.maxPartKey()
	cat := db.Catalog()
	for i := 0; i < cfg.LineitemRows; i++ {
		if err := cat.Insert("lineitem", lineitemRow(rng, maxKey)); err != nil {
			return nil, err
		}
	}
	if _, err := db.Exec(`CREATE INDEX lineitem_partkey ON lineitem (partkey)`); err != nil {
		return nil, err
	}
	if err := db.Analyze(); err != nil {
		return nil, err
	}
	return &Dataset{
		DB:         db,
		Cfg:        cfg,
		MaxPartKey: maxKey,
		partTables: make(map[int]int),
		rng:        rng,
	}, nil
}

// PartTableName returns the name of the i-th part table.
func PartTableName(i int) string { return fmt.Sprintf("part_%d", i) }

// CreatePartTable creates part_i with 10×N_i tuples, each with a distinct
// partkey drawn uniformly from the lineitem key range (as in Table 1), and
// refreshes its statistics. It replaces any previous part_i.
func (d *Dataset) CreatePartTable(i, n int) error {
	if n < 1 {
		return fmt.Errorf("workload: N_%d must be >= 1, got %d", i, n)
	}
	name := PartTableName(i)
	if _, exists := d.partTables[i]; exists {
		if _, err := d.DB.Exec("DROP TABLE " + name); err != nil {
			return err
		}
		delete(d.partTables, i)
	}
	if _, err := d.DB.Exec(fmt.Sprintf(`CREATE TABLE %s (partkey BIGINT, retailprice DOUBLE)`, name)); err != nil {
		return err
	}
	rows := 10 * n
	if int64(rows) > d.MaxPartKey {
		return fmt.Errorf("workload: part_%d needs %d distinct partkeys but lineitem only has %d", i, rows, d.MaxPartKey)
	}
	seen := make(map[int64]bool, rows)
	cat := d.DB.Catalog()
	for len(seen) < rows {
		k := d.rng.Int63n(d.MaxPartKey) + 1
		if seen[k] {
			continue
		}
		seen[k] = true
		// Retail price centered near the average per-unit selling price so
		// the "25% below retail" predicate is selective but non-empty.
		retail := 1000 * (0.8 + 0.8*d.rng.Float64())
		row := types.Row{types.NewInt(k), types.NewFloat(retail)}
		if err := cat.Insert(name, row); err != nil {
			return err
		}
	}
	if err := cat.Analyze(name); err != nil {
		return err
	}
	d.partTables[i] = n
	return nil
}

// DropPartTable removes part_i if it exists.
func (d *Dataset) DropPartTable(i int) error {
	if _, exists := d.partTables[i]; !exists {
		return nil
	}
	delete(d.partTables, i)
	_, err := d.DB.Exec("DROP TABLE " + PartTableName(i))
	return err
}

// PartTables returns the currently loaded part table indexes and sizes.
func (d *Dataset) PartTables() map[int]int {
	out := make(map[int]int, len(d.partTables))
	for k, v := range d.partTables {
		out[k] = v
	}
	return out
}

// QuerySQL returns the paper's query Q_i: find parts selling on average 25%
// below suggested retail price, via a correlated sub-query whose plan is an
// index scan on lineitem.partkey.
func QuerySQL(i int) string {
	return fmt.Sprintf(
		`select * from %s p where p.retailprice*0.75 > `+
			`(select sum(l.extendedprice)/sum(l.quantity) from lineitem l where l.partkey = p.partkey)`,
		PartTableName(i))
}

// QueryTemplate selects one of the query families used to check the paper's
// "we repeated our experiments with other kinds of queries; the results were
// similar" claim. All templates over part_i have cost roughly proportional
// to N_i, so the PI behaviour carries over.
type QueryTemplate uint8

const (
	// TemplateRetail is the paper's published Q_i (25% below retail).
	TemplateRetail QueryTemplate = iota
	// TemplateMaxPrice compares against the maximum item price instead of
	// the average unit price (same correlated index-probe shape, different
	// aggregate).
	TemplateMaxPrice
	// TemplateGroupCount aggregates the matches per part and counts parts
	// with enough of them (sub-query in the select list feeding a scalar
	// aggregate).
	TemplateGroupCount
)

// String names the template.
func (t QueryTemplate) String() string {
	switch t {
	case TemplateRetail:
		return "retail"
	case TemplateMaxPrice:
		return "maxprice"
	case TemplateGroupCount:
		return "groupcount"
	default:
		return fmt.Sprintf("QueryTemplate(%d)", uint8(t))
	}
}

// QuerySQLVariant renders query template t over part_i.
func QuerySQLVariant(i int, t QueryTemplate) string {
	p := PartTableName(i)
	switch t {
	case TemplateMaxPrice:
		return fmt.Sprintf(
			`select * from %s p where p.retailprice > `+
				`(select max(l.extendedprice)/30 from lineitem l where l.partkey = p.partkey)`, p)
	case TemplateGroupCount:
		return fmt.Sprintf(
			`select count(*) from %s p where `+
				`(select count(*) from lineitem l where l.partkey = p.partkey) >= 25`, p)
	default:
		return QuerySQL(i)
	}
}
