package exec

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mqpi/internal/engine/plan"
	"mqpi/internal/engine/sql"
	"mqpi/internal/engine/storage"
	"mqpi/internal/engine/types"
)

// errYield signals that an operator paused because the Ctx work limit was
// reached; the Runner resumes it on the next Step. It never escapes the
// package.
var errYield = errors.New("exec: work budget exhausted")

// Operator is a resumable volcano iterator. Next returns (nil, nil) at end
// of stream. Progress reports the fraction of the operator's driver input
// consumed, in [0, 1]; it powers the refined remaining-cost estimate.
type Operator interface {
	Open(ctx *Ctx) error
	Next(ctx *Ctx) (types.Row, error)
	Close() error
	Progress() float64
}

// Build constructs an executable operator tree from a physical plan and
// compiles each of its expressions (predicates, projections, keys) once.
func Build(n plan.Node) Operator {
	switch x := n.(type) {
	case *plan.SeqScan:
		return &seqScan{node: x}
	case *plan.IndexScan:
		return &indexScan{node: x, key: Compile(x.KeyExpr)}
	case *plan.Filter:
		return &filterOp{pred: Compile(x.Pred), child: Build(x.Child)}
	case *plan.Project:
		return &projectOp{exprs: compileEach(x.Exprs, func(e plan.Expr) plan.Expr { return e }), child: Build(x.Child)}
	case *plan.NLJoin:
		return &nlJoin{node: x, l: Build(x.L), r: Build(x.R)}
	case *plan.Agg:
		return &aggOp{node: x, child: Build(x.Child), one: aggState{accums: newAccums(x.Aggs)},
			keys: compileEach(x.GroupBy, func(e plan.Expr) plan.Expr { return e }),
			args: compileEach(x.Aggs, func(s plan.AggSpec) plan.Expr { return s.Arg })}
	case *plan.Distinct:
		return &distinctOp{node: x, child: Build(x.Child)}
	case *plan.Sort:
		return &sortOp{node: x, child: Build(x.Child), keys: compileEach(x.Keys, func(k plan.SortKey) plan.Expr { return k.Expr })}
	case *plan.Limit:
		return &limitOp{node: x, child: Build(x.Child)}
	default:
		panic(fmt.Sprintf("exec: unknown plan node %T", n))
	}
}

// compileEach compiles the expression of each element; a nil one (the
// argument of COUNT(*)) compiles to a nil Eval.
func compileEach[T any](xs []T, expr func(T) plan.Expr) []Eval {
	out := make([]Eval, len(xs))
	for i, x := range xs {
		if e := expr(x); e != nil {
			out[i] = Compile(e)
		}
	}
	return out
}

// --- SeqScan ---

// seqScan reads heap pages from a ScanSource: the embedded soloSource
// (physical order, classic costing) unless a FoldMember was attached before
// the scan opened, in which case pages arrive in shared-cursor rotation
// order. The scan itself only tracks the page currently being emitted; page
// choice and meter charging are the source's job.
type seqScan struct {
	node *plan.SeqScan
	fold *FoldMember // set by FoldRegistry.Attach before Open; nil = solo
	solo soloSource
	src  ScanSource

	page   int  // page currently being emitted (granted by src)
	slot   int  // next slot within that page
	done   int  // pages fully consumed before the current one
	active bool // a granted page is being emitted
	eof    bool
}

func (s *seqScan) Open(ctx *Ctx) error {
	s.page, s.slot, s.done, s.active, s.eof = 0, 0, 0, false, false
	if s.fold != nil {
		s.src = s.fold
	} else {
		s.solo = soloSource{rel: s.node.Table.Rel}
		s.src = &s.solo
	}
	return nil
}

func (s *seqScan) Next(ctx *Ctx) (types.Row, error) {
	rel := s.node.Table.Rel
	for !s.eof {
		if !s.active {
			p, st := s.src.NextPage(ctx)
			switch st {
			case PageEOF:
				s.eof = true
				continue
			case PageWait:
				return nil, errYield
			}
			s.page, s.slot, s.active = p, 0, true
		}
		// Page(page) is re-read on every call so rows appended to the current
		// page by DML between scheduler ticks stay visible, as before.
		rows := rel.Page(s.page)
		if s.slot < len(rows) {
			id := storage.RowID{Page: s.page, Slot: s.slot}
			r := rows[s.slot]
			s.slot++
			if !rel.Live(id) {
				continue
			}
			return r, nil
		}
		s.active, s.slot = false, 0
		s.done++
	}
	return nil, nil
}

func (s *seqScan) Close() error { return nil }

func (s *seqScan) Progress() float64 {
	rel := s.node.Table.Rel
	n := rel.NumSlots()
	if n == 0 || s.eof {
		return 1
	}
	// Slot-granular progress: page-granular reporting is far too coarse for
	// the small part tables that drive the paper's queries, and the refined
	// remaining-cost interpolation amplifies any progress error. done counts
	// consumed pages, so for a solo scan this is bit-identical to the classic
	// page*PageSlots+slot formula at every observable point.
	read := s.done*storage.PageSlots + s.slot
	return math.Min(1, float64(read)/float64(n))
}

// --- IndexScan ---

type indexScan struct {
	node     *plan.IndexScan
	key      Eval
	rids     []storage.RowID
	pos      int
	lastPage int
	empty    bool
}

func (s *indexScan) Open(ctx *Ctx) error {
	s.rids, s.pos, s.lastPage, s.empty = nil, 0, -1, false
	key, err := s.key(nil, ctx)
	if err != nil {
		return err
	}
	if key.IsNull() {
		s.empty = true
		ctx.Meter.ChargePage() // the probe that finds nothing still reads the root
		return nil
	}
	if key.Kind() != types.KindInt {
		return fmt.Errorf("exec: index key must be BIGINT, got %s", key.Kind())
	}
	probe := s.node.Index.SearchEq(key.Int())
	ctx.Meter.Charge(float64(probe.NodesTouched))
	s.rids = probe.RowIDs
	return nil
}

func (s *indexScan) Next(ctx *Ctx) (types.Row, error) {
	rel := s.node.Table.Rel
	for !s.empty && s.pos < len(s.rids) {
		rid := s.rids[s.pos]
		s.pos++
		if rid.Page != s.lastPage {
			ctx.Meter.ChargePage()
			s.lastPage = rid.Page
		}
		// The B+-tree retains entries for deleted tuples; verify liveness
		// against the heap (the page touch above is the cost of finding
		// out).
		if !rel.Live(rid) {
			continue
		}
		r, err := rel.Fetch(rid)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
	return nil, nil
}

func (s *indexScan) Close() error { return nil }

func (s *indexScan) Progress() float64 {
	if s.empty || len(s.rids) == 0 {
		return 1
	}
	return float64(s.pos) / float64(len(s.rids))
}

// --- Filter ---

type filterOp struct {
	pred  Eval
	child Operator
}

func (f *filterOp) Open(ctx *Ctx) error { return f.child.Open(ctx) }

func (f *filterOp) Next(ctx *Ctx) (types.Row, error) {
	for {
		// Each rejected candidate may have cost a full sub-query
		// evaluation; yield between candidates once over budget so the
		// scheduler's quantum holds.
		if ctx.OverBudget() {
			return nil, errYield
		}
		r, err := f.child.Next(ctx)
		if err != nil || r == nil {
			return nil, err
		}
		v, err := f.pred(r, ctx)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			return r, nil
		}
	}
}

func (f *filterOp) Close() error      { return f.child.Close() }
func (f *filterOp) Progress() float64 { return f.child.Progress() }

// --- Project ---

type projectOp struct {
	exprs []Eval
	child Operator
}

func (p *projectOp) Open(ctx *Ctx) error { return p.child.Open(ctx) }

func (p *projectOp) Next(ctx *Ctx) (types.Row, error) {
	r, err := p.child.Next(ctx)
	if err != nil || r == nil {
		return nil, err
	}
	out := make(types.Row, len(p.exprs))
	for i, e := range p.exprs {
		v, err := e(r, ctx)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (p *projectOp) Close() error      { return p.child.Close() }
func (p *projectOp) Progress() float64 { return p.child.Progress() }

// --- Nested loop join (cross product; predicates live in a Filter above) ---

type nlJoin struct {
	node    *plan.NLJoin
	l, r    Operator
	lRow    types.Row
	started bool
}

func (j *nlJoin) Open(ctx *Ctx) error {
	j.lRow, j.started = nil, false
	if err := j.l.Open(ctx); err != nil {
		return err
	}
	return nil
}

func (j *nlJoin) Next(ctx *Ctx) (types.Row, error) {
	for {
		if ctx.OverBudget() {
			return nil, errYield
		}
		if j.lRow == nil {
			lr, err := j.l.Next(ctx)
			if err != nil || lr == nil {
				return nil, err
			}
			j.lRow = lr.Clone()
			if j.started {
				if err := j.r.Close(); err != nil {
					return nil, err
				}
			}
			if err := j.r.Open(ctx); err != nil {
				return nil, err
			}
			j.started = true
		}
		rr, err := j.r.Next(ctx)
		if err != nil {
			return nil, err
		}
		if rr == nil {
			j.lRow = nil
			continue
		}
		return j.lRow.Concat(rr), nil
	}
}

func (j *nlJoin) Close() error {
	lerr := j.l.Close()
	var rerr error
	if j.started {
		rerr = j.r.Close()
	}
	if lerr != nil {
		return lerr
	}
	return rerr
}

func (j *nlJoin) Progress() float64 { return j.l.Progress() }

// --- Aggregate ---

type aggState struct {
	key    types.Row
	accums []accumulator
}

// aggOp accumulates its input into groups, in order of first sight. Without
// GROUP BY the one group is held in one: no map lookup per row, and a re-Open
// (per outer row inside a correlated sub-query) resets it without allocating.
type aggOp struct {
	node    *plan.Agg
	child   Operator
	keys    []Eval // compiled GROUP BY expressions
	args    []Eval // compiled aggregate arguments, nil for COUNT(*)
	one     aggState
	groups  map[string]*aggState
	order   []*aggState
	drained bool
	out     []types.Row
	pos     int
}

func (a *aggOp) Open(ctx *Ctx) error {
	a.groups, a.order, a.drained, a.out, a.pos = nil, a.order[:0], false, nil, 0
	if len(a.keys) == 0 {
		for i, s := range a.node.Aggs {
			a.one.accums[i] = accumulator{fn: s.Func, star: s.Star}
		}
		a.order = append(a.order, &a.one)
	}
	return a.child.Open(ctx)
}

func (a *aggOp) Next(ctx *Ctx) (types.Row, error) {
	if !a.drained {
		if err := a.drain(ctx); err != nil {
			return nil, err
		}
	}
	if a.pos >= len(a.out) {
		return nil, nil
	}
	r := a.out[a.pos]
	a.pos++
	return r, nil
}

// drain accumulates the child's rows into groups. It is resumable: the
// accumulation state lives on the operator, and the loop yields when the
// work budget runs out.
func (a *aggOp) drain(ctx *Ctx) error {
	for {
		if ctx.OverBudget() {
			return errYield
		}
		r, err := a.child.Next(ctx)
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		st := &a.one
		if len(a.keys) > 0 {
			keyRow := make(types.Row, len(a.keys))
			for i, k := range a.keys {
				if keyRow[i], err = k(r, ctx); err != nil {
					return err
				}
			}
			if a.groups == nil {
				a.groups = make(map[string]*aggState)
			}
			key := keyRow.Key()
			if st = a.groups[key]; st == nil {
				st = &aggState{key: keyRow, accums: newAccums(a.node.Aggs)}
				a.groups[key] = st
				a.order = append(a.order, st)
			}
		}
		for i, arg := range a.args {
			var v types.Value
			if arg != nil {
				if v, err = arg(r, ctx); err != nil {
					return err
				}
			}
			st.accums[i].add(v)
		}
	}
	a.out = make([]types.Row, 0, len(a.order))
	for _, st := range a.order {
		row := make(types.Row, 0, len(st.key)+len(st.accums))
		row = append(row, st.key...)
		for _, acc := range st.accums {
			row = append(row, acc.result())
		}
		a.out = append(a.out, row)
	}
	// Materializing the result costs one page per PageSlots groups.
	ctx.Meter.Charge(math.Max(1, math.Ceil(float64(len(a.out))/float64(storage.PageSlots))))
	a.drained = true
	return nil
}

func (a *aggOp) Close() error { return a.child.Close() }

func (a *aggOp) Progress() float64 {
	if !a.drained {
		return 0.95 * a.child.Progress()
	}
	if len(a.out) == 0 {
		return 1
	}
	return 0.95 + 0.05*float64(a.pos)/float64(len(a.out))
}

// accumulator implements one aggregate function incrementally.
type accumulator struct {
	fn      sql.AggFunc
	star    bool
	count   int64 // non-null inputs (or all inputs for COUNT(*))
	sumF    float64
	sumI    int64
	isFloat bool
	minMax  types.Value
}

func newAccums(specs []plan.AggSpec) []accumulator {
	out := make([]accumulator, len(specs))
	for i, s := range specs {
		out[i] = accumulator{fn: s.Func, star: s.Star}
	}
	return out
}

func (a *accumulator) add(v types.Value) {
	if a.star {
		a.count++
		return
	}
	if v.IsNull() {
		return
	}
	a.count++
	switch a.fn {
	case sql.AggSum, sql.AggAvg:
		if v.Kind() == types.KindFloat {
			a.isFloat = true
		}
		if v.IsNumeric() {
			a.sumF += v.Float()
			if v.Kind() == types.KindInt {
				a.sumI += v.Int()
			}
		}
	case sql.AggMin:
		if a.minMax.IsNull() {
			a.minMax = v
		} else if cmp, err := types.Compare(v, a.minMax); err == nil && cmp < 0 {
			a.minMax = v
		}
	case sql.AggMax:
		if a.minMax.IsNull() {
			a.minMax = v
		} else if cmp, err := types.Compare(v, a.minMax); err == nil && cmp > 0 {
			a.minMax = v
		}
	}
}

func (a *accumulator) result() types.Value {
	switch a.fn {
	case sql.AggCount:
		return types.NewInt(a.count)
	case sql.AggSum:
		if a.count == 0 {
			return types.Null
		}
		if a.isFloat {
			return types.NewFloat(a.sumF)
		}
		return types.NewInt(a.sumI)
	case sql.AggAvg:
		if a.count == 0 {
			return types.Null
		}
		return types.NewFloat(a.sumF / float64(a.count))
	case sql.AggMin, sql.AggMax:
		return a.minMax
	default:
		return types.Null
	}
}

// --- Distinct ---

type distinctOp struct {
	node    *plan.Distinct
	child   Operator
	seen    map[string]bool
	emitted int
}

func (d *distinctOp) Open(ctx *Ctx) error {
	d.seen = make(map[string]bool)
	d.emitted = 0
	return d.child.Open(ctx)
}

func (d *distinctOp) Next(ctx *Ctx) (types.Row, error) {
	for {
		if ctx.OverBudget() {
			return nil, errYield
		}
		r, err := d.child.Next(ctx)
		if err != nil || r == nil {
			return nil, err
		}
		key := r.Key()
		if d.seen[key] {
			continue
		}
		d.seen[key] = true
		d.emitted++
		// The dedup hash table materializes one page per PageSlots rows.
		if d.emitted%storage.PageSlots == 1 {
			ctx.Meter.ChargePage()
		}
		return r, nil
	}
}

func (d *distinctOp) Close() error      { return d.child.Close() }
func (d *distinctOp) Progress() float64 { return d.child.Progress() }

// --- Sort ---

// sortOp buffers its input and emits it stably ordered by the sort keys, each
// row's computed once, in input order, before sorting: if several rows' keys
// fail to evaluate, the first such row's error is the one reported.
type sortOp struct {
	node    *plan.Sort
	child   Operator
	keys    []Eval // compiled sort key expressions
	drained bool
	rows    []sortRow
	pos     int
}

type sortRow struct {
	row  types.Row
	keys []types.Value
}

func (s *sortOp) Open(ctx *Ctx) error {
	s.drained, s.rows, s.pos = false, nil, 0
	return s.child.Open(ctx)
}

func (s *sortOp) Next(ctx *Ctx) (types.Row, error) {
	if !s.drained {
		// Resumable input phase: the buffer persists across yields.
		for {
			if ctx.OverBudget() {
				return nil, errYield
			}
			r, err := s.child.Next(ctx)
			if err != nil {
				return nil, err
			}
			if r == nil {
				break
			}
			s.rows = append(s.rows, sortRow{row: r.Clone()})
		}
		// Materialize (write + read back): two page passes.
		pages := math.Max(1, math.Ceil(float64(len(s.rows))/float64(storage.PageSlots)))
		ctx.Meter.Charge(2 * pages)
		for i := range s.rows {
			sr := &s.rows[i]
			sr.keys = make([]types.Value, len(s.keys))
			for j, k := range s.keys {
				var err error
				if sr.keys[j], err = k(sr.row, ctx); err != nil {
					return nil, err
				}
			}
		}
		var cmpErr error
		sort.SliceStable(s.rows, func(i, j int) bool {
			for c, k := range s.node.Keys {
				cmp, err := types.Compare(s.rows[i].keys[c], s.rows[j].keys[c])
				if err != nil {
					cmpErr = err
					return false
				}
				if cmp != 0 {
					return (cmp > 0) == k.Desc
				}
			}
			return false
		})
		if cmpErr != nil {
			return nil, cmpErr
		}
		s.drained = true
	}
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.pos].row
	s.pos++
	return r, nil
}

func (s *sortOp) Close() error { return s.child.Close() }

func (s *sortOp) Progress() float64 {
	if !s.drained {
		return 0.9 * s.child.Progress()
	}
	if len(s.rows) == 0 {
		return 1
	}
	return 0.9 + 0.1*float64(s.pos)/float64(len(s.rows))
}

// --- Limit ---

type limitOp struct {
	node    *plan.Limit
	child   Operator
	emitted int64
}

func (l *limitOp) Open(ctx *Ctx) error {
	l.emitted = 0
	return l.child.Open(ctx)
}

func (l *limitOp) Next(ctx *Ctx) (types.Row, error) {
	if l.emitted >= l.node.N {
		return nil, nil
	}
	r, err := l.child.Next(ctx)
	if err != nil || r == nil {
		return nil, err
	}
	l.emitted++
	return r, nil
}

func (l *limitOp) Close() error { return l.child.Close() }

func (l *limitOp) Progress() float64 {
	if l.node.N <= 0 {
		return 1
	}
	frac := float64(l.emitted) / float64(l.node.N)
	child := l.child.Progress()
	return math.Min(1, math.Max(frac, child))
}
