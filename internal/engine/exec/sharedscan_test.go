package exec

import (
	"fmt"
	"testing"

	"mqpi/internal/engine/catalog"
	"mqpi/internal/engine/types"
)

// TestWorkMeterPlanes: the two accounting planes move together for ordinary
// work and diverge only through ChargeShared.
func TestWorkMeterPlanes(t *testing.T) {
	var m WorkMeter
	if m.Total() != 0 || m.Cost() != 0 {
		t.Fatalf("zero meter: total=%g cost=%g", m.Total(), m.Cost())
	}
	m.Charge(2.5)
	m.ChargePage()
	if m.Total() != 3.5 || m.Cost() != 3.5 {
		t.Fatalf("after charges: total=%g cost=%g, want 3.5/3.5", m.Total(), m.Cost())
	}
	m.ChargeShared(1)
	m.ChargeShared(2)
	if m.Total() != 6.5 {
		t.Errorf("total=%g, want 6.5 (shared charges count)", m.Total())
	}
	if m.Cost() != 3.5 {
		t.Errorf("cost=%g, want 3.5 (shared charges are free)", m.Cost())
	}
	if m.Cost() > m.Total() {
		t.Errorf("cost %g > total %g", m.Cost(), m.Total())
	}
}

// scanCatalog builds a single-table catalog with exactly pages heap pages.
func scanCatalog(t testing.TB, pages int) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	if _, err := c.CreateTable("t", types.NewSchema(
		types.Column{Name: "a", Type: types.KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages*64; i++ {
		if err := c.Insert("t", types.Row{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return c
}

// scanRunner prepares SELECT SUM(a) FROM t (a pure driver seq-scan, total
// work pages+1 U). Rows are collected; tests that don't read the aggregate
// switch CollectRows off themselves.
func scanRunner(t testing.TB, c *catalog.Catalog) *Runner {
	t.Helper()
	return NewRunner(planQuery(t, c, "SELECT SUM(a) FROM t"))
}

// driveGroup steps the runners round-robin with the given per-step budget
// until all are done, mimicking one scheduler work item. Returns the number
// of round-robin passes as a runaway guard.
func driveGroup(t testing.TB, runners []*Runner, budget float64) {
	t.Helper()
	for pass := 0; ; pass++ {
		if pass > 100000 {
			t.Fatal("group did not converge (barrier deadlock?)")
		}
		progress := false
		alldone := true
		for _, r := range runners {
			if r.Done() {
				continue
			}
			alldone = false
			consumed, done, err := r.Step(budget)
			if err != nil {
				t.Fatal(err)
			}
			if consumed > 0 || done {
				progress = true
			}
		}
		if alldone {
			return
		}
		if !progress {
			t.Fatal("no progress in a full pass with budget remaining")
		}
	}
}

// TestSharedScanDedup: two members folded from the start each charge a full
// lap of progress while the engine reads every page exactly once (the I11
// conservation law at the exec layer).
func TestSharedScanDedup(t *testing.T) {
	const pages = 8
	c := scanCatalog(t, pages)
	reg := NewFoldRegistry()
	a, b := scanRunner(t, c), scanRunner(t, c)
	solo := scanRunner(t, c)
	if err := solo.Run(); err != nil {
		t.Fatal(err)
	}
	if !reg.Attach(a, 0) || !reg.Attach(b, 0) {
		t.Fatal("both runners should fold")
	}
	if got := reg.Stats(); got.Groups != 1 || got.Members != 2 || got.Attaches != 2 {
		t.Fatalf("stats after attach: %+v", got)
	}
	driveGroup(t, []*Runner{a, b}, 3)
	for name, r := range map[string]*Runner{"a": a, "b": b} {
		if r.WorkDone() != solo.WorkDone() {
			t.Errorf("%s charged %g U, want solo's %g", name, r.WorkDone(), solo.WorkDone())
		}
		if r.FoldGroup() != 1 {
			t.Errorf("%s fold group = %d, want 1 (sticky after detach)", name, r.FoldGroup())
		}
		if r.FoldAttached() {
			t.Errorf("%s still attached after finishing", name)
		}
	}
	// One lap of pages was paid once across the pair; non-page work (the
	// aggregate drain) is full cost for both.
	if got, want := a.CostDone()+b.CostDone(), 2*solo.CostDone()-float64(pages); got != want {
		t.Errorf("combined cost = %g (a=%g b=%g), want %g", got, a.CostDone(), b.CostDone(), want)
	}
	reg.Sweep()
	st := reg.Stats()
	if st.Groups != 0 || st.Members != 0 {
		t.Errorf("after sweep: %+v", st)
	}
	if st.Fetches != pages || st.PagesSaved() != pages {
		t.Errorf("fetches=%d saved=%d, want %d/%d", st.Fetches, st.PagesSaved(), pages, pages)
	}
}

// TestSharedScanAttachAtOffset: a member that joins mid-rotation wraps around
// the cursor, still charges exactly one full lap, and computes the same
// result as a solo scan.
func TestSharedScanAttachAtOffset(t *testing.T) {
	const pages = 10
	c := scanCatalog(t, pages)
	solo := scanRunner(t, c)
	if err := solo.Run(); err != nil {
		t.Fatal(err)
	}
	want := sumOfSolo(t, c)

	reg := NewFoldRegistry()
	a := scanRunner(t, c)
	if !reg.Attach(a, 0) {
		t.Fatal("a should fold")
	}
	// Advance a partway through its lap before b arrives.
	for a.WorkDone() < 4 {
		if _, done, err := a.Step(1); err != nil || done {
			t.Fatalf("a finished early: done=%v err=%v", done, err)
		}
	}
	b := scanRunner(t, c)
	b.CollectRows = false
	if !reg.Attach(b, 0) {
		t.Fatal("b should join a's group")
	}
	if a.FoldGroup() != b.FoldGroup() {
		t.Fatalf("groups differ: %d vs %d", a.FoldGroup(), b.FoldGroup())
	}
	driveGroup(t, []*Runner{a, b}, 2)
	if a.WorkDone() != solo.WorkDone() || b.WorkDone() != solo.WorkDone() {
		t.Errorf("charged a=%g b=%g, want %g", a.WorkDone(), b.WorkDone(), solo.WorkDone())
	}
	// b consumed the pages in rotated order; its aggregate must not care.
	ar, err := aggValue(a)
	if err != nil {
		t.Fatal(err)
	}
	if ar != want {
		t.Errorf("a sum = %d, want %d", ar, want)
	}
	reg.Sweep()
	st := reg.Stats()
	// a fetched its full lap; b rode the tail it shared with a and fetched the
	// head pages it replayed solo-in-group after a detached.
	if st.Shared == 0 {
		t.Errorf("no pages shared: %+v", st)
	}
	if st.Fetches+st.Shared != 2*pages {
		t.Errorf("fetches+shared = %d, want %d (two full laps)", st.Fetches+st.Shared, 2*pages)
	}
}

func sumOfSolo(t testing.TB, c *catalog.Catalog) int64 {
	t.Helper()
	r := scanRunner(t, c)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	v, err := aggValue(r)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// aggValue reads the runner's single collected aggregate row.
func aggValue(r *Runner) (int64, error) {
	rows := r.Rows()
	if len(rows) != 1 {
		return 0, fmt.Errorf("got %d rows, want 1", len(rows))
	}
	return rows[0][0].Int(), nil
}

// TestSharedScanDetachMidPage: releasing a member mid-lap must hand it a solo
// continuation that finishes the lap at full cost, without re-charging or
// skipping pages.
func TestSharedScanDetachMidPage(t *testing.T) {
	const pages = 8
	c := scanCatalog(t, pages)
	solo := scanRunner(t, c)
	if err := solo.Run(); err != nil {
		t.Fatal(err)
	}
	want := sumOfSolo(t, c)

	reg := NewFoldRegistry()
	a, b := scanRunner(t, c), scanRunner(t, c)
	b.CollectRows = false
	reg.Attach(a, 0)
	reg.Attach(b, 0)
	// Step the pair partway in lockstep.
	for a.WorkDone() < 3 {
		if _, _, err := a.Step(1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	a.ReleaseFold()
	if a.FoldAttached() {
		t.Fatal("a still attached after release")
	}
	if !b.FoldAttached() {
		t.Fatal("b should remain attached")
	}
	// Both finish independently now (b is a 1-member group, never barriers).
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	driveGroup(t, []*Runner{b}, 5)
	if a.WorkDone() != solo.WorkDone() || b.WorkDone() != solo.WorkDone() {
		t.Errorf("charged a=%g b=%g, want %g", a.WorkDone(), b.WorkDone(), solo.WorkDone())
	}
	if v, err := aggValue(a); err != nil || v != want {
		t.Errorf("a sum = %d (err %v), want %d", v, err, want)
	}
	// Stepped a-first, a pays every fetch while attached and then its solo
	// continuation at full cost; b rode the shared stretch for free.
	if a.CostDone() != a.WorkDone() {
		t.Errorf("a cost=%g total=%g, want equal (a fetched everything it read)", a.CostDone(), a.WorkDone())
	}
	if b.CostDone() >= b.WorkDone() {
		t.Errorf("b shared nothing: cost=%g total=%g", b.CostDone(), b.WorkDone())
	}
}

// TestFoldRegistryEligibility: runners without a seq-scan driver, already
// started, or over tiny relations stay solo.
func TestFoldRegistryEligibility(t *testing.T) {
	c := scanCatalog(t, 8)
	reg := NewFoldRegistry()

	started := scanRunner(t, c)
	if _, _, err := started.Step(1); err != nil {
		t.Fatal(err)
	}
	if reg.Attach(started, 0) {
		t.Error("a started runner must not fold")
	}

	r := scanRunner(t, c)
	if !reg.Attach(r, 0) {
		t.Fatal("fresh runner should fold")
	}
	if reg.Attach(r, 0) {
		t.Error("double attach must be refused")
	}

	// Different priority class: separate group.
	other := scanRunner(t, c)
	if !reg.Attach(other, 1) {
		t.Fatal("other class should fold into its own group")
	}
	if other.FoldGroup() == r.FoldGroup() {
		t.Error("different classes folded together")
	}

	// Below the page floor: a one-page relation stays solo.
	tiny := scanRunner(t, scanCatalog(t, 1))
	if reg.Attach(tiny, 0) {
		t.Error("a one-page relation must not fold")
	}
}

// TestFoldBudgetSemantics: a folded member honors its Step budget exactly as
// a solo runner does — OverBudget with Limit=0 never trips, and mid-operator
// budget exhaustion on the shared cursor never over-charges a member.
func TestFoldBudgetSemantics(t *testing.T) {
	ctx := NewCtx()
	if ctx.OverBudget() {
		t.Fatal("Limit=0 must mean no budget")
	}
	ctx.Meter.Charge(1e9)
	if ctx.OverBudget() {
		t.Fatal("Limit=0 must mean no budget regardless of meter level")
	}

	const pages = 6
	c := scanCatalog(t, pages)
	reg := NewFoldRegistry()
	a, b := scanRunner(t, c), scanRunner(t, c)
	a.CollectRows, b.CollectRows = false, false
	reg.Attach(a, 0)
	reg.Attach(b, 0)
	// Fractional budgets: each Step may overshoot by at most one indivisible
	// chunk, exactly like solo execution.
	for !a.Done() || !b.Done() {
		before := a.WorkDone()
		consumed, _, err := a.Step(0.6)
		if err != nil {
			t.Fatal(err)
		}
		if consumed != a.WorkDone()-before {
			t.Fatalf("consumed %g reported, meter moved %g", consumed, a.WorkDone()-before)
		}
		if consumed > 2 {
			t.Fatalf("0.6 budget consumed %g U (over-charge)", consumed)
		}
		if _, _, err := b.Step(0.6); err != nil {
			t.Fatal(err)
		}
	}
	if a.WorkDone() != b.WorkDone() || a.WorkDone() != float64(pages+1) {
		t.Errorf("charged a=%g b=%g, want %d", a.WorkDone(), b.WorkDone(), pages+1)
	}
}

// TestSharedScanManyMembers folds 16 members over one relation and checks
// the conservation law at scale: every member charges a full lap, and total
// engine cost across the group is exactly one lap of pages.
func TestSharedScanManyMembers(t *testing.T) {
	const pages, n = 12, 16
	c := scanCatalog(t, pages)
	reg := NewFoldRegistry()
	runners := make([]*Runner, n)
	for i := range runners {
		runners[i] = scanRunner(t, c)
		runners[i].CollectRows = false
		if !reg.Attach(runners[i], 0) {
			t.Fatalf("runner %d did not fold", i)
		}
	}
	driveGroup(t, runners, 2.5)
	for i, r := range runners {
		if r.WorkDone() != float64(pages+1) {
			t.Errorf("runner %d charged %g U, want %d", i, r.WorkDone(), pages+1)
		}
	}
	reg.Sweep()
	st := reg.Stats()
	if st.Fetches != pages {
		t.Errorf("group fetched %d pages, want %d (one lap total)", st.Fetches, pages)
	}
	if st.PagesSaved() != uint64(pages*(n-1)) {
		t.Errorf("saved %d pages, want %d", st.PagesSaved(), pages*(n-1))
	}
}
