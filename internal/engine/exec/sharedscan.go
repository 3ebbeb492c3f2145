package exec

import (
	"sort"

	"mqpi/internal/engine/storage"
)

// This file is the scan-sharing ("folding") layer: when several concurrent
// queries seq-scan the same relation, they attach to one shared cursor that
// circles the heap once per member. Every page the cursor grants charges each
// consuming member's progress plane exactly as a solo scan would (1 U per
// page, at the same grant points), but only the first consumer of a cursor
// position pays the engine-cost plane — the rest ride the page already "in
// the buffer" for free (WorkMeter.ChargeShared). A member that arrives late
// attaches at the cursor's current position and wraps around (attach-at-
// offset); a member that completes its lap, or is forcibly released (block,
// abort, priority change, fold disabled), detaches and — if its lap is
// unfinished — continues the remaining rotation solo at full cost.
//
// Concurrency contract: a FoldGroup is stepped by exactly one goroutine at a
// time (the scheduler runs a whole group as one execute-phase work item), so
// group state needs no synchronization. Registry operations (Attach, Release,
// Sweep, Stats, Tables) are serial-phase only: the scheduler calls them from
// its allocate/settle phases or from control operations, never while an
// execute phase is in flight.

// ScanPageState is the outcome of asking a ScanSource for the next page.
type ScanPageState int

const (
	// PageReady: the returned page number may be read now; the source has
	// already charged the member's meter for it.
	PageReady ScanPageState = iota
	// PageWait: a shared cursor is parked behind a slower member; the scan
	// must yield its budget slice and retry on a later step.
	PageWait
	// PageEOF: the scan has covered every page; no page was granted.
	PageEOF
)

// ScanSource hands a sequential scan its next heap page. soloSource walks
// 0..NumPages-1; FoldMember serves the shared rotating cursor.
type ScanSource interface {
	NextPage(ctx *Ctx) (int, ScanPageState)
}

// soloSource is the unshared page source: pages in physical order, one
// ChargePage per grant — exactly the classic seq-scan cost model. NumPages is
// re-read on every grant so rows appended by DML between scheduler ticks are
// still scanned.
type soloSource struct {
	rel  *storage.Relation
	next int
}

func (s *soloSource) NextPage(ctx *Ctx) (int, ScanPageState) {
	if s.next >= s.rel.NumPages() {
		return 0, PageEOF
	}
	p := s.next
	s.next++
	ctx.Meter.ChargePage()
	return p, PageReady
}

// FoldMember is one query's seat on a shared cursor. It implements ScanSource
// for the query's driver seq-scan. After detachment it keeps serving pages —
// the solo continuation of the interrupted lap — so releasing a fold never
// perturbs the member's result or its charged-work accounting.
type FoldMember struct {
	group    *FoldGroup
	groupID  int  // stamped at attach; survives detach for reporting
	consumed bool // consumed the group's current cursor position
	read     int  // pages consumed so far (lap is done at NumPages)
	detached bool
	pos      int // solo-continuation cursor, valid once detached
}

// Attached reports whether the member still rides the shared cursor.
func (m *FoldMember) Attached() bool { return !m.detached }

// NextPage serves the member's next page: from the shared cursor while
// attached, from the solo continuation after detachment.
func (m *FoldMember) NextPage(ctx *Ctx) (int, ScanPageState) {
	if m.detached {
		rel := m.group.rel
		if m.read >= rel.NumPages() {
			return 0, PageEOF
		}
		p := m.pos
		m.pos++
		if m.pos >= rel.NumPages() {
			m.pos = 0
		}
		m.read++
		ctx.Meter.ChargePage()
		return p, PageReady
	}
	g := m.group
	for {
		if m.read >= g.rel.NumPages() {
			// Lap complete (or empty relation): leave the group so peers no
			// longer wait on this member at the barrier.
			g.detach(m)
			return 0, PageEOF
		}
		if !m.consumed {
			// Consume the cursor's current position. The first consumer of a
			// position fetches the page (full cost); later consumers ride it.
			if !g.fetched {
				g.fetched = true
				g.fetches++
				ctx.Meter.ChargePage()
			} else {
				g.shared++
				ctx.Meter.ChargeShared(1)
			}
			m.consumed = true
			m.read++
			return g.pos, PageReady
		}
		// Already consumed this position: the cursor advances only once every
		// member has (the barrier that keeps the lap shared).
		for _, o := range g.members {
			if !o.consumed {
				return 0, PageWait
			}
		}
		g.pos++
		if g.pos >= g.rel.NumPages() {
			g.pos = 0
		}
		g.fetched = false
		for _, o := range g.members {
			o.consumed = false
		}
	}
}

// FoldGroup is one shared cursor: the members attached to one relation within
// one sharing class, and the cursor's rotation state.
type FoldGroup struct {
	id      int
	table   string
	rel     *storage.Relation
	members []*FoldMember
	pos     int  // current cursor position (absolute page number)
	fetched bool // current position already paid for this lap step
	fetches int  // pages physically read on behalf of the group
	shared  int  // page consumptions served without a physical read
}

// detach removes m from the group and arms its solo continuation: the next
// page m would have consumed from the shared cursor.
func (g *FoldGroup) detach(m *FoldMember) {
	if m.detached {
		return
	}
	m.pos = g.pos
	if m.consumed {
		m.pos++
		if m.pos >= g.rel.NumPages() {
			m.pos = 0
		}
	}
	m.detached = true
	for i, o := range g.members {
		if o == m {
			g.members = append(g.members[:i], g.members[i+1:]...)
			break
		}
	}
}

// FoldStats is a point-in-time summary of a registry: live group/member
// gauges plus lifetime counters (monotonic across fold on/off toggles).
type FoldStats struct {
	Groups   int    // live groups (>= 1 member)
	Members  int    // live attached members
	Attaches uint64 // lifetime member attachments
	Fetches  uint64 // lifetime pages physically read by shared cursors
	Shared   uint64 // lifetime page consumptions served without a read
}

// PagesSaved is the engine I/O avoided by folding: every shared consumption
// is one page-read that did not happen.
func (s FoldStats) PagesSaved() uint64 { return s.Shared }

// foldKey identifies a sharing group: one relation, one class (the scheduler
// passes the query's priority, so only equal-weight queries fold together and
// each member's charged progress stays bit-identical to its solo run).
type foldKey struct {
	rel   *storage.Relation
	class int
}

// FoldRegistry tracks the live fold groups of one scheduler. Serial-phase
// only; see the concurrency contract at the top of the file.
type FoldRegistry struct {
	groups   map[foldKey]*FoldGroup
	nextID   int
	attaches uint64
	// Lifetime counters folded in from retired groups by Sweep; Stats adds
	// the live groups' counts on top.
	fetches uint64
	shared  uint64
}

// foldMinPages is the page floor of folding: a scan of a shorter relation
// cannot outlive the tick that starts it, so it is not worth sharing and stays
// solo.
const foldMinPages = 2

// NewFoldRegistry creates an empty registry.
func NewFoldRegistry() *FoldRegistry {
	return &FoldRegistry{groups: make(map[foldKey]*FoldGroup)}
}

// Attach folds r's driver seq-scan into the registry, creating the relation's
// group on first use or joining the cursor at its current position. It
// reports whether r folded; ineligible runners (no driver seq-scan, already
// started, already folded, relation below the page floor) are left solo.
func (reg *FoldRegistry) Attach(r *Runner, class int) bool {
	scan := r.foldTarget()
	if scan == nil || r.opened || r.fold != nil {
		return false
	}
	rel := scan.node.Table.Rel
	if rel.NumPages() < foldMinPages {
		return false
	}
	key := foldKey{rel: rel, class: class}
	g := reg.groups[key]
	if g == nil {
		reg.nextID++
		g = &FoldGroup{id: reg.nextID, table: scan.node.Name, rel: rel}
		reg.groups[key] = g
	}
	m := &FoldMember{group: g, groupID: g.id, pos: g.pos}
	g.members = append(g.members, m)
	reg.attaches++
	r.fold = m
	scan.fold = m
	return true
}

// Sweep retires empty groups, folding their counters into the lifetime
// totals. Call from a serial phase after members may have detached.
func (reg *FoldRegistry) Sweep() {
	for key, g := range reg.groups {
		if len(g.members) == 0 {
			reg.fetches += uint64(g.fetches)
			reg.shared += uint64(g.shared)
			delete(reg.groups, key)
		}
	}
}

// ReleaseAll force-detaches every member of every group (fold switched off):
// each continues its lap solo. Groups retire on the next Sweep.
func (reg *FoldRegistry) ReleaseAll() {
	for _, g := range reg.groups {
		for len(g.members) > 0 {
			g.detach(g.members[len(g.members)-1])
		}
	}
}

// HasSharing reports whether any live group has at least two members — the
// only case where the scheduler's execute phase must group runners into
// shared work items.
func (reg *FoldRegistry) HasSharing() bool {
	for _, g := range reg.groups {
		if len(g.members) >= 2 {
			return true
		}
	}
	return false
}

// Stats summarizes the registry. Drained groups that have not been swept yet
// still contribute their counters (only the gauges skip them), so the
// lifetime totals never dip in the window between a detach and the next
// Sweep — snapshots published by mid-tick mutations read Stats directly.
func (reg *FoldRegistry) Stats() FoldStats {
	st := FoldStats{Attaches: reg.attaches, Fetches: reg.fetches, Shared: reg.shared}
	for _, g := range reg.groups {
		st.Fetches += uint64(g.fetches)
		st.Shared += uint64(g.shared)
		if len(g.members) == 0 {
			continue
		}
		st.Groups++
		st.Members += len(g.members)
	}
	return st
}

// Tables returns the sorted table names with at least one live fold group —
// the routing signal a fold-aware balancer keys on.
func (reg *FoldRegistry) Tables() []string {
	seen := make(map[string]bool)
	var out []string
	for _, g := range reg.groups {
		if len(g.members) > 0 && !seen[g.table] {
			seen[g.table] = true
			out = append(out, g.table)
		}
	}
	sort.Strings(out)
	return out
}
