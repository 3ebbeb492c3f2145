package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// StageDiagram renders a Profile as the ASCII equivalent of the paper's
// Figures 1 and 2: one row per query, columns are time, and each cell's
// glyph height encodes the query's execution speed during that stage (taller
// block = faster). A blocked query renders as a flat line.
//
// Example (four equal-priority queries, Figure 1):
//
//	Q1 ▁▁▁▁|
//	Q2 ▁▁▁▁|▂▂▂|
//	Q3 ▁▁▁▁|▂▂▂|▄▄|
//	Q4 ▁▁▁▁|▂▂▂|▄▄|█|
//	    t1   t2  t3 t4
func StageDiagram(states []QueryState, C float64, width int) string {
	return StageDiagramBands(states, C, width, nil)
}

// StageDiagramBands is StageDiagram with per-query uncertainty bands: each
// finish annotation gains its estimator interval ("finishes at 12.0s
// ±[10.8,13.4]"). bands[i] is the band of states[i]; an empty or unbounded
// one (High <= Low, High = +Inf, a NaN end) is not drawn. Nil bands render
// byte-identically to StageDiagram — the stage-mode service passes nil, so
// classic diagrams are unchanged.
func StageDiagramBands(states []QueryState, C float64, width int, bands []Interval) string {
	if width <= 0 {
		width = 60
	}
	prof := ComputeProfile(states, C)
	if len(prof.Order) == 0 {
		return "(no runnable queries)\n"
	}
	total := prof.QuiescentTime()
	if total <= 0 {
		return "(all queries already finished)\n"
	}

	pos := make(map[int]int, len(states)) // query id -> index in states
	for i, q := range states {
		pos[q.ID] = i
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")

	// Folded queries are annotated with their shared-scan group so the rows
	// advancing in lockstep over one cursor are visible in the figure.
	foldOf := make(map[int]int)
	for _, s := range prof.Shared {
		for _, id := range s.IDs {
			foldOf[id] = s.Fold
		}
	}

	var b strings.Builder
	staged := make(map[int]bool, len(prof.Order))
	// Render rows in finish order, like the paper's figures. During stage k
	// the queries still running share C by weight: C·w/W_k each.
	for qi, id := range prof.Order {
		staged[id] = true
		w := Sanitize(states[pos[id]]).Weight
		fmt.Fprintf(&b, "%-6s ", fmt.Sprintf("Q%d", id))
		for stage := 0; stage <= qi; stage++ {
			dur := prof.StageDur[stage]
			cells := int(math.Round(dur / total * float64(width)))
			if cells == 0 && dur > 0 {
				cells = 1
			}
			speed := C * w / prof.StageW[stage]
			level := int(speed / C * float64(len(glyphs)))
			if level >= len(glyphs) {
				level = len(glyphs) - 1
			}
			b.WriteString(strings.Repeat(string(glyphs[level]), cells))
			// Stage boundary bar after every stage, as in the figures: each
			// bar marks a finish time at which the survivors speed up.
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "  finishes at %.1fs", prof.Finish[id])
		if i := pos[id]; i < len(bands) && bands[i].High > bands[i].Low && !math.IsInf(bands[i].High, 1) {
			fmt.Fprintf(&b, " ±[%.1f,%.1f]", bands[i].Low, bands[i].High)
		}
		if g, ok := foldOf[id]; ok {
			fmt.Fprintf(&b, "  [fold g%d]", g)
		}
		b.WriteByte('\n')
	}
	// Blocked queries — a +Inf finish and no stage — render as flat lines.
	var blockedIDs []int
	for id, f := range prof.Finish {
		if math.IsInf(f, 1) && !staged[id] {
			blockedIDs = append(blockedIDs, id)
		}
	}
	sort.Ints(blockedIDs)
	for _, id := range blockedIDs {
		fmt.Fprintf(&b, "%-6s %s  blocked\n", fmt.Sprintf("Q%d", id), strings.Repeat("·", width))
	}
	fmt.Fprintf(&b, "%-6s 0s%ss\n", "", strings.Repeat("-", width-4)+fmt.Sprintf("%.1f", total))
	return b.String()
}
