package core

import (
	"math"
	"strings"
	"testing"
)

func TestStageDiagramEmpty(t *testing.T) {
	if got := StageDiagram(nil, 10, 40); got != "(no runnable queries)\n" {
		t.Errorf("nil states: got %q", got)
	}
	// Blocked-only input has no runnable queries either.
	blocked := []QueryState{{ID: 1, Remaining: 10, Weight: 0}}
	if got := StageDiagram(blocked, 10, 40); got != "(no runnable queries)\n" {
		t.Errorf("blocked-only states: got %q", got)
	}
}

func TestStageDiagramAllFinished(t *testing.T) {
	states := []QueryState{
		{ID: 1, Remaining: 0, Weight: 1, Done: 5},
		{ID: 2, Remaining: 0, Weight: 2, Done: 9},
	}
	if got := StageDiagram(states, 10, 40); got != "(all queries already finished)\n" {
		t.Errorf("got %q", got)
	}
}

func TestStageDiagramWidthClamp(t *testing.T) {
	// A non-positive width falls back to the 60-column default; the blocked
	// row's dot run makes the effective width directly observable.
	states := []QueryState{
		{ID: 1, Remaining: 10, Weight: 1},
		{ID: 2, Remaining: 10, Weight: 0},
	}
	for _, width := range []int{0, -7} {
		out := StageDiagram(states, 10, width)
		if !strings.Contains(out, strings.Repeat("·", 60)+"  blocked") {
			t.Errorf("width=%d: blocked row does not span the 60-column default:\n%s", width, out)
		}
		if strings.Contains(out, strings.Repeat("·", 61)) {
			t.Errorf("width=%d: blocked row exceeds the 60-column default:\n%s", width, out)
		}
	}
}

func TestStageDiagramRows(t *testing.T) {
	// Figure 1's shape: four equal-priority queries, remaining work 10..40 at
	// C=10 U/s finish at 4, 7, 9, and 10 seconds.
	states := []QueryState{
		{ID: 4, Remaining: 40, Weight: 1},
		{ID: 2, Remaining: 20, Weight: 1},
		{ID: 3, Remaining: 30, Weight: 1},
		{ID: 1, Remaining: 10, Weight: 1},
	}
	out := StageDiagram(states, 10, 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // four query rows plus the time axis
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	wantFinish := []string{
		"Q1", "finishes at 4.0s",
		"Q2", "finishes at 7.0s",
		"Q3", "finishes at 9.0s",
		"Q4", "finishes at 10.0s",
	}
	for i := 0; i < 4; i++ {
		line := lines[i]
		if !strings.HasPrefix(line, wantFinish[2*i]) || !strings.Contains(line, wantFinish[2*i+1]) {
			t.Errorf("row %d: want prefix %q and finish %q, got %q",
				i, wantFinish[2*i], wantFinish[2*i+1], line)
		}
		// Row k crosses k+1 stages, one boundary bar per stage.
		if got := strings.Count(line, "|"); got != i+1 {
			t.Errorf("row %d: want %d stage bars, got %d: %q", i, i+1, got, line)
		}
	}
	if !strings.HasPrefix(lines[4], "       0s") || !strings.HasSuffix(lines[4], "10.0s") {
		t.Errorf("time axis malformed: %q", lines[4])
	}
}

func TestStageDiagramBlockedRow(t *testing.T) {
	states := []QueryState{
		{ID: 1, Remaining: 10, Weight: 1},
		{ID: 9, Remaining: 99, Weight: 0},
		{ID: 5, Remaining: 50, Weight: 0},
	}
	out := StageDiagram(states, 10, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// One running row, two blocked rows (sorted by ID), then the axis.
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	for i, want := range []string{"Q5", "Q9"} {
		line := lines[1+i]
		if !strings.HasPrefix(line, want) || !strings.HasSuffix(line, "blocked") {
			t.Errorf("blocked row %d: got %q", i, line)
		}
		if !strings.Contains(line, strings.Repeat("·", 20)) {
			t.Errorf("blocked row %d: dot run shorter than width: %q", i, line)
		}
	}
}

func TestStageDiagramFoldMarker(t *testing.T) {
	states := []QueryState{
		{ID: 1, Remaining: 30, Weight: 1, Fold: 2},
		{ID: 2, Remaining: 30, Weight: 1, Fold: 2},
		{ID: 3, Remaining: 10, Weight: 1},
	}
	d := StageDiagram(states, 10, 40)
	if !strings.Contains(d, "[fold g2]") {
		t.Errorf("diagram missing fold marker:\n%s", d)
	}
	if strings.Count(d, "[fold g2]") != 2 {
		t.Errorf("want fold marker on both members:\n%s", d)
	}
	for _, line := range strings.Split(d, "\n") {
		if strings.HasPrefix(line, "Q3") && strings.Contains(line, "fold") {
			t.Errorf("solo query marked folded: %s", line)
		}
	}
}

// TestStageDiagramNonFiniteWeights: a NaN or ±Inf weight sanitizes to 0, so the
// profile has the query blocked with a +Inf finish; the diagram must draw it
// as a blocked row, not drop it.
func TestStageDiagramNonFiniteWeights(t *testing.T) {
	states := []QueryState{
		{ID: 1, Remaining: 10, Weight: 1},
		{ID: 2, Remaining: 10, Weight: math.NaN()},
		{ID: 3, Remaining: 20, Weight: math.Inf(1)},
	}
	out := StageDiagram(states, 10, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // one stage row, two blocked rows, the time axis
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Q1 ") || !strings.Contains(lines[0], "finishes at 1.0s") {
		t.Errorf("stage row: %q", lines[0])
	}
	for i, id := range []string{"Q2", "Q3"} {
		if row := lines[1+i]; !strings.HasPrefix(row, id+" ") || !strings.HasSuffix(row, "  blocked") {
			t.Errorf("blocked row %d: %q, want %s blocked", i, row, id)
		}
	}
}
