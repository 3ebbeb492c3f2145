package service

import (
	"fmt"
	"testing"
)

func TestEventLogDefaultCap(t *testing.T) {
	l := newEventLog(0)
	if l.capPerQuery != 128 {
		t.Fatalf("zero cap should default to 128, got %d", l.capPerQuery)
	}
	l = newEventLog(-3)
	if l.capPerQuery != 128 {
		t.Fatalf("negative cap should default to 128, got %d", l.capPerQuery)
	}
}

func TestEventLogRingBound(t *testing.T) {
	const cap = 4
	l := newEventLog(cap)
	for i := 0; i < 10; i++ {
		l.add(float64(i), 1, EventRevised, fmt.Sprintf("rev %d", i))
	}
	got := l.Query(1)
	if len(got) != cap {
		t.Fatalf("ring should retain %d events, got %d", cap, len(got))
	}
	// The newest cap events survive, oldest-first: seqs 7..10.
	for i, ev := range got {
		if want := int64(7 + i); ev.Seq != want {
			t.Errorf("event %d: want seq %d, got %d (%s)", i, want, ev.Seq, ev.Detail)
		}
	}
	if got[0].Detail != "rev 6" || got[cap-1].Detail != "rev 9" {
		t.Errorf("wraparound order wrong: first %q, last %q", got[0].Detail, got[cap-1].Detail)
	}
}

func TestEventLogOrderBeforeWraparound(t *testing.T) {
	l := newEventLog(8)
	for i := 0; i < 5; i++ {
		l.add(float64(i), 7, EventRevised, "")
	}
	got := l.Query(7)
	if len(got) != 5 {
		t.Fatalf("want all 5 events below cap, got %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("events out of order at %d: %d after %d", i, got[i].Seq, got[i-1].Seq)
		}
	}
}

func TestEventLogQueryUnknown(t *testing.T) {
	l := newEventLog(4)
	if got := l.Query(42); got != nil {
		t.Fatalf("unknown query should return nil, got %v", got)
	}
}

func TestEventLogAllMergedBySeq(t *testing.T) {
	l := newEventLog(3)
	// Interleave two queries; query 1 wraps its ring, query 2 stays below cap.
	for i := 0; i < 8; i++ {
		l.add(float64(i), 1+i%2, EventRevised, "")
	}
	got := l.All()
	if len(got) != 3+3 { // q1 wrapped to 3, q2 has 4 adds but cap 3
		t.Fatalf("want 6 retained events, got %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("All() not merged by seq at %d: %d after %d", i, got[i].Seq, got[i-1].Seq)
		}
	}
}

// TestRevisedDetailRendersLikeSprintf is the golden test for the lazily
// rendered estimate_revised detail: what Query and All return must be, byte
// for byte, the string the owner used to format eagerly — across signs,
// rounding at the third decimal, and a ring that overwrote its oldest events.
func TestRevisedDetailRendersLikeSprintf(t *testing.T) {
	eager := func(last, abs float64) string {
		return fmt.Sprintf("predicted finish moved %+.3fs (t=%.3fs -> t=%.3fs)", abs-last, last, abs)
	}
	moves := [][2]float64{
		{10, 12.5},            // later
		{12.5, 10},            // earlier
		{3, 3},                // no move: +0.000
		{1.0004, 1.0009},      // rounds to +0.001 from below
		{1.0009, 1.0004},      // -0.0005 rounds to -0.001 or -0.000, as Sprintf decides
		{0.1, 0.3},            // 0.19999999999999998
		{2.5, 2.50049},        // +0.000 with a positive sign
		{2.50049, 2.5},        // -0.000 keeps its sign
		{123456.789, 1e6 / 3}, // wide values
		{0.0005, 0.0015},      // ties at the rounding digit
	}
	const cap = 4
	l := newEventLog(cap)
	var want []string
	for i, mv := range moves {
		l.addRevised(float64(i), []move{{1, mv[0], mv[1]}})
		want = append(want, eager(mv[0], mv[1]))
	}
	l.add(99, 2, EventFinished, "latency 1.000s, 2.0 U") // eager details pass through

	got := l.Query(1)
	if len(got) != cap {
		t.Fatalf("ring retained %d events, want %d", len(got), cap)
	}
	for i, ev := range got {
		if w := want[len(want)-cap+i]; ev.Detail != w || ev.Type != EventRevised {
			t.Errorf("event %d: detail %q, want %q", i, ev.Detail, w)
		}
	}
	all := l.All()
	if len(all) != cap+1 {
		t.Fatalf("All returned %d events, want %d", len(all), cap+1)
	}
	for i := 0; i < cap; i++ {
		if all[i] != got[i] {
			t.Errorf("All()[%d] = %+v, Query(1)[%d] = %+v", i, all[i], i, got[i])
		}
	}
	if all[cap].Detail != "latency 1.000s, 2.0 U" {
		t.Errorf("eager detail came back as %q", all[cap].Detail)
	}
	// Rendering works on the reader's copy: the stored event keeps no text.
	if stored := l.rings[1].buf[0]; stored.Detail != "" {
		t.Errorf("stored event was rendered in place: %q", stored.Detail)
	}
}
