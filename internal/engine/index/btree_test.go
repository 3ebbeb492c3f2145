package index

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mqpi/internal/engine/storage"
)

func rid(i int) storage.RowID { return storage.RowID{Page: i, Slot: 0} }

// validate checks the B+-tree invariants: sorted keys within each node's
// separator bounds, consistent fanout, uniform leaf depth, and an entry count
// that matches Len.
func validate(t *BTree) error {
	depth := -1
	count := 0
	var walk func(n *node, level int, lo, hi *int64) error
	walk = func(n *node, level int, lo, hi *int64) error {
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i-1] >= n.keys[i] {
				return fmt.Errorf("index: keys out of order at level %d: %d >= %d", level, n.keys[i-1], n.keys[i])
			}
		}
		for _, k := range n.keys {
			if lo != nil && k < *lo {
				return fmt.Errorf("index: key %d below lower bound %d", k, *lo)
			}
			if hi != nil && k >= *hi {
				return fmt.Errorf("index: key %d at/above upper bound %d", k, *hi)
			}
		}
		if n != t.root && len(n.keys) > Fanout {
			return fmt.Errorf("index: node overflow: %d keys", len(n.keys))
		}
		if n.leaf {
			if depth == -1 {
				depth = level
			} else if depth != level {
				return fmt.Errorf("index: leaves at different depths: %d vs %d", depth, level)
			}
			if len(n.vals) != len(n.keys) {
				return fmt.Errorf("index: leaf has %d keys but %d value lists", len(n.keys), len(n.vals))
			}
			for _, v := range n.vals {
				count += len(v)
			}
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("index: internal node has %d keys but %d children", len(n.keys), len(n.children))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = &n.keys[i]
			}
			if err := walk(c, level+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, nil, nil); err != nil {
		return err
	}
	if count != t.nkeys {
		return fmt.Errorf("index: leaves hold %d entries, expected %d", count, t.nkeys)
	}
	return nil
}

func TestEmptyTree(t *testing.T) {
	bt := New("idx", "t", "a")
	if bt.Len() != 0 || bt.Height() != 1 {
		t.Errorf("empty tree: len=%d height=%d", bt.Len(), bt.Height())
	}
	p := bt.SearchEq(5)
	if len(p.RowIDs) != 0 || p.NodesTouched != 1 {
		t.Errorf("SearchEq on empty = %+v", p)
	}
	if err := validate(bt); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestInsertSearchSequential(t *testing.T) {
	bt := New("idx", "t", "a")
	const n = 1000
	for i := 0; i < n; i++ {
		bt.Insert(int64(i), rid(i))
	}
	if bt.Len() != n {
		t.Errorf("Len = %d, want %d", bt.Len(), n)
	}
	if bt.Height() < 2 {
		t.Errorf("tree of %d keys should have split (height %d)", n, bt.Height())
	}
	if err := validate(bt); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for i := 0; i < n; i++ {
		p := bt.SearchEq(int64(i))
		if len(p.RowIDs) != 1 || p.RowIDs[0] != rid(i) {
			t.Fatalf("SearchEq(%d) = %v", i, p.RowIDs)
		}
		if p.NodesTouched != bt.Height() {
			t.Fatalf("probe touched %d nodes, height is %d", p.NodesTouched, bt.Height())
		}
	}
	if got := bt.SearchEq(int64(n)); len(got.RowIDs) != 0 {
		t.Errorf("missing key returned %v", got.RowIDs)
	}
}

func TestDuplicateKeys(t *testing.T) {
	bt := New("idx", "t", "a")
	for i := 0; i < 50; i++ {
		bt.Insert(7, rid(i))
	}
	p := bt.SearchEq(7)
	if len(p.RowIDs) != 50 {
		t.Fatalf("duplicates: got %d row ids", len(p.RowIDs))
	}
	if bt.Len() != 50 {
		t.Errorf("Len = %d", bt.Len())
	}
	if err := validate(bt); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestRandomAgainstReference inserts random keys and cross-checks every
// lookup against a map-based reference implementation.
func TestRandomAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bt := New("idx", "t", "a")
	ref := make(map[int64][]storage.RowID)
	const n = 5000
	for i := 0; i < n; i++ {
		k := int64(rng.Intn(500)) // plenty of duplicates
		bt.Insert(k, rid(i))
		ref[k] = append(ref[k], rid(i))
	}
	if err := validate(bt); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for k, want := range ref {
		got := bt.SearchEq(k).RowIDs
		if len(got) != len(want) {
			t.Fatalf("key %d: got %d ids, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("key %d id %d: got %v, want %v (insertion order must be preserved)", k, i, got[i], want[i])
			}
		}
	}
}

// Property: any insertion sequence leaves a valid tree whose length matches.
func TestQuickValidity(t *testing.T) {
	f := func(keys []int64) bool {
		bt := New("idx", "t", "a")
		for i, k := range keys {
			bt.Insert(k%1000, rid(i))
		}
		return validate(bt) == nil && bt.Len() == len(keys)
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMetadata(t *testing.T) {
	bt := New("idx_name", "tbl", "col")
	if bt.Name() != "idx_name" || bt.Table() != "tbl" || bt.Column() != "col" {
		t.Errorf("metadata: %q %q %q", bt.Name(), bt.Table(), bt.Column())
	}
}

func TestProbeCostGrowsWithHeight(t *testing.T) {
	bt := New("idx", "t", "a")
	prev := bt.Height()
	for i := 0; i < 100000; i++ {
		bt.Insert(int64(i), rid(i))
	}
	if bt.Height() <= prev {
		t.Fatalf("height did not grow: %d", bt.Height())
	}
	if bt.Height() < 3 {
		t.Errorf("100k keys at fanout %d should be at least 3 levels, got %d", Fanout, bt.Height())
	}
	p := bt.SearchEq(99999)
	if p.NodesTouched != bt.Height() {
		t.Errorf("probe cost %d != height %d", p.NodesTouched, bt.Height())
	}
}
