// Package index implements a B+-tree over int64 keys, the access method used
// by the paper's correlated sub-query plans (an index scan on
// lineitem.partkey). Duplicate keys are supported. Node accesses are counted
// so the executor can charge work units per index page touched.
package index

import (
	"sort"

	"mqpi/internal/engine/storage"
)

// Fanout is the maximum number of keys per node. Small enough to give the
// tree realistic height on scaled-down data, large enough to stay shallow.
const Fanout = 64

type node struct {
	leaf bool
	keys []int64
	// Internal nodes: children[i] covers keys < keys[i]; len(children) == len(keys)+1.
	children []*node
	// Leaves: vals[i] are the row ids for keys[i].
	vals [][]storage.RowID
}

// BTree is a B+-tree index on a single int64 column.
//
// Concurrency: SearchEq is a pure traversal — no node is mutated, no
// iterator state lives on the tree — so any number of goroutines may probe
// concurrently (the parallel execute phase does). Insert restructures
// nodes in place and must be exclusive: no probe or other Insert may run
// concurrently with it. DML is serialized against query execution by the
// layers above.
type BTree struct {
	name   string
	table  string
	column string
	root   *node
	height int
	nkeys  int // number of (key,rowid) entries
}

// New creates an empty B+-tree for table.column.
func New(name, table, column string) *BTree {
	return &BTree{name: name, table: table, column: column, root: &node{leaf: true}, height: 1}
}

// Name returns the index name.
func (t *BTree) Name() string { return t.name }

// Table returns the indexed table's name.
func (t *BTree) Table() string { return t.table }

// Column returns the indexed column's name.
func (t *BTree) Column() string { return t.column }

// Height returns the current tree height (leaf-only tree has height 1).
func (t *BTree) Height() int { return t.height }

// Len returns the number of entries in the index.
func (t *BTree) Len() int { return t.nkeys }

// Insert adds an entry. Duplicate keys accumulate row ids.
func (t *BTree) Insert(key int64, rid storage.RowID) {
	midKey, right := t.insert(t.root, key, rid)
	if right != nil {
		newRoot := &node{
			keys:     []int64{midKey},
			children: []*node{t.root, right},
		}
		t.root = newRoot
		t.height++
	}
	t.nkeys++
}

// insert descends into n; on split it returns the separator key and the new
// right sibling, otherwise (0, nil).
func (t *BTree) insert(n *node, key int64, rid storage.RowID) (int64, *node) {
	if n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
		if i < len(n.keys) && n.keys[i] == key {
			n.vals[i] = append(n.vals[i], rid)
			return 0, nil
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = []storage.RowID{rid}
		if len(n.keys) <= Fanout {
			return 0, nil
		}
		return t.splitLeaf(n)
	}
	i := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
	midKey, right := t.insert(n.children[i], key, rid)
	if right == nil {
		return 0, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = midKey
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if len(n.keys) <= Fanout {
		return 0, nil
	}
	return t.splitInternal(n)
}

func (t *BTree) splitLeaf(n *node) (int64, *node) {
	mid := len(n.keys) / 2
	right := &node{
		leaf: true,
		keys: append([]int64(nil), n.keys[mid:]...),
		vals: append([][]storage.RowID(nil), n.vals[mid:]...),
	}
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	return right.keys[0], right
}

func (t *BTree) splitInternal(n *node) (int64, *node) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &node{
		keys:     append([]int64(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return sep, right
}

// Probe describes the pages touched by a lookup so the executor can charge
// work: NodesTouched counts index pages read.
type Probe struct {
	RowIDs       []storage.RowID
	NodesTouched int
}

// SearchEq returns the row ids for an exact key match.
func (t *BTree) SearchEq(key int64) Probe {
	n := t.root
	touched := 1
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
		n = n.children[i]
		touched++
	}
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	var rids []storage.RowID
	if i < len(n.keys) && n.keys[i] == key {
		rids = n.vals[i]
	}
	return Probe{RowIDs: rids, NodesTouched: touched}
}
