package index

import (
	"math/rand"
	"testing"
)

func buildTree(n int, dup int) *BTree {
	bt := New("b", "t", "c")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		bt.Insert(int64(rng.Intn(n/dup+1)), rid(i))
	}
	return bt
}

func BenchmarkInsertSequential(b *testing.B) {
	bt := New("b", "t", "c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bt.Insert(int64(i), rid(i))
	}
}

func BenchmarkInsertRandom(b *testing.B) {
	bt := New("b", "t", "c")
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Insert(rng.Int63n(1<<30), rid(i))
	}
}

func BenchmarkSearchEq(b *testing.B) {
	bt := buildTree(100000, 30) // ~30 matches per key, the paper's shape
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.SearchEq(rng.Int63n(100000/30 + 1))
	}
}
