package cluster

import (
	"math"
	"testing"
)

// TestBucketExactCapacityBurst: the initial balance is exactly the burst,
// and reserve draws down to exactly zero before rejecting.
func TestBucketExactCapacityBurst(t *testing.T) {
	b := newTokenBucket(5, 3)
	for i := 0; i < 3; i++ {
		if d, ok := b.reserve(false); !ok || d != 0 {
			t.Fatalf("take %d = (%g, %v), want (0, true)", i+1, d, ok)
		}
	}
	if bal := b.tokens; math.Abs(bal) > 1e-12 {
		t.Fatalf("post-burst balance = %g, want 0", bal)
	}
	if _, ok := b.reserve(false); ok {
		t.Fatal("burst+1 reserve succeeded in reject mode")
	}
	// Refill never exceeds the burst cap.
	b.advance(100)
	if bal := b.tokens; bal != 3 {
		t.Fatalf("balance after huge refill = %g, want capped at 3", bal)
	}
}

// TestBucketZeroRateRejects: a zero-rate bucket is a hard cap — once the
// burst is gone it rejects forever, even in queue mode (a borrowed token
// could never be repaid, so the implied wait would be infinite).
func TestBucketZeroRateRejects(t *testing.T) {
	b := newTokenBucket(0, 2)
	for i := 0; i < 2; i++ {
		if _, ok := b.reserve(true); !ok {
			t.Fatalf("take %d rejected within burst", i+1)
		}
	}
	for _, queue := range []bool{false, true} {
		if d, ok := b.reserve(queue); ok {
			t.Fatalf("zero-rate reserve(queue=%v) = (%g, true), want rejection", queue, d)
		}
	}
	b.advance(1e6) // refills nothing at rate 0
	if _, ok := b.reserve(true); ok {
		t.Fatal("zero-rate bucket refilled")
	}
}

// TestBucketBorrowAccumulates: consecutive queue-mode borrows owe
// monotonically growing waits — the debt compounds rather than resetting.
func TestBucketBorrowAccumulates(t *testing.T) {
	b := newTokenBucket(2, 1)
	if d, ok := b.reserve(true); !ok || d != 0 {
		t.Fatalf("first = (%g, %v)", d, ok)
	}
	d1, ok := b.reserve(true)
	if !ok || d1 <= 0 {
		t.Fatalf("second = (%g, %v), want positive borrow", d1, ok)
	}
	d2, ok := b.reserve(true)
	if !ok || d2 <= d1 {
		t.Fatalf("third wait %g not beyond second %g", d2, d1)
	}
	// Advancing by the owed time plus one token's worth clears the debt and
	// banks exactly one token.
	b.advance(d2 + 1/2.0)
	if d, ok := b.reserve(true); !ok || d != 0 {
		t.Fatalf("post-repayment reserve = (%g, %v), want immediate", d, ok)
	}
	if bal := b.tokens; math.Abs(bal) > 1e-12 {
		t.Fatalf("balance = %g, want 0 right after exact repayment", bal)
	}
	b.advance(-5) // negative elapsed time is ignored, not a drain
	if bal := b.tokens; bal < -1.0000001 {
		t.Fatalf("negative advance drained the bucket: %g", bal)
	}
}
