package cluster

import (
	"math"
	"sync"
)

// tokenBucket is the front door's admission throttle, denominated in
// admissions per virtual second so manual-clock clusters (tests, the sim)
// stay deterministic: the bucket refills through the same Advance calls that
// move the shards' clocks. In queue mode the bucket lends tokens from the
// future — the balance goes negative and the borrower carries the
// corresponding wait as a scheduled-arrival delay.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per virtual second
	burst  float64 // capacity; also the initial balance
	tokens float64 // current balance; negative = borrowed ahead
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	return &tokenBucket{rate: rate, burst: burst, tokens: burst}
}

// advance refills the bucket for vsec virtual seconds, capped at burst.
func (b *tokenBucket) advance(vsec float64) {
	if vsec <= 0 {
		return
	}
	b.mu.Lock()
	b.tokens += b.rate * vsec
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// reserve takes one token. With a token in hand the admission is immediate
// (delay 0). On an empty bucket: queue mode borrows the token and returns
// the virtual-time wait until the refill covers the debt; reject mode (and
// any zero-rate bucket, whose debt could never be repaid) returns ok=false.
func (b *tokenBucket) reserve(queue bool) (delay float64, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	if !queue || b.rate <= 0 {
		return 0, false
	}
	deficit := 1 - b.tokens
	b.tokens--
	return deficit / b.rate, true
}

// refund returns the token of an admission the shard then refused, or cancels
// the debt a queue-mode borrow took on; the balance stays capped at burst.
func (b *tokenBucket) refund() {
	b.mu.Lock()
	b.tokens = math.Min(b.tokens+1, b.burst)
	b.mu.Unlock()
}
