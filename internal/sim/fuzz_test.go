package sim

import "testing"

// FuzzSim mutates the simulator's action trace: each byte pair is one action
// (opcode selector, argument) applied to the live stack, and the invariant
// checker validates the global state after every action. Any crash or
// violation reproduces from the corpus entry alone.
//
//	go test ./internal/sim -fuzz FuzzSim -fuzztime 60s
func FuzzSim(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x04, 0x80, 0x04, 0xff})
	f.Add([]byte{0x00, 0x10, 0x00, 0x57, 0x09, 0x00, 0x04, 0xff, 0x0a, 0x00, 0x0b, 0x01, 0x04, 0x40})
	f.Add([]byte{0x03, 0x22, 0x04, 0xc0, 0x0d, 0x05, 0x0c, 0x31, 0x04, 0x20, 0x0e, 0x09, 0x0f, 0x00})
	// Priority-change churn: repeated SetPriority between short advances keeps
	// re-weighting the stage model while predictions are repeatedly voided and
	// re-taken (I6/I7) and held against the event-stepped oracle (I14).
	f.Add([]byte{0x00, 0x10, 0x00, 0x57, 0x00, 0x91, 0x0c, 0x11, 0x04, 0x30, 0x0c, 0x52, 0x04, 0x30,
		0x0c, 0x93, 0x0c, 0x20, 0x04, 0x60, 0x0c, 0x64, 0x04, 0xff})
	// Fold churn: same-table submissions fold and scan through a run of
	// advances (opcode 0x08 is one), with I11 conservation checked after
	// every action.
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x04, 0x80, 0x08, 0x00, 0x04, 0x40, 0x08, 0x01,
		0x00, 0x02, 0x04, 0xff})
	// Fold plus victim churn: block and abort members of a live group around
	// a DML write to the scanned table.
	f.Add([]byte{0x08, 0x01, 0x00, 0x00, 0x00, 0x01, 0x04, 0x60, 0x09, 0x00, 0x0d, 0x01,
		0x08, 0x00, 0x0b, 0x00, 0x08, 0x01, 0x00, 0x03, 0x04, 0xff})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			t.Skip("no actions")
		}
		// Cap the action count: the checker is O(queries) per action and the
		// fuzzer's value is in odd orderings, not long runs. The small table
		// keeps dataset construction out of the inner loop's budget.
		if len(script) > 192 {
			script = script[:192]
		}
		// Folding is on, so the fuzzer explores attach/detach orderings
		// interleaved with DML and victim operations — the riskiest corner of
		// the shared-cursor protocol.
		res, err := Run(Config{Seed: 11, Rows: 384, Fold: true, Script: script})
		if err != nil {
			t.Fatalf("harness error: %v", err)
		}
		for _, v := range res.Violations {
			t.Errorf("invariant violation: %s", v)
		}
	})
}
