package experiments

import (
	"math"
	"math/rand"
	"testing"

	"mqpi/internal/core"
)

// steppedWorkDoneBy replays equal-weight fair sharing event by event: equal
// shares of C, stepped finish to finish, each query's work capped at what it
// has left. It is the oracle workDoneBy is held against.
func steppedWorkDoneBy(kept []maintSnapshot, C, t float64) map[int]float64 {
	type qs struct {
		id  int
		rem float64
	}
	active := make([]qs, 0, len(kept))
	done := make(map[int]float64, len(kept))
	for _, s := range kept {
		active = append(active, qs{id: s.id, rem: s.trueRem})
		done[s.id] = 0
	}
	for now := 0.0; now < t && len(active) > 0; {
		minRem := active[0].rem
		for _, q := range active {
			if q.rem < minRem {
				minRem = q.rem
			}
		}
		share := C / float64(len(active))
		dt := minRem / share
		if now+dt > t {
			dt = t - now
		}
		kept2 := active[:0]
		for _, q := range active {
			amount := share * dt
			if amount > q.rem {
				amount = q.rem
			}
			done[q.id] += amount
			q.rem -= amount
			if q.rem > 1e-9 {
				kept2 = append(kept2, q)
			}
		}
		active = kept2
		now += dt
	}
	return done
}

// TestWorkDoneByMatchesSteppedReplay holds the profile-derived work-done-by-t
// against the event-stepped replay on random equal-weight mixes (some with
// tied or zero costs) and deadlines before, between and after the finishes:
// every query's work within 1e-9·max(1, |replay|).
func TestWorkDoneByMatchesSteppedReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 2000; trial++ {
		kept := make([]maintSnapshot, 1+rng.Intn(12))
		states := make([]core.QueryState, len(kept))
		total := 0.0
		for i := range kept {
			rem := 1 + 5000*rng.Float64()
			switch rng.Intn(10) {
			case 0:
				rem = 0
			case 1:
				if i > 0 {
					rem = kept[i-1].trueRem
				}
			}
			kept[i] = maintSnapshot{id: 100 + i, trueRem: rem}
			states[i] = core.QueryState{ID: kept[i].id, Remaining: rem, Weight: 1}
			total += rem
		}
		C := 10 + 990*rng.Float64()
		deadline := 1.2 * total / C * rng.Float64()
		got := workDoneBy(core.ComputeProfile(states, C), C, deadline)
		want := steppedWorkDoneBy(kept, C, deadline)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d queries, replay %d", trial, len(got), len(want))
		}
		for id, w := range want {
			if g, ok := got[id]; !ok || math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
				t.Fatalf("trial %d (C=%g t=%g): q%d did %v by t, replay %v", trial, C, deadline, id, g, w)
			}
		}
	}
}
