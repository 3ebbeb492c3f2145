package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mqpi/internal/workload"
)

// Every input of a run is drawn here, up front, on one goroutine, from rngs
// seeded by --seed alone. The drivers only walk the schedule; they never
// draw randomness, so a seed names one byte-identical run plan.

// queryOp is one query to submit: a template over part_Table, or (K > 0) a
// lineitem scan with threshold K. At is its arrival offset in seconds — wall
// seconds after the phase starts on the live workloads, virtual seconds on
// the manual-clock ones.
type queryOp struct {
	At      float64
	Table   int
	Variant workload.QueryTemplate
	K       int
}

func (q queryOp) SQL() string {
	if q.K > 0 {
		return fmt.Sprintf("select count(*), sum(extendedprice) from lineitem where quantity > %d", q.K)
	}
	return workload.QuerySQLVariant(q.Table, q.Variant)
}

type writeKind uint8

const (
	writeSubmit writeKind = iota
	writePriority
	writeAbort
)

// writeOp is one mutation of poll_fanout's second driver. Target picks the
// in-system query a priority change applies to (an index into the preloaded
// ids); an abort always takes the oldest query the driver itself submitted.
type writeOp struct {
	At     float64
	Kind   writeKind
	Q      queryOp
	Target int
	Prio   int
}

// schedule is the whole run plan of one workload.
type schedule struct {
	Workload string
	Seed     int64
	History  []queryOp // submitted then aborted at low depth (poll_fanout)
	Preload  []queryOp // in the system before measuring starts (live workloads)
	Open     []queryOp // arrivals: backlog_submit phase 1, and the replays
	Closed   []queryOp // backlog_submit phase 2, back to back
	// SidePolls holds, per submit of backlog_submit, the preloaded queries
	// polled after the read-your-write poll (indexes into the preloaded ids).
	SidePolls [][sidePolls]int
	// Polls is poll_fanout's first driver: v >= 0 indexes the in-system ids,
	// v < 0 indexes the terminated ids as -v-1.
	Polls  []int32
	Writes []writeOp
}

// Fixed constants of the traffic mix, the same at every size.
const (
	zipfA          = 1.2  // table choice skew over part_1..3
	sidePolls      = 3    // polls of older queries after each backlog submit
	openSubmitRate = 20.0 // backlog_submit phase 1, submits per wall second
	fanoutWriteHz  = 16.0 // poll_fanout driver 2, mutations per wall second
	termPollShare  = 0.10 // poll_fanout polls aimed at terminated queries
	overviewEvery  = 5000 // poll_fanout: every n-th op is GET /queries
	replayArrivals = 0.02 // exec_replay arrivals per virtual second (about 0.9 of capacity)
	scanArrivals   = 1.0  // scan_share arrivals per virtual second (about 0.95 of capacity)
	replayPollGap  = 5.0  // exec_replay: virtual seconds between poll rounds
	scanPollGap    = 1.0  // scan_share: the same; a scan lasts a few virtual seconds
)

// rngFor gives each part of a schedule its own stream, so changing one
// count (a smoke run, another --seconds) does not shift the other parts.
func rngFor(seed int64, part int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000 + part))
}

// templates returns n index-probe queries in the mix the paper's workload
// has: tables by Zipf(zipfA) over part_1..3, the three templates equally. The
// amounts are fixed and only the order is drawn, so every
// seed offers the same total work and the seeds differ in what meets what.
func templates(rng *rand.Rand, n int) []queryOp {
	norm := 0.0
	for k := 1; k <= 3; k++ {
		norm += math.Pow(float64(k), -zipfA)
	}
	ops := make([]queryOp, 0, n)
	cum := 0.0
	for k := 1; k <= 3; k++ {
		for v := 0; v < 3; v++ {
			// Each cell fills the list up to its cumulative share, so no
			// amount is off by more than one and the total is n.
			cum += math.Pow(float64(k), -zipfA) / norm / 3
			for len(ops) < int(math.Round(cum*float64(n))) {
				ops = append(ops, queryOp{Table: k, Variant: workload.QueryTemplate(v)})
			}
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// arrivalWindow is how many arrivals share one window of the stream.
const arrivalWindow = 5

// poisson stamps ops with the arrival offsets of a Poisson stream of the
// given rate, conditioned on exactly arrivalWindow arrivals in every window
// of arrivalWindow mean gaps: sorted uniform draws within each window. The
// gaps are as irregular as a Poisson stream's at the scale where requests
// meet, but no seed gets a long lull or a long burst, so the load lasts the
// same and queues about as much at every seed.
func poisson(rng *rand.Rand, rate float64, ops []queryOp) {
	for lo := 0; lo < len(ops); lo += arrivalWindow {
		hi := min(lo+arrivalWindow, len(ops))
		at := make([]float64, hi-lo)
		for i := range at {
			at[i] = (float64(lo) + rng.Float64()*float64(hi-lo)) / rate
		}
		sort.Float64s(at)
		for i, t := range at {
			ops[lo+i].At = t
		}
	}
}

func buildSchedule(name string, seed int64, sz sizes) schedule {
	s := schedule{Workload: name, Seed: seed}
	switch name {
	case "backlog_submit":
		s.Preload = templates(rngFor(seed, 1), sz.Depth)
		s.Open = templates(rngFor(seed, 2), sz.OpenSubmits)
		poisson(rngFor(seed, 3), openSubmitRate, s.Open)
		s.Closed = templates(rngFor(seed, 4), sz.ClosedSubmits)
		rng := rngFor(seed, 5)
		s.SidePolls = make([][sidePolls]int, sz.OpenSubmits+sz.ClosedSubmits)
		for i := range s.SidePolls {
			for j := range s.SidePolls[i] {
				s.SidePolls[i][j] = rng.Intn(sz.Depth)
			}
		}
	case "poll_fanout":
		s.History = templates(rngFor(seed, 1), sz.History)
		s.Preload = templates(rngFor(seed, 2), sz.Depth)
		rng := rngFor(seed, 3)
		s.Polls = make([]int32, sz.Polls)
		for i := range s.Polls {
			if rng.Float64() < termPollShare {
				s.Polls[i] = int32(-rng.Intn(sz.History) - 1)
			} else {
				s.Polls[i] = int32(rng.Intn(sz.Depth))
			}
		}
		// Submit, priority, submit, abort: depth grows by a quarter of the
		// write rate, and every epoch bump the reads see has a cause.
		qs := templates(rngFor(seed, 4), sz.Writes)
		poisson(rngFor(seed, 5), fanoutWriteHz, qs)
		rng = rngFor(seed, 6)
		s.Writes = make([]writeOp, sz.Writes)
		for i := range s.Writes {
			w := writeOp{At: qs[i].At, Q: qs[i]}
			switch i % 4 {
			case 1:
				// The back half of the queue: a query that will not be
				// admitted, let alone finish, while the run lasts, so the
				// change is never refused.
				w.Kind, w.Target, w.Prio = writePriority, sz.Depth/2+rng.Intn(sz.Depth/2), 1+rng.Intn(3)
			case 3:
				w.Kind = writeAbort
			}
			s.Writes[i] = w
		}
	case "exec_replay":
		s.Open = templates(rngFor(seed, 1), sz.ReplayQueries)
		poisson(rngFor(seed, 2), replayArrivals, s.Open)
	case "scan_share":
		s.Open = make([]queryOp, sz.ScanQueries)
		for i := range s.Open {
			s.Open[i].K = 1 + i%49 // quantity is 1..50: every threshold keeps some rows
		}
		rngFor(seed, 1).Shuffle(len(s.Open), func(i, j int) { s.Open[i], s.Open[j] = s.Open[j], s.Open[i] })
		poisson(rngFor(seed, 2), scanArrivals, s.Open)
	default:
		panic("benchmark: unknown workload " + name)
	}
	return s
}

// fingerprint is the schedule's canonical bytes: two schedules are the same
// plan exactly when these match.
func (s schedule) fingerprint() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return b
}
