package experiments

import (
	"mqpi/internal/core"
	"mqpi/internal/metrics"
	"mqpi/internal/sched"
)

// NAQConfig configures the Non-empty Admission Queue experiment (§5.2.2,
// Figure 5): three queries with N1=50, N2=10, N3=20 under an MPL of 2.
// Q1 and Q2 start; Q3 waits in the admission queue until Q2 finishes.
// Defaults: C = 70 U/s, quantum 0.5 s, a sample every 5 s.
type NAQConfig struct {
	Common
	N1, N2, N3 int // defaults 50, 10, 20
	MPL        int // default 2
}

func (c NAQConfig) withDefaults() NAQConfig {
	c.Common = c.Common.withDefaults(Common{RateC: 70, Quantum: 0.5, SampleEvery: 5})
	c.N1, c.N2, c.N3 = orDefault(c.N1, 50), orDefault(c.N2, 10), orDefault(c.N3, 20)
	c.MPL = orDefault(c.MPL, 2)
	return c
}

// NAQResult holds the reproduced Figure 5 plus the event markers the paper
// draws as vertical lines.
type NAQResult struct {
	// Fig5: Q1's remaining time over time under four views — actual,
	// single-query, multi-query ignoring the queue, multi-query considering
	// the queue.
	Fig5 metrics.Figure
	// Q2Finish is when Q2 finishes and Q3 is admitted (Q3's start marker).
	Q2Finish float64
	// Q3Finish is Q3's finish marker.
	Q3Finish float64
	// Q1Finish is the actual completion of the observed query.
	Q1Finish float64
	// ErrStartSingle, ErrStartNoQueue, ErrStartQueue are the three
	// estimators' relative errors at time 0.
	ErrStartSingle  float64
	ErrStartNoQueue float64
	ErrStartQueue   float64
}

// RunNAQ executes the NAQ experiment once.
func RunNAQ(cfg NAQConfig) (*NAQResult, error) {
	cfg = cfg.withDefaults()
	return withCell(cfg.Common, cellSeed{base: true}, func(cl *cell) (*NAQResult, error) {
		srv := cl.server(sched.Config{MPL: cfg.MPL})
		// Submission order matters: Q1 and Q2 take the two MPL slots, Q3 queues.
		queries, err := cl.submit(srv, []batchQuery{{n: cfg.N1}, {n: cfg.N2}, {n: cfg.N3}})
		if err != nil {
			return nil, err
		}
		q1, q2, q3 := queries[0], queries[1], queries[2]

		res := &NAQResult{
			Fig5: metrics.Figure{
				Title:  "Figure 5: remaining query execution time estimated over time for Q1 (NAQ)",
				XLabel: "time (s)",
				YLabel: "estimated remaining query execution time (s)",
			},
		}
		actual := res.Fig5.AddSeries("actual")
		single := res.Fig5.AddSeries("single-query estimate")
		noQueue := res.Fig5.AddSeries("multi-query (ignoring admission queue)")
		withQueue := res.Fig5.AddSeries("multi-query (considering admission queue)")

		type sampleRec struct{ t, single, noQueue, withQueue float64 }
		var samples []sampleRec
		err = trackFocus(srv, q1, cfg.SampleEvery, func() {
			running := srv.StateRunning()
			queued := srv.StateQueued()
			samples = append(samples, sampleRec{
				t:         srv.Now(),
				single:    singleEstimate(srv, q1),
				noQueue:   stageEstimates(running, cfg.RateC)[q1.ID],
				withQueue: multiETAs(core.EstimateInput{Running: running, Queued: queued, MPL: cfg.MPL, RateC: cfg.RateC})[q1.ID],
			})
		})
		if err == nil {
			err = firstFailed(queries)
		}
		if err != nil {
			return nil, err
		}
		res.Q1Finish = q1.FinishTime
		res.Q2Finish = q2.FinishTime
		res.Q3Finish = q3.FinishTime

		for _, s := range samples {
			actual.Add(s.t, res.Q1Finish-s.t)
			single.Add(s.t, s.single)
			noQueue.Add(s.t, s.noQueue)
			withQueue.Add(s.t, s.withQueue)
		}
		if len(samples) > 0 {
			first := samples[0]
			rem := res.Q1Finish - first.t
			res.ErrStartSingle = metrics.RelErr(first.single, rem)
			res.ErrStartNoQueue = metrics.RelErr(first.noQueue, rem)
			res.ErrStartQueue = metrics.RelErr(first.withQueue, rem)
		}
		return res, nil
	})
}

func (r *NAQResult) report() *Report {
	return new(Report).
		text("NAQ events: Q2 finishes / Q3 starts at %.0fs, Q3 finishes at %.0fs, Q1 finishes at %.0fs\n", r.Q2Finish, r.Q3Finish, r.Q1Finish).
		text("relative error at time 0: single %.0f%%, multi(no queue) %.0f%%, multi(queue) %.0f%%\n\n", r.ErrStartSingle*100, r.ErrStartNoQueue*100, r.ErrStartQueue*100).
		figure("figure5", &r.Fig5)
}
