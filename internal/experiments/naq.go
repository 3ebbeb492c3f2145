package experiments

import (
	"fmt"

	"mqpi/internal/core"
	"mqpi/internal/metrics"
	"mqpi/internal/sched"
	"mqpi/internal/workload"
)

// NAQConfig configures the Non-empty Admission Queue experiment (§5.2.2,
// Figure 5): three queries with N1=50, N2=10, N3=20 under an MPL of 2.
// Q1 and Q2 start; Q3 waits in the admission queue until Q2 finishes.
type NAQConfig struct {
	Seed        int64
	N1, N2, N3  int     // defaults 50, 10, 20
	MPL         int     // default 2
	RateC       float64 // default 70 U/s
	Quantum     float64 // default 0.5 s
	// Workers sets the scheduler's execute-phase worker count
	// (0/1 = inline serial). Results are bit-identical at every setting.
	Workers int
	SampleEvery float64 // default 5 s
	Data        workload.DataConfig
}

func (c NAQConfig) withDefaults() NAQConfig {
	if c.N1 <= 0 {
		c.N1 = 50
	}
	if c.N2 <= 0 {
		c.N2 = 10
	}
	if c.N3 <= 0 {
		c.N3 = 20
	}
	if c.MPL <= 0 {
		c.MPL = 2
	}
	if c.RateC <= 0 {
		c.RateC = 70
	}
	if c.Quantum <= 0 {
		c.Quantum = 0.5
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 5
	}
	if c.Data.Seed == 0 {
		c.Data.Seed = c.Seed
	}
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
	ds, err := workload.BuildDataset(cfg.Data)
	if err != nil {
		return nil, err
	}
	srv := sched.New(sched.Config{RateC: cfg.RateC, MPL: cfg.MPL, Quantum: cfg.Quantum, Workers: cfg.Workers})
	defer srv.Close()

	sizes := []int{cfg.N1, cfg.N2, cfg.N3}
	queries := make([]*sched.Query, 3)
	for i, n := range sizes {
		q, err := buildPartQuery(ds, srv, i+1, n, 0)
		if err != nil {
			return nil, err
		}
		queries[i] = q
	}
	// Submission order matters: Q1 and Q2 take the two MPL slots, Q3 queues.
	for _, q := range queries {
		srv.Submit(q)
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
	runSampled(srv, cfg.SampleEvery, func() {
		if q1.Status == sched.StatusFinished || q1.Status == sched.StatusFailed {
			return
		}
		running := srv.StateRunning()
		queued := srv.StateQueued()
		samples = append(samples, sampleRec{
			t:         srv.Now(),
			single:    singleEstimate(srv, q1),
			noQueue:   stageEstimates(running, cfg.RateC)[q1.ID],
			withQueue: multiETAs(core.EstimateInput{Running: running, Queued: queued, MPL: cfg.MPL, RateC: cfg.RateC})[q1.ID],
		})
	}, func() bool {
		return q1.Status == sched.StatusFinished || q1.Status == sched.StatusFailed
	})
	for _, q := range queries {
		if q.Status == sched.StatusFailed {
			return nil, fmt.Errorf("experiments: query %s failed: %w", q.Label, q.Err)
		}
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
}
