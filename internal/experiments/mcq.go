package experiments

import (
	"fmt"

	"mqpi/internal/metrics"
	"mqpi/internal/sched"
	"mqpi/internal/workload"
)

// MCQConfig configures the Multiple Concurrent Query experiment (§5.2.1,
// Figures 3 and 4): ten queries with Zipf(a=1.2) sizes, each starting at a
// random point of its execution, no further arrivals. Defaults: 10 queries,
// MaxN 150, C = 200 U/s, quantum 0.5 s, a sample every 5 s.
type MCQConfig struct {
	Common
	// Templates are assigned round-robin to the queries (default: the
	// paper's published Q_i only). Mixing templates reproduces the paper's
	// "we repeated our experiments with other kinds of queries" check.
	Templates []workload.QueryTemplate
}

func (c MCQConfig) withDefaults() MCQConfig {
	c.Common = c.Common.withDefaults(Common{NumQueries: 10, ZipfA: 1.2, MaxN: 150, RateC: 200, Quantum: 0.5, SampleEvery: 5})
	return c
}

// mcqSeed is the MCQ scenario's cell: the base dataset and the historical
// rng stream.
var mcqSeed = cellSeed{mask: 0x5DEECE66D, base: true}

// mcqScenario submits the MCQ batch and picks the focus: the query with the
// largest remaining cost at time 0 (the paper's "typical large query Q").
func mcqScenario(cl *cell, templates []workload.QueryTemplate) (*sched.Server, *sched.Query, error) {
	batch, err := cl.zipfBatch(cl.NumQueries, cl.MaxN, 0.9)
	if err != nil {
		return nil, nil, err
	}
	if len(templates) > 0 {
		for i := range batch {
			batch[i].tmpl = templates[i%len(templates)]
		}
	}
	srv := cl.server(sched.Config{})
	queries, err := cl.submit(srv, batch)
	if err != nil {
		return nil, nil, err
	}
	focus := queries[0]
	for _, q := range queries {
		if q.Runner.EstRemaining() > focus.Runner.EstRemaining() {
			focus = q
		}
	}
	return srv, focus, nil
}

// trackFocus runs the server until focus ends, calling sample at time 0 and
// every `every` virtual seconds while it is still in the system.
func trackFocus(srv *sched.Server, focus *sched.Query, every float64, sample func()) error {
	ended := func() bool {
		return focus.Status == sched.StatusFinished || focus.Status == sched.StatusFailed
	}
	runSampled(srv, every, func() {
		if !ended() {
			sample()
		}
	}, ended)
	if focus.Status == sched.StatusFailed {
		return fmt.Errorf("experiments: focus query failed: %w", focus.Err)
	}
	return nil
}

// MCQResult holds the reproduced Figures 3 and 4 plus headline numbers.
type MCQResult struct {
	FocusLabel string
	FocusID    int
	// Fig3: remaining execution time for the focus query over time —
	// actual, single-query estimate, multi-query estimate.
	Fig3 metrics.Figure
	// Fig4: the focus query's observed execution speed over time.
	Fig4 metrics.Figure
	// FinishTime is the focus query's actual finish time (s).
	FinishTime float64
	// SpeedRatio is final/initial observed speed (the paper sees ~5×).
	SpeedRatio float64
	// ErrStartSingle and ErrStartMulti are the relative errors of the two
	// estimators at time 0 (the paper's single-query PI is ~3× off).
	ErrStartSingle float64
	ErrStartMulti  float64
}

// RunMCQ executes the MCQ experiment once.
func RunMCQ(cfg MCQConfig) (*MCQResult, error) {
	cfg = cfg.withDefaults()
	return withCell(cfg.Common, mcqSeed, func(cl *cell) (*MCQResult, error) {
		srv, focus, err := mcqScenario(cl, cfg.Templates)
		if err != nil {
			return nil, err
		}
		res := &MCQResult{
			FocusLabel: focus.Label,
			FocusID:    focus.ID,
			Fig3: metrics.Figure{
				Title:  "Figure 3: remaining query execution time estimated over time for Q (MCQ)",
				XLabel: "time (s)",
				YLabel: "estimated remaining query execution time (s)",
			},
			Fig4: metrics.Figure{
				Title:  "Figure 4: query execution speed monitored over time for Q (MCQ)",
				XLabel: "time (s)",
				YLabel: "query execution speed (U/s)",
			},
		}
		actual := res.Fig3.AddSeries("actual")
		single := res.Fig3.AddSeries("single-query estimate")
		multi := res.Fig3.AddSeries("multi-query estimate")
		speed := res.Fig4.AddSeries("speed")

		type sampleRec struct{ t, single, multi, speed float64 }
		var samples []sampleRec
		err = trackFocus(srv, focus, cfg.SampleEvery, func() {
			sp := focus.ObservedSpeed()
			if sp <= 0 {
				sp = fairShare(srv, focus)
			}
			samples = append(samples, sampleRec{
				t:      srv.Now(),
				single: singleEstimate(srv, focus),
				multi:  multiEstimates(srv)[focus.ID],
				speed:  sp,
			})
		})
		if err != nil {
			return nil, err
		}
		res.FinishTime = focus.FinishTime

		for _, s := range samples {
			actual.Add(s.t, res.FinishTime-s.t)
			single.Add(s.t, s.single)
			multi.Add(s.t, s.multi)
			speed.Add(s.t, s.speed)
		}
		if len(samples) > 0 {
			first, last := samples[0], samples[len(samples)-1]
			if first.speed > 0 {
				res.SpeedRatio = last.speed / first.speed
			}
			res.ErrStartSingle = metrics.RelErr(first.single, res.FinishTime-first.t)
			res.ErrStartMulti = metrics.RelErr(first.multi, res.FinishTime-first.t)
		}
		return res, nil
	})
}

func (r *MCQResult) report() *Report {
	return new(Report).
		text("MCQ focus query: %s (finishes at %.0fs; speed grows %.1fx)\n", r.FocusLabel, r.FinishTime, r.SpeedRatio).
		text("relative error at time 0: single-query %.0f%%, multi-query %.0f%%\n\n", r.ErrStartSingle*100, r.ErrStartMulti*100).
		figure("figure3", &r.Fig3).text("\n").figure("figure4", &r.Fig4)
}
