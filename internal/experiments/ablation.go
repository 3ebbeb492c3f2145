package experiments

import (
	"fmt"

	"mqpi/internal/core"
	"mqpi/internal/metrics"
	"mqpi/internal/sched"
)

// AblationResult reports how the multi-query PI's accuracy depends on the
// quality of its remaining-cost inputs (DESIGN.md's "refined remaining cost"
// ablation, relaxing Assumption 2).
type AblationResult struct {
	// MeanMultiErr is the focus query's multi-query estimate error averaged
	// over all samples of its lifetime.
	MeanMultiErr float64
	// ErrT0 is the error of the first sample.
	ErrT0 float64
	// OptimizerOnly records which estimator variant produced the numbers.
	OptimizerOnly bool
}

// RunMCQAblation runs the MCQ scenario feeding the multi-query PI either
// refined remaining costs (the default machinery) or raw optimizer-remaining
// costs (plan estimate minus work done), and measures the estimate error
// over the focus query's lifetime.
func RunMCQAblation(cfg MCQConfig, optimizerOnly bool) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	return withCell(cfg.Common, mcqSeed, func(cl *cell) (*AblationResult, error) {
		srv, focus, err := mcqScenario(cl, nil)
		if err != nil {
			return nil, err
		}
		states := func() []core.QueryState {
			out := make([]core.QueryState, 0, len(srv.Running()))
			for _, q := range srv.Running() {
				rem := q.Runner.EstRemaining()
				if optimizerOnly {
					rem = q.Runner.EstRemainingOptimizer()
				}
				w := 0.0
				if q.Status == sched.StatusRunning {
					w = srv.WeightOf(q.Priority)
				}
				out = append(out, core.QueryState{ID: q.ID, Remaining: rem, Weight: w, Done: q.Runner.WorkDone()})
			}
			return out
		}

		type sampleRec struct{ t, est float64 }
		var samples []sampleRec
		err = trackFocus(srv, focus, cfg.SampleEvery, func() {
			samples = append(samples, sampleRec{
				t:   srv.Now(),
				est: stageEstimates(states(), cfg.RateC)[focus.ID],
			})
		})
		if err != nil {
			return nil, err
		}
		if len(samples) == 0 {
			return nil, fmt.Errorf("experiments: no samples collected")
		}
		var errs []float64
		for _, s := range samples {
			errs = append(errs, metrics.RelErr(s.est, focus.FinishTime-s.t))
		}
		return &AblationResult{
			MeanMultiErr:  metrics.Mean(errs),
			ErrT0:         errs[0],
			OptimizerOnly: optimizerOnly,
		}, nil
	})
}
