package experiments

import (
	"fmt"

	"mqpi/internal/core"
	"mqpi/internal/metrics"
)

// Report is what an experiment hands its caller to print: headline text and
// named figures, in print order.
type Report struct{ Parts []ReportPart }

// ReportPart is a named figure, or (Fig == nil) a piece of headline text.
type ReportPart struct {
	Text string
	Name string // the figure's CSV file / JSON record name
	Fig  *metrics.Figure
}

func (r *Report) text(format string, args ...any) *Report {
	r.Parts = append(r.Parts, ReportPart{Text: fmt.Sprintf(format, args...)})
	return r
}

func (r *Report) figure(name string, fig *metrics.Figure) *Report {
	r.Parts = append(r.Parts, ReportPart{Name: name, Fig: fig})
	return r
}

// Experiment is one entry of the battery: the name -exp selects it by, and
// the run from the shared configuration to a report. Fields of Common left
// zero take the experiment's own defaults.
type Experiment struct {
	Name string
	Run  func(Common) (*Report, error)
}

// entry adapts an experiment's typed run function to a registry entry.
func entry[R interface{ report() *Report }](name string, run func(Common) (R, error)) Experiment {
	return Experiment{Name: name, Run: func(c Common) (*Report, error) {
		res, err := run(c)
		if err != nil {
			return nil, err
		}
		return res.report(), nil
	}}
}

// All lists every experiment in battery order: the paper's Table 1 and
// Figures 1-11, then the extensions.
func All() []Experiment {
	return []Experiment{
		entry("dataset", func(c Common) (*DatasetResult, error) { return RunDataset(DatasetConfig{Common: c}) }),
		entry("mcq", func(c Common) (*MCQResult, error) { return RunMCQ(MCQConfig{Common: c}) }),
		entry("naq", func(c Common) (*NAQResult, error) { return RunNAQ(NAQConfig{Common: c}) }),
		entry("scq", func(c Common) (*SCQResult, error) { return RunSCQ(SCQConfig{Common: c}) }),
		entry("scq-lambda", func(c Common) (*SCQLambdaErrResult, error) { return RunSCQLambdaErr(SCQConfig{Common: c}) }),
		entry("scq-traj", func(c Common) (*SCQTrajectoryResult, error) { return RunSCQTrajectory(SCQConfig{Common: c}, nil) }),
		{Name: "stages", Run: func(Common) (*Report, error) { return stagesReport(), nil }},
		entry("speedup", RunSpeedup),
		entry("priority", func(c Common) (*PriorityResult, error) { return RunPriority(PriorityConfig{Common: c}) }),
		entry("mpl", func(c Common) (*MPLSweepResult, error) { return RunMPLSweep(MPLSweepConfig{Common: c}) }),
		entry("robust", func(c Common) (*RobustnessResult, error) { return RunRobustness(RobustnessConfig{Common: c}) }),
		entry("maint", func(c Common) (*MaintenanceResult, error) { return RunMaintenance(MaintenanceConfig{Common: c}) }),
		entry("cluster", func(c Common) (*ClusterSweepResult, error) { return RunClusterSweep(ClusterSweepConfig{Common: c}) }),
		entry("folding", func(c Common) (*FoldingResult, error) { return RunFoldingSweep(FoldingConfig{Common: c}) }),
		entry("calibration", func(c Common) (*CalibrationResult, error) { return RunCalibration(CalibrationConfig{Common: c}) }),
	}
}

// stagesReport renders Figures 1 and 2, the paper's analytic illustrations of
// the stage model, from the closed form.
func stagesReport() *Report {
	states := []core.QueryState{
		{ID: 1, Remaining: 100, Weight: 1},
		{ID: 2, Remaining: 200, Weight: 1},
		{ID: 3, Remaining: 300, Weight: 1},
		{ID: 4, Remaining: 400, Weight: 1},
	}
	blocked := append([]core.QueryState(nil), states...)
	blocked[2].Weight = 0
	return new(Report).
		text("== Figure 1: sample execution of n=4 queries ==\n%s", core.StageDiagram(states, 100, 50)).
		text("\n== Figure 2: same, with Q3 blocked at time 0 ==\n%s", core.StageDiagram(blocked, 100, 50))
}
