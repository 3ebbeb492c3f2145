// Command mqpi-bench regenerates the paper's tables and figures as text.
//
//	mqpi-bench -exp all                 # every experiment, in battery order
//	mqpi-bench -exp mcq -seed 7         # one experiment
//	mqpi-bench -exp scq,maint -runs 100 # a comma list, at full paper scale
//	mqpi-bench -exp scq -parallel 8     # fan runs across 8 workers
//	mqpi-bench -exp all -json > figs.jsonl
//	mqpi-bench -sim -seed 17            # replay one simulator cell with its trace
//
// The experiments are the entries of experiments.All(); -h lists their names.
//
// -parallel fans the independent runs of the sweep experiments across worker
// goroutines (0 = GOMAXPROCS); figures are bit-identical at every setting.
// -workers sets the scheduler's execute-phase worker pool inside each run
// (runners step concurrently behind the serial credit plane); figures are
// likewise bit-identical at every setting.
// -json writes each figure as one JSON object per line on stdout (headlines
// and timings move to stderr), ready for machine consumption.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mqpi/internal/experiments"
	"mqpi/internal/metrics"
	"mqpi/internal/workload"
)

// allExps is the selector that runs the whole battery.
const allExps = "all"

// expNames is every valid -exp value: the registry's names in battery order,
// then the "all" selector.
func expNames() []string {
	var names []string
	for _, e := range experiments.All() {
		names = append(names, e.Name)
	}
	return append(names, allExps)
}

// unknownExps returns the entries of a comma-split -exp value that name no
// experiment. A single bad name in a list like "mcq,bogus" must fail the
// whole invocation: silently running the valid prefix would report success
// for a sweep that never happened.
func unknownExps(which []string) []string {
	valid := make(map[string]bool)
	for _, name := range expNames() {
		valid[name] = true
	}
	var bad []string
	for _, w := range which {
		if !valid[w] {
			bad = append(bad, w)
		}
	}
	return bad
}

// selected returns the registry entries a comma-split -exp value asks for, in
// battery order.
func selected(which []string) []experiments.Experiment {
	var out []experiments.Experiment
	for _, e := range experiments.All() {
		for _, w := range which {
			if w == e.Name || w == allExps {
				out = append(out, e)
				break
			}
		}
	}
	return out
}

func main() {
	var (
		exp      = flag.String("exp", allExps, "experiment: "+strings.Join(expNames(), "|"))
		seed     = flag.Int64("seed", 1, "random seed")
		runs     = flag.Int("runs", 0, "runs per data point (0 = experiment default)")
		rows     = flag.Int("lineitem", 0, "lineitem row count (0 = experiment default)")
		parallel = flag.Int("parallel", 0, "worker goroutines for independent runs (0 = GOMAXPROCS, 1 = sequential)")
		workers  = flag.Int("workers", 0, "execute-phase worker goroutines per scheduler tick (0/1 = inline serial; results identical at every setting)")
		jsonOut  = flag.Bool("json", false, "emit figures as JSON lines on stdout (headlines go to stderr)")
		verbose  = flag.Bool("v", false, "print timing for each experiment")
		csvDir   = flag.String("csv", "", "also write each figure as CSV into this directory")
		simMode  = flag.Bool("sim", false, "replay one randomized-workload simulation cell (uses -seed, -workers, -steps) and print its event trace")
		simSteps = flag.Int("steps", 0, "actions per simulation run in -sim mode (0 = default)")
	)
	flag.Parse()

	if *simMode {
		os.Exit(runSim(*seed, *workers, *simSteps))
	}

	which := strings.Split(*exp, ",")
	if bad := unknownExps(which); len(bad) > 0 {
		for _, w := range bad {
			fmt.Fprintf(os.Stderr, "mqpi-bench: unknown experiment %q\n", w)
		}
		fmt.Fprintf(os.Stderr, "mqpi-bench: valid experiments: %s\n", strings.Join(expNames(), ", "))
		os.Exit(2)
	}
	cfg := experiments.Common{
		Seed: *seed, Runs: *runs, Parallel: *parallel, Workers: *workers,
		Data: workload.DataConfig{LineitemRows: *rows, Seed: *seed},
	}
	// In JSON mode stdout carries only machine-readable lines; human-facing
	// headlines and diagrams move to stderr.
	b := battery{out: os.Stdout, txt: os.Stdout, json: *jsonOut, csvDir: *csvDir, verbose: *verbose}
	if *jsonOut {
		b.txt = os.Stderr
	}
	if err := b.run(selected(which), cfg); err != nil {
		fmt.Fprintf(os.Stderr, "mqpi-bench: %v\n", err)
		os.Exit(1)
	}
}

// battery renders experiment reports: headline text to txt, figures to out —
// as text tables, or with json set as one JSON line per figure followed by a
// timing record per experiment — and, when csvDir is set, a CSV copy of each
// figure there.
type battery struct {
	out, txt io.Writer
	json     bool
	csvDir   string
	verbose  bool // timing for each experiment on stderr
}

// run runs the experiments in order and renders each one's report.
func (b battery) run(exps []experiments.Experiment, cfg experiments.Common) error {
	for _, e := range exps {
		start := time.Now()
		rep, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		for _, p := range rep.Parts {
			if p.Fig == nil {
				fmt.Fprint(b.txt, p.Text)
			} else if err := b.figure(p.Name, p.Fig); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
		}
		elapsed := time.Since(start)
		if b.json {
			fmt.Fprintf(b.out, "{\"name\":%q,\"seconds\":%.3f,\"parallel\":%d}\n", e.Name, elapsed.Seconds(), cfg.Parallel)
		}
		if b.verbose {
			fmt.Fprintf(os.Stderr, "[%s took %v]\n", e.Name, elapsed.Round(time.Millisecond))
		}
		fmt.Fprintln(b.txt)
	}
	return nil
}

// figure renders one figure to the chosen sink (text table, or one JSON line
// named after its CSV file) and writes the CSV copy if requested.
func (b battery) figure(name string, fig *metrics.Figure) error {
	if b.csvDir != "" {
		if err := os.MkdirAll(b.csvDir, 0o755); err != nil {
			return fmt.Errorf("csv dir: %w", err)
		}
		path := filepath.Join(b.csvDir, name+".csv")
		if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if !b.json {
		_, err := fmt.Fprint(b.out, fig.Render())
		return err
	}
	j, err := fig.JSON()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(b.out, "{\"name\":%q,\"figure\":%s}\n", name, j)
	return err
}
