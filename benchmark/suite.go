package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runner carries out one run. The command uses childRunner, a fresh process
// per run, so no run inherits another's heap or its dataset cache; the tests
// substitute runOne.
type runner func(options) (report, error)

func childRunner(o options) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	args := []string{"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace),
		"-workers", strconv.Itoa(o.workers), "-out", o.outDir}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	return parseReport(out)
}

// parseReport reads back what report.print wrote.
func parseReport(out []byte) (report, error) {
	var rep report
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Metric  *string `json:"metric"`
			Correct *bool   `json:"correct"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return rep, fmt.Errorf("child printed %q: %w", line, err)
		}
		switch {
		case probe.Metric != nil:
			var m metricLine
			json.Unmarshal(line, &m)
			rep.metrics = append(rep.metrics, m)
		case probe.Correct != nil:
			json.Unmarshal(line, &rep.result)
		default:
			json.Unmarshal(line, &rep.run)
		}
	}
	if rep.result.Metrics == nil {
		return rep, fmt.Errorf("child printed no result")
	}
	return rep, nil
}

// spreadLine is one end-to-end metric's spread between the sets of a -repeat.
type spreadLine struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Sets     []float64 `json:"sets"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound"`
	Within   bool      `json:"within"`
}

// suite is the one command: every workload untraced, -repeat times over;
// every workload once more traced; the manual-clock workloads once more with
// a single execute worker. It returns the exit code: non-zero when a check
// failed, an outcome did not repeat, or a metric's spread between the sets
// exceeds its bound.
func suite(o options, run runner, stdout, stderr io.Writer) int {
	enc := json.NewEncoder(stdout)
	bad := 0
	fail := func(format string, args ...any) {
		bad++
		fmt.Fprintf(stderr, "benchmark: "+format+"\n", args...)
	}
	one := func(w string, trace, workers int) (report, bool) {
		ro := o
		ro.workload, ro.trace, ro.workers = w, trace, workers
		rep, err := run(ro)
		if err != nil {
			fail("%v", err)
			return rep, false
		}
		for _, c := range rep.run.FailedChecks {
			fail("%s: check failed: %s", w, c)
		}
		if rep.budget != "" {
			fmt.Fprint(stderr, rep.budget)
		}
		return rep, true
	}

	values := map[string]map[string][]float64{} // workload -> metric -> one value per set
	prints := map[string]string{}
	for set := 1; set <= o.repeat; set++ {
		for _, w := range workloads {
			rep, ok := one(w.Name, 0, o.workers)
			if !ok {
				continue
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for _, m := range rep.metrics {
				m.Set = set
				enc.Encode(m)
				values[w.Name][m.Metric] = append(values[w.Name][m.Metric], m.Value)
			}
			fp := rep.run.Fingerprint
			if prev, seen := prints[w.Name]; seen && prev != fp {
				fail("%s: outcome fingerprint differs between sets: %s, %s", w.Name, prev, fp)
			}
			prints[w.Name] = fp
		}
	}

	for _, w := range workloads {
		if rep, ok := one(w.Name, 1, o.workers); ok {
			for _, m := range rep.metrics {
				enc.Encode(m)
			}
		}
	}

	// Virtual-time outcomes may not depend on how many workers step the
	// runners.
	for _, w := range workloads {
		if prints[w.Name] == "" || o.workers == 1 {
			continue
		}
		if rep, ok := one(w.Name, 0, 1); ok && rep.run.Fingerprint != prints[w.Name] {
			fail("%s: outcome fingerprint at 1 worker is %s, at %d workers %s",
				w.Name, rep.run.Fingerprint, o.workers, prints[w.Name])
		}
	}

	for _, w := range workloads {
		for _, d := range endToEnd {
			sets := values[w.Name][d.Name]
			if len(sets) < 2 {
				continue
			}
			sp := spreadLine{w.Name, d.Name, sets, spreadShare(sets), d.Bound, true}
			// Set-up time answers to its bound through medians of many runs,
			// not through two; a smoke run's numbers answer to nothing.
			if sp.Spread > d.Bound && d.Name != "setup_s" && !o.smoke {
				sp.Within = false
				fail("%s %s: spread %.3f between sets exceeds the bound %.2f", w.Name, d.Name, sp.Spread, d.Bound)
			}
			enc.Encode(sp)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "benchmark: %d problems\n", bad)
		return 1
	}
	fmt.Fprintln(stderr, "benchmark: all checks passed")
	return 0
}
