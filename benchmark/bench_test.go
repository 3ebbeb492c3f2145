package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// fakeClock is a clock only the test moves.
type fakeClock struct{ t time.Time }

func (f *fakeClock) Now() time.Time        { return f.t }
func (f *fakeClock) Sleep(d time.Duration) { f.t = f.t.Add(d) }

// An open-loop request is timed from the instant it was due, so a stalled
// server is charged for every request it delayed, not only the one it held.
func TestOpenLoopTimesFromDueInstant(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	stall := 100 * time.Millisecond
	server := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		clk.Sleep(stall) // every request takes 100 ms of the fake clock
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte(`{"id":1}`))
	})
	c := newClient(server, &gate{}, clk.t, true)
	c.clk = clk

	at := []float64{0.010, 0.020, 0.030, 0.040} // due every 10 ms
	var got lat
	lateness := openLoop(clk, clk.t, at, nil, func(i int, due time.Time) {
		_, d, ok := c.submit("select 1", "", due)
		if !ok {
			t.Fatalf("submit %d refused", i)
		}
		got.add(d)
	})
	for k := range at {
		// Request k goes out when request k-1 returns, 90k ms after it was due.
		if want := time.Duration(k) * 90 * time.Millisecond; time.Duration(lateness[k]) != want {
			t.Errorf("request %d fired %v late, want %v", k, time.Duration(lateness[k]), want)
		}
		if want := stall + time.Duration(k)*90*time.Millisecond; time.Duration(got[k]) != want {
			t.Errorf("request %d latency %v, want %v from its due instant", k, time.Duration(got[k]), want)
		}
	}
	// The root span starts at the due instant, the handler span when it was
	// sent: the root's self time is the lateness.
	self := selfTimes(c.spans)
	for k := range at {
		if self[2*k] != lateness[k] {
			t.Errorf("request %d: root span self time %d, want the lateness %d", k, self[2*k], lateness[k])
		}
	}
}

func TestSchedulesAreByteIdenticalPerSeed(t *testing.T) {
	sz := sizesFor(1, false)
	for _, w := range workloads {
		a := buildSchedule(w.Name, 7, sz).fingerprint()
		b := buildSchedule(w.Name, 7, sz).fingerprint()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two schedules", w.Name)
		}
		if c := buildSchedule(w.Name, 8, sz).fingerprint(); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.Name)
		}
	}
}

// A percentile is reported only with at least ten samples beyond it: p95
// needs 200 samples, p99 needs 1000.
func TestPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{200, 0.95, 190, true},
		{199, 0.95, 190, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{21, 0.50, 11, true},
		{0, 0.50, 0, false},
	} {
		v, ok := percentile(ramp(tc.n), tc.p)
		if v != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", tc.n, tc.p, v, ok, tc.want, tc.ok)
		}
	}
	var l lat
	for i := 1; i <= 199; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	if got := tail(l, 1e6, 0.95); got != 0 {
		t.Errorf("tail of 199 samples at p95 = %g, want 0: an unsupported percentile is not reported", got)
	}
	l.add(200 * time.Millisecond)
	if got := tail(l, 1e6, 0.95); got != 190 {
		t.Errorf("tail of 200 samples at p95 = %g ms, want 190", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which is
// what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, %g; Python gives 2.75, 5.5, 8.25", q1, q2, q3)
	}
	if got := spreadShare([]float64{100, 110}); math.Abs(got-10.0/105) > 1e-12 {
		t.Errorf("spreadShare of two sets = %g, want their range over their median", got)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Kind: spRequest, Start: 0, End: 100, Parent: -1},
		{Kind: spSubmit, Start: 10, End: 40, Parent: 0},
		{Kind: spPoll, Start: 40, End: 90, Parent: 0},
		{Kind: spRequest, Start: 200, End: 210, Parent: -1},
		{Kind: spPoll, Start: 190, End: 260, Parent: 3}, // sticks out both ends: clipped to the parent
	}
	want := []int64{20, 30, 50, 0, 70}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d self time %d, want %d", i, got, want[i])
		}
	}
	if got := clampSelf(10, 4, 3); got != 3 {
		t.Errorf("clampSelf(10, 4, 3) = %g, want 3", got)
	}
	if got := clampSelf(10, 8, 7); got != 0 {
		t.Errorf("clampSelf below zero = %g, want the floor 0", got)
	}
}

func TestBudgetResidualIsNeverNegative(t *testing.T) {
	stops := []budgetRow{{"decode", 5}, {"parse", 1}, {"publish", 4}}
	rows, excess := budget(100, stops)
	if excess != 0 || rows[1].Stop != ownerWaitStop || rows[1].Us != 90 {
		t.Fatalf("budget(100) = %v, excess %g; want a 90 us owner wait after decode", rows, excess)
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.Us
	}
	if sum != 100 {
		t.Errorf("rows add up to %g, want the total 100", sum)
	}
	rows, excess = budget(8, stops) // the stops alone already exceed the total
	if excess != 2 {
		t.Errorf("excess %g, want 2", excess)
	}
	for _, r := range rows {
		if r.Us < 0 {
			t.Errorf("row %q is negative: %g", r.Stop, r.Us)
		}
	}
	if !strings.Contains(formatBudget("t", 8, rows, excess), "floored at 0") {
		t.Error("the table does not say that the owner wait was floored")
	}
}

// DB.Prepare is parse, plan and runner build, and nothing else of weight: the
// three parts timed separately account for it.
func TestPrepareIsTheSumOfItsParts(t *testing.T) {
	ds, err := liveTier.dataset()
	if err != nil {
		t.Fatal(err)
	}
	ops := templates(rngFor(1, 1), 400)
	var parse, planT, build, prepare float64
	for try := 0; try < 5; try++ { // medians of wall times: allow a noisy host a few goes
		parse, planT, build, prepare = prepareParts(ds.DB, ops)
		if math.Abs(prepare-(parse+planT+build)) <= 0.25*prepare {
			return
		}
	}
	t.Errorf("prepare %.0f ns, parse %.0f + plan %.0f + build %.0f = %.0f ns: more than 25%% apart",
		prepare, parse, planT, build, parse+planT+build)
}

// The smoke suite is the whole command at toy size, in this process: every
// workload untraced and traced, the layer walk, the one-worker rerun and
// every output check.
func TestSmokeSuite(t *testing.T) {
	start := time.Now()
	o := options{seed: 3, seconds: 1, smoke: true, repeat: 1, workers: 2, outDir: t.TempDir()}
	var stdout, stderr bytes.Buffer
	if code := suite(o, runOne, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke suite exited %d:\n%s", code, stderr.String())
	}
	t.Logf("smoke suite took %v", time.Since(start)) // under 10 s unless the race detector is on

	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		var m metricLine
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("stdout line %q is not JSON: %v", line, err)
		}
		if m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric line %q lacks a unit or a finite value", line)
		}
		seen[m.Workload+" "+m.Metric] = true
	}
	for _, w := range workloads {
		for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			if !seen[w.Name+" "+d.Name] {
				t.Errorf("%s: metric %s was not printed", w.Name, d.Name)
			}
		}
	}
	for _, w := range workloads {
		if _, err := os.Stat(o.outDir + "/" + w.Name + ".seed3.trace.json"); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}
}

// Two drivers at most, one request each: the gate sees two in flight on the
// workloads with two drivers and never three.
func TestNeverMoreThanTwoInFlight(t *testing.T) {
	sz := sizesFor(1, true)
	for _, w := range []string{"backlog_submit", "poll_fanout"} {
		out, err := runWorkload(w, 5, sz, false, 2)
		if err != nil {
			t.Fatal(err)
		}
		if out.peakInFlight > maxInFlight {
			t.Errorf("%s: %d requests in flight", w, out.peakInFlight)
		}
		if len(out.failedChecks) > 0 {
			t.Errorf("%s: %v", w, out.failedChecks)
		}
	}
	g := &gate{}
	g.enter()
	g.enter()
	g.enter()
	g.leave()
	if g.peak.Load() != 3 || g.cur.Load() != 2 {
		t.Errorf("gate peak %d, current %d; want 3, 2", g.peak.Load(), g.cur.Load())
	}
}

// The suite fails when the sets of a -repeat disagree by more than a bound,
// or when the virtual-time outcome does not repeat.
func TestSuiteHoldsSetsAgainstBounds(t *testing.T) {
	canned := func(latency float64, print string) runner {
		n := 0
		return func(o options) (report, error) {
			n++
			rep := report{run: runLine{Workload: o.workload, FailedChecks: []string{}}}
			if o.workload == "exec_replay" && o.trace == 0 {
				rep.run.Fingerprint = "a"
				if n > len(workloads) && print != "" {
					rep.run.Fingerprint = print // later sets, and the one-worker rerun
				}
			}
			v := 100.0
			if n > len(workloads) {
				v = latency
			}
			for _, d := range endToEnd {
				rep.metrics = append(rep.metrics, metricLine{Workload: o.workload, Metric: d.Name, Unit: d.Unit, Value: v})
			}
			return rep, nil
		}
	}
	o := options{seed: 1, seconds: 1, repeat: 2, workers: 2}
	var out, errs bytes.Buffer
	if code := suite(o, canned(104, ""), &out, &errs); code != 0 {
		t.Errorf("sets 4%% apart: exit %d\n%s", code, errs.String())
	}
	errs.Reset()
	if code := suite(o, canned(130, ""), &out, &errs); code == 0 || !strings.Contains(errs.String(), "exceeds the bound") {
		t.Errorf("sets 30%% apart: exit %d\n%s", code, errs.String())
	}
	errs.Reset()
	if code := suite(o, canned(100, "b"), &out, &errs); code == 0 || !strings.Contains(errs.String(), "fingerprint") {
		t.Errorf("fingerprints differ: exit %d\n%s", code, errs.String())
	}
}

func TestFlagsTakeTheDriversForm(t *testing.T) {
	o, err := parseFlags(strings.Fields("--workload scan_share --seed 9 --seconds 15 --trace 1"))
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "scan_share" || o.seed != 9 || o.seconds != 15 || o.trace != 1 {
		t.Errorf("parsed %+v", o)
	}
	for _, bad := range []string{"--workload nope", "--trace 2", "--seconds 0", "--repeat 0"} {
		if _, err := parseFlags(strings.Fields(bad)); err == nil {
			t.Errorf("%q was accepted", bad)
		}
	}
}

// BENCHMARK.json at the repository root is the catalogue as the driver reads
// it; it must say what the code says, within the contract's limits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if strings.Join(file.Command, " ") != "go run ./benchmark" || len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("command %v, paths %v", file.Command, file.Paths)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the command's default is %d", file.RunSeconds, defaultSeconds)
	}
	same := func(kind string, got, want any) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Errorf("%s differ:\nBENCHMARK.json %s\ncatalogue      %s", kind, g, w)
		}
	}
	same("workloads", file.Workloads, workloads)
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %g", d.Name, d.Unit, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	for _, d := range perLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound != 0 {
			t.Errorf("%s: unit %q bound %g", d.Name, d.Unit, d.Bound)
		}
	}
	if !hasSetup || len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("setup_s %v, %d end-to-end, %d per-layer, %d workloads", hasSetup, len(endToEnd), len(perLayer), len(workloads))
	}
}
