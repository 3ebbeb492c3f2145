package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"mqpi/internal/experiments"
	"mqpi/internal/workload"
)

// TestMain lets a test re-execute this binary as mqpi-bench itself, so the
// exit code of a bad invocation can be observed.
func TestMain(m *testing.M) {
	if os.Getenv("MQPI_BENCH_TEST_RUN_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestUnknownExps pins the -exp validation: a bad name anywhere in the comma
// list — not just a fully-unknown selector — must be reported, so a typo in
// "mcq,bogus" can never silently run half a battery and exit 0.
func TestUnknownExps(t *testing.T) {
	cases := []struct {
		which []string
		bad   []string
	}{
		{[]string{"all"}, nil},
		{[]string{"mcq", "calibration"}, nil},
		{[]string{"bogus"}, []string{"bogus"}},
		{[]string{"mcq", "bogus"}, []string{"bogus"}},
		{[]string{"bogus", "nope", "scq"}, []string{"bogus", "nope"}},
		{[]string{""}, []string{""}},
	}
	for _, c := range cases {
		if got := unknownExps(c.which); !reflect.DeepEqual(got, c.bad) {
			t.Errorf("unknownExps(%q) = %q, want %q", c.which, got, c.bad)
		}
	}
}

// TestRegistry pins what -exp is derived from: registry names are non-empty,
// unique and never the "all" selector; "all" selects every entry in battery
// order, and a comma list selects its entries in battery order, once each.
func TestRegistry(t *testing.T) {
	var names []string
	seen := make(map[string]bool)
	for _, e := range experiments.All() {
		if e.Name == "" || e.Name == allExps || seen[e.Name] {
			t.Errorf("registry name %q is empty, reserved or a duplicate", e.Name)
		}
		if e.Run == nil {
			t.Errorf("registry entry %q has no run function", e.Name)
		}
		seen[e.Name] = true
		names = append(names, e.Name)
	}
	selectedNames := func(which ...string) []string {
		var out []string
		for _, e := range selected(which) {
			out = append(out, e.Name)
		}
		return out
	}
	if got := selectedNames(allExps); !reflect.DeepEqual(got, names) {
		t.Errorf("-exp all selects %q, want every entry in order %q", got, names)
	}
	if got, want := selectedNames("maint", "mcq", "maint"), []string{"mcq", "maint"}; !reflect.DeepEqual(got, want) {
		t.Errorf("-exp maint,mcq,maint selects %q, want %q", got, want)
	}
	if got := expNames(); !reflect.DeepEqual(got, append(names, allExps)) {
		t.Errorf("expNames() = %q, want the registry names then %q", got, allExps)
	}
}

// TestUnknownExperimentExits2: an unknown name in a comma list fails the
// whole invocation with exit code 2 and lists the valid names.
func TestUnknownExperimentExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-exp", "stages,bogus")
	cmd.Env = append(os.Environ(), "MQPI_BENCH_TEST_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("mqpi-bench -exp stages,bogus: err = %v, want exit status 2", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("a refused invocation ran something: %q", stdout.String())
	}
	for _, want := range []string{`unknown experiment "bogus"`, "valid experiments: " + strings.Join(expNames(), ", ")} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not contain %q", stderr.String(), want)
		}
	}
}

// batteryDigest is the sha256 of the whole battery's text output at the
// reduced size below. It is the committed stand-in for eyeballing the
// figures: a change that moves any figure or headline by a byte, at any
// -parallel or -workers setting, fails here. After an intended change,
// regenerate it with
//
//	go run ./cmd/mqpi-bench -exp all -seed 3 -runs 2 -lineitem 30000 | sha256sum
const batteryDigest = "32d83708ccb9421f9e182332ca3024d9155e3169e42bf9c438dc980dcfd26902"

func TestBatteryDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole battery four times")
	}
	for _, parallel := range []int{1, 4} {
		for _, workers := range []int{1, 2} {
			var out bytes.Buffer
			b := battery{out: &out, txt: &out}
			err := b.run(selected([]string{allExps}), experiments.Common{
				Seed: 3, Runs: 2, Parallel: parallel, Workers: workers,
				Data: workload.DataConfig{LineitemRows: 30000, Seed: 3},
			})
			if err != nil {
				t.Fatalf("parallel=%d workers=%d: %v", parallel, workers, err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != batteryDigest {
				t.Errorf("parallel=%d workers=%d: battery output digest %s, want %s", parallel, workers, got, batteryDigest)
			}
		}
	}
}
