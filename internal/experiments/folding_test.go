package experiments

import (
	"math"
	"testing"

	"mqpi/internal/metrics"
)

// TestFoldingSweep runs a reduced folding sweep and checks the experiment's
// headline claims: the charged plane (throughput, ETA error) is bit-identical
// fold-on vs fold-off, fold-off saves exactly nothing, and fold-on saves
// engine work at the hottest skew.
func TestFoldingSweep(t *testing.T) {
	cfg := FoldingConfig{Common: Common{Seed: 5, Runs: 2, NumQueries: 16, Parallel: 1}, ZipfAs: []float64{1.1, 2.0}}
	res, err := RunFoldingSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	off, on := res.FigSaved.Series[0], res.FigSaved.Series[1]
	if off.Name != "fold-off" || on.Name != "fold-on" {
		t.Fatalf("series order: %s, %s", off.Name, on.Name)
	}
	for _, p := range off.Pts {
		if p.Y != 0 {
			t.Errorf("fold-off saved %g of charged work at a=%g; folding disabled must cost full price", p.Y, p.X)
		}
	}
	last := on.Pts[len(on.Pts)-1]
	if last.Y <= 0 {
		t.Errorf("fold-on saved nothing at the hottest skew a=%g; folding never engaged", last.X)
	}

	// The charged plane must coincide exactly: folding changes only what the
	// engine pays, never what queries are charged or when they finish.
	for _, fig := range []struct {
		name string
		fig  *metrics.Figure
	}{
		{"throughput", &res.FigThroughput},
		{"eta", &res.FigETA},
	} {
		a, b := fig.fig.Series[0].Pts, fig.fig.Series[1].Pts
		if len(a) != len(b) {
			t.Fatalf("%s: point counts differ: %d vs %d", fig.name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
				math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
				t.Errorf("%s point %d: fold-off (%v, %v) != fold-on (%v, %v)",
					fig.name, i, a[i].X, a[i].Y, b[i].X, b[i].Y)
			}
		}
	}

	// Bit-identical across pool parallelism and scheduler worker counts.
	par, err := RunFoldingSweep(FoldingConfig{
		Common: Common{Seed: 5, Runs: 2, NumQueries: 16, Parallel: 4, Workers: 2},
		ZipfAs: []float64{1.1, 2.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		name string
		a, b string
	}{
		{"throughput", res.FigThroughput.CSV(), par.FigThroughput.CSV()},
		{"eta", res.FigETA.CSV(), par.FigETA.CSV()},
		{"saved", res.FigSaved.CSV(), par.FigSaved.CSV()},
	} {
		if pair.a != pair.b {
			t.Errorf("%s figure differs across parallelism:\n%s\nvs\n%s", pair.name, pair.a, pair.b)
		}
	}
}
