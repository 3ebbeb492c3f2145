package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestSeriesBasics(t *testing.T) {
	s := &Series{Name: "s"}
	s.Add(1, 10)
	s.Add(2, 20)
	if len(s.Pts) != 2 || s.Pts[1] != (Point{X: 2, Y: 20}) {
		t.Errorf("Pts = %+v", s.Pts)
	}
	if got := s.YAt(1); got != 10 {
		t.Errorf("YAt(1) = %g", got)
	}
	if got := s.YAt(3); !math.IsNaN(got) {
		t.Errorf("YAt(missing) = %g", got)
	}
}

func TestFigureRender(t *testing.T) {
	f := Figure{Title: "T", XLabel: "x", YLabel: "u"}
	a := f.AddSeries("alpha")
	b := f.AddSeries("beta")
	a.Add(0, 1)
	a.Add(1, 2)
	b.Add(0, 10)
	b.Add(2, 30) // ragged grid: row 1 has no beta, row 2 no alpha
	out := f.Render()
	for _, frag := range []string{"== T ==", "alpha", "beta", "(y: u)"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + 3 x rows + ylabel = 7 lines.
	if len(lines) != 7 {
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
	// Missing cells render as "-".
	if !strings.Contains(out, "-") {
		t.Errorf("missing-cell marker absent:\n%s", out)
	}
}

func TestFigureRenderInf(t *testing.T) {
	f := Figure{Title: "T", XLabel: "x"}
	s := f.AddSeries("s")
	s.Add(0, math.Inf(1))
	if !strings.Contains(f.Render(), "inf") {
		t.Error("inf should render")
	}
}

func TestRelErr(t *testing.T) {
	cases := []struct {
		est, actual, want float64
	}{
		{90, 100, 0.1},
		{110, 100, 0.1},
		{100, 100, 0},
		{0, 0, 0},
		{200, -100, 3},
	}
	for _, c := range cases {
		if got := RelErr(c.est, c.actual); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RelErr(%g, %g) = %g, want %g", c.est, c.actual, got, c.want)
		}
	}
	if got := RelErr(5, 0); !math.IsInf(got, 1) {
		t.Errorf("RelErr(5,0) = %g", got)
	}
	if got := RelErr(math.Inf(1), 100); !math.IsInf(got, 1) {
		t.Errorf("RelErr(inf,100) = %g", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g", got)
	}
	if got := Mean([]float64{1, math.NaN(), 3}); got != 2 {
		t.Errorf("Mean with NaN = %g", got)
	}
	if got := Mean(nil); !math.IsNaN(got) {
		t.Errorf("Mean(nil) = %g", got)
	}
	if got := Mean([]float64{1, math.Inf(1)}); !math.IsInf(got, 1) {
		t.Errorf("Mean with inf = %g", got)
	}
}

func TestFormatNumStable(t *testing.T) {
	f := Figure{Title: "T", XLabel: "x"}
	s := f.AddSeries("s")
	s.Add(0.025, 123.456)
	s.Add(1000000, 0.5)
	out := f.Render()
	if !strings.Contains(out, "0.0250") || !strings.Contains(out, "123.5") {
		t.Errorf("number formatting:\n%s", out)
	}
}

func TestFigureCSV(t *testing.T) {
	f := Figure{Title: "T", XLabel: "lambda"}
	a := f.AddSeries("single, est") // comma forces quoting
	b := f.AddSeries("multi")
	a.Add(0, 1.5)
	a.Add(0.05, 2)
	b.Add(0, 0.5)
	got := f.CSV()
	want := "lambda,\"single, est\",multi\n0,1.5,0.5\n0.05,2,\n"
	if got != want {
		t.Errorf("CSV:\n%q\nwant:\n%q", got, want)
	}
}

// TestSeriesIndexMatchesYAt: the render-time index must agree with the naive
// linear scan on every lookup, including duplicate x values (first inserted
// wins), tolerance-band neighbors, and misses.
func TestSeriesIndexMatchesYAt(t *testing.T) {
	s := &Series{Name: "s"}
	s.Add(3, 30)
	s.Add(1, 10)
	s.Add(1, 11) // duplicate x: YAt returns the first inserted (10)
	s.Add(2, 20)
	s.Add(1+5e-10, 99) // inside the tolerance band of x=1, inserted later
	ix := s.index()
	for _, x := range []float64{0, 1, 1 + 5e-10, 2, 2.5, 3, 1e9} {
		want := s.YAt(x)
		got := ix.yAt(x)
		if math.IsNaN(want) != math.IsNaN(got) || (!math.IsNaN(want) && got != want) {
			t.Errorf("yAt(%g) = %g, YAt = %g", x, got, want)
		}
	}
}

// TestFigureJSON: lossless emission, with NaN/Inf as null.
func TestFigureJSON(t *testing.T) {
	f := Figure{Title: "T", XLabel: "x", YLabel: "y"}
	s := f.AddSeries("s")
	s.Add(0, 1.5)
	s.Add(1, math.Inf(1))
	s.Add(2, math.NaN())
	got, err := f.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"title":"T","xlabel":"x","ylabel":"y","series":[{"name":"s","points":[[0,1.5],[1,null],[2,null]]}]}`
	if got != want {
		t.Errorf("JSON:\n%s\nwant:\n%s", got, want)
	}
}

// figure10k builds the benchmark figure: 3 series × 10k points on a shared
// grid — the shape a long trajectory experiment produces.
func figure10k() *Figure {
	f := &Figure{Title: "bench", XLabel: "t"}
	for si := 0; si < 3; si++ {
		s := f.AddSeries(fmt.Sprintf("s%d", si))
		for i := 0; i < 10000; i++ {
			s.Add(float64(i)*0.5, float64(si*i))
		}
	}
	return f
}

func BenchmarkFigureRender10k(b *testing.B) {
	f := figure10k()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(f.Render()) == 0 {
			b.Fatal("empty render")
		}
	}
}

func BenchmarkFigureCSV10k(b *testing.B) {
	f := figure10k()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(f.CSV()) == 0 {
			b.Fatal("empty csv")
		}
	}
}
