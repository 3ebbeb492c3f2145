// Package metrics provides the small amount of plumbing the experiment
// harness needs: named (x, y) series, text rendering of figures as aligned
// tables, and relative-error helpers matching the paper's definition. It is
// also the stdlib-only home of the lock-free Histogram the serving tier
// records into and renders on /metrics.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Point is one (x, y) sample.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points.
type Series struct {
	Name string
	Pts  []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Pts = append(s.Pts, Point{X: x, Y: y}) }

// YAt returns the y value at x (within tolerance), or NaN.
func (s *Series) YAt(x float64) float64 {
	for _, p := range s.Pts {
		if math.Abs(p.X-x) < 1e-9 {
			return p.Y
		}
	}
	return math.NaN()
}

// seriesIndex is a sorted x→y lookup built once per series, replacing the
// per-grid-point linear YAt scan that made figure rendering O(points²). It
// preserves YAt's exact semantics — first point in insertion order within the
// 1e-9 tolerance wins — so rendered output is unchanged.
type seriesIndex struct {
	pts []indexedPoint
}

type indexedPoint struct {
	Point
	ord int
}

func (s *Series) index() *seriesIndex {
	ip := make([]indexedPoint, len(s.Pts))
	for i, p := range s.Pts {
		ip[i] = indexedPoint{Point: p, ord: i}
	}
	sort.SliceStable(ip, func(i, j int) bool { return ip[i].X < ip[j].X })
	return &seriesIndex{pts: ip}
}

// yAt returns the y value at x (within tolerance), or NaN — binary search
// plus a scan of the (tiny) tolerance band for the earliest-inserted match.
func (ix *seriesIndex) yAt(x float64) float64 {
	lo := sort.Search(len(ix.pts), func(i int) bool { return ix.pts[i].X >= x-1e-9 })
	best := -1
	y := math.NaN()
	for i := lo; i < len(ix.pts) && ix.pts[i].X <= x+1e-9; i++ {
		if math.Abs(ix.pts[i].X-x) < 1e-9 && (best < 0 || ix.pts[i].ord < best) {
			best = ix.pts[i].ord
			y = ix.pts[i].Y
		}
	}
	return y
}

// Last returns the final point; ok is false for an empty series.
func (s *Series) Last() (Point, bool) {
	if len(s.Pts) == 0 {
		return Point{}, false
	}
	return s.Pts[len(s.Pts)-1], true
}

// Figure is a set of series sharing an x axis, renderable as a text table —
// the harness's stand-in for the paper's plots.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// AddSeries creates, attaches, and returns a new series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// xGrid returns the sorted union of x values across all series.
func (f *Figure) xGrid() []float64 {
	var xs []float64
	for _, s := range f.Series {
		for _, p := range s.Pts {
			xs = append(xs, p.X)
		}
	}
	sort.Float64s(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x-out[len(out)-1] > 1e-9 {
			out = append(out, x)
		}
	}
	return out
}

// Render draws the figure as an aligned text table, one row per x value and
// one column per series. Missing samples render as "-".
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", f.Title)
	cols := make([]string, 0, len(f.Series)+1)
	cols = append(cols, f.XLabel)
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	idx := make([]*seriesIndex, len(f.Series))
	for i, s := range f.Series {
		idx[i] = s.index()
	}
	rows := [][]string{cols}
	for _, x := range f.xGrid() {
		row := []string{formatNum(x)}
		for si := range f.Series {
			y := idx[si].yAt(x)
			if math.IsNaN(y) {
				row = append(row, "-")
			} else {
				row = append(row, formatNum(y))
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(cols))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			total := 0
			for _, w := range widths {
				total += w + 2
			}
			b.WriteString(strings.Repeat("-", total-2))
			b.WriteByte('\n')
		}
	}
	if f.YLabel != "" {
		fmt.Fprintf(&b, "(y: %s)\n", f.YLabel)
	}
	return b.String()
}

// CSV renders the figure as comma-separated values with a header row —
// ready for gnuplot/matplotlib. Missing samples are empty cells.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	idx := make([]*seriesIndex, len(f.Series))
	for i, s := range f.Series {
		idx[i] = s.index()
	}
	for _, x := range f.xGrid() {
		fmt.Fprintf(&b, "%g", x)
		for si := range f.Series {
			b.WriteByte(',')
			y := idx[si].yAt(x)
			if !math.IsNaN(y) {
				fmt.Fprintf(&b, "%g", y)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// jsonNum marshals like a float64 but emits null for NaN and ±Inf, which
// encoding/json rejects outright — figures legitimately contain +Inf relative
// errors in unstable regimes.
type jsonNum float64

// MarshalJSON implements json.Marshaler.
func (v jsonNum) MarshalJSON() ([]byte, error) {
	f := float64(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return []byte(strconv.FormatFloat(f, 'g', -1, 64)), nil
}

// JSON renders the figure as a single JSON object:
//
//	{"title":…,"xlabel":…,"ylabel":…,"series":[{"name":…,"points":[[x,y],…]},…]}
//
// Points are emitted per series in insertion order (no grid alignment), so
// the output is lossless; NaN and ±Inf values become null.
func (f *Figure) JSON() (string, error) {
	type jsSeries struct {
		Name   string       `json:"name"`
		Points [][2]jsonNum `json:"points"`
	}
	out := struct {
		Title  string     `json:"title"`
		XLabel string     `json:"xlabel"`
		YLabel string     `json:"ylabel"`
		Series []jsSeries `json:"series"`
	}{Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel, Series: make([]jsSeries, 0, len(f.Series))}
	for _, s := range f.Series {
		js := jsSeries{Name: s.Name, Points: make([][2]jsonNum, 0, len(s.Pts))}
		for _, p := range s.Pts {
			js.Points = append(js.Points, [2]jsonNum{jsonNum(p.X), jsonNum(p.Y)})
		}
		out.Series = append(out.Series, js)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

func formatNum(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// RelErr is the paper's relative error |est − actual| / actual × 100%,
// returned as a fraction (0.35 = 35%). A zero actual with a zero estimate is
// a perfect prediction; a zero actual otherwise yields +Inf.
func RelErr(est, actual float64) float64 {
	if actual == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if math.IsInf(est, 0) {
		return math.Inf(1)
	}
	return math.Abs(est-actual) / math.Abs(actual)
}

// Mean averages the values, ignoring NaNs; +Inf values saturate the mean.
func Mean(vals []float64) float64 {
	n := 0
	sum := 0.0
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		if math.IsInf(v, 1) {
			return math.Inf(1)
		}
		sum += v
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
