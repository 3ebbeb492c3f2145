package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mqpi/internal/engine"
	"mqpi/internal/sched"
)

// encoderBody is the GET /queries body as one indenting json.Encoder writes
// the whole Overview: the encoding the stored finished section must reproduce.
func encoderBody(t testing.TB, ov Overview) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ov); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serve runs one request through h and returns the status and body.
func serve(h http.Handler, method, path, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// TestWriteJSONEncodeErrorIs500: a value that cannot be encoded answers 500
// with the encoder's error, not a 200 with an empty body.
func TestWriteJSONEncodeErrorIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, struct{ F float64 }{math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %q", rec.Code, rec.Body.Bytes())
	}
	var out struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || !strings.Contains(out.Error, "NaN") {
		t.Fatalf("body %q (%v): want an error naming NaN", rec.Body.Bytes(), err)
	}
}

// TestSecondsMarshalsLikeFloat64: a finite Seconds encodes byte for byte as
// json.Marshal encodes the same float64, and a non-finite one as null.
func TestSecondsMarshalsLikeFloat64(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 5e-324,
		math.MaxFloat64, 1, -1, 0.1, 123456789.125, 9.999999e-7, 1.5e-300, -2.5e21}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		xs = append(xs, math.Float64frombits(r.Uint64()), r.Float64()*math.Pow(10, float64(r.IntN(60)-30)))
	}
	for _, x := range xs {
		got, err := Seconds(x).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want := []byte("null")
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			if want, err = json.Marshal(x); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Seconds(%v) = %s, json.Marshal = %s", x, got, want)
		}
	}
}

// TestOverviewBodyMatchesEncoder is the differential: after every submit,
// finish, abort and failure of a random session, the GET /queries and
// POST /advance bodies equal the whole Overview of the same epoch through one
// indenting encoder, byte for byte.
func TestOverviewBodyMatchesEncoder(t *testing.T) {
	seen := map[string]int{} // terminated statuses, and "error" for an error string
	for seed := uint64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			for _, v := range overviewDifferential(t, seed).Finished {
				seen[v.Status]++
				if v.Err != "" {
					seen["error"]++
				}
			}
		})
	}
	for _, want := range []string{"finished", "aborted", "failed", "error"} {
		if seen[want] == 0 {
			t.Errorf("no terminated view with %q in any session: %v", want, seen)
		}
	}
}

func overviewDifferential(t *testing.T, seed uint64) Overview {
	db := engine.Open()
	loadTable(t, db, "d1", 2)
	loadTable(t, db, "d2", 6)
	for _, sql := range []string{"CREATE TABLE two (a BIGINT)", "INSERT INTO two VALUES (1), (2)"} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	m := manual(t, db, sched.Config{RateC: 40, Quantum: 0.25, MPL: 2})
	h := NewHandler(m)
	r := rand.New(rand.NewPCG(seed, 46))
	check := func(step string, body []byte) {
		t.Helper()
		ov, err := m.Overview()
		if err != nil {
			t.Fatal(err)
		}
		if want := encoderBody(t, ov); !bytes.Equal(body, want) {
			t.Fatalf("seed %d, %s: body differs from the encoder's\n got: %s\nwant: %s", seed, step, body, want)
		}
	}
	get := func(step string) {
		t.Helper()
		code, body := serve(h, "GET", "/queries", "")
		if code != http.StatusOK {
			t.Fatalf("%s: GET /queries = %d", step, code)
		}
		check(step, body)
	}
	labels := []string{"", "plain", `<b>&"quoted"\path`, "ünïcødé ✓ 日本", "tab\tnew\nline"}
	sqls := []string{
		"SELECT SUM(a) FROM d1",
		"SELECT COUNT(*) FROM d2 WHERE a <> 3",
		`SELECT COUNT(*) FROM d1 WHERE 'ü&"\<>' <> 'x'`,
		"SELECT (SELECT a FROM two) FROM d2", // fails at runtime: two rows
	}
	get("empty")
	var ids []int
	for step := 0; step < 40; step++ {
		name := fmt.Sprint("step ", step)
		switch k := r.IntN(10); {
		case k < 4:
			req := SubmitRequest{Label: labels[r.IntN(len(labels))], SQL: sqls[r.IntN(len(sqls))], Priority: r.IntN(3)}
			if k == 0 {
				req.Delay = 0.5
			}
			v, err := m.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, v.ID)
			name += " submit"
		case k < 6 && len(ids) > 0:
			_ = m.Abort(ids[r.IntN(len(ids))]) // an already terminated query refuses
			name += " abort"
		default:
			code, body := serve(h, "POST", "/advance", fmt.Sprintf(`{"seconds": %g}`, 0.25*float64(1+r.IntN(4))))
			if code != http.StatusOK {
				t.Fatalf("%s: POST /advance = %d", name, code)
			}
			check(name+" advance", body)
		}
		get(name)
	}
	ov, _ := m.Overview()
	if len(ov.Finished) == 0 {
		t.Fatalf("seed %d: no query terminated; the session checks nothing stored", seed)
	}
	return ov
}

// overviewFixture is a manager with two live queries and the given number of
// terminated ones, with the clock advanced once so speeds are observed.
func overviewFixture(tb testing.TB, terminated int) *Manager {
	tb.Helper()
	db := engine.Open()
	loadTable(tb, db, "big", 64)
	loadTable(tb, db, "small", 1)
	m := manual(tb, db, sched.Config{RateC: 1, Quantum: 0.25, MPL: 4})
	for i := 0; i < terminated; i++ {
		v, err := m.Submit(SubmitRequest{Label: fmt.Sprint("done-", i), SQL: "SELECT SUM(a) FROM small"})
		if err != nil {
			tb.Fatal(err)
		}
		if err := m.Abort(v.ID); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(SubmitRequest{Label: fmt.Sprint("live-", i), SQL: "SELECT SUM(a) FROM big"}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := m.Advance(0.25); err != nil {
		tb.Fatal(err)
	}
	return m
}

// discardWriter is a ResponseWriter that keeps nothing of the body.
type discardWriter struct{ header http.Header }

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestOverviewSteadyStateAllocs pins that an overview reply costs what the
// live queries cost: once the first request has stored the finished section,
// a GET /queries at 1,000 terminated queries allocates within a small
// constant of one at 10.
func TestOverviewSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	bytesPerGet := func(terminated int) uint64 {
		h := NewHandler(overviewFixture(t, terminated))
		req := httptest.NewRequest("GET", "/queries", nil)
		w := &discardWriter{header: http.Header{}}
		h.ServeHTTP(w, req) // stores the finished section
		const n = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			h.ServeHTTP(w, req)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	few, many := bytesPerGet(10), bytesPerGet(1000)
	if many > few+1024 {
		t.Fatalf("GET /queries allocates %d B at 1,000 terminated queries, %d B at 10", many, few)
	}
}

// TestOverviewReadersRace: readers that fetch GET /queries and POST /advance
// while queries are submitted, finish and are aborted each get a body that
// decodes, whose finished ids are a prefix of the final overview's; once the
// system is quiet, every reader's body is the final Overview through one
// indenting encoder.
func TestOverviewReadersRace(t *testing.T) {
	db := engine.Open()
	for i := 0; i < 3; i++ {
		loadTable(t, db, fmt.Sprint("r", i), 1+i)
	}
	m := manual(t, db, sched.Config{RateC: 200, Quantum: 0.25, MPL: 3})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	fetch := func(method, path, body string) ([]byte, error) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s %s = %d: %s", method, path, resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes(), nil
	}

	const readers = 8
	stop := make(chan struct{})
	seen := make([][][]int, readers) // per reader, each body's finished ids
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				method, path, body := "GET", "/queries", ""
				if (g+i)%2 == 1 {
					method, path, body = "POST", "/advance", `{"seconds": 0.25}`
				}
				data, err := fetch(method, path, body)
				if err != nil {
					t.Error(err)
					return
				}
				var ov Overview
				if err := json.Unmarshal(data, &ov); err != nil {
					t.Errorf("%s %s: %v", method, path, err)
					return
				}
				var ids []int
				for _, v := range ov.Finished {
					ids = append(ids, v.ID)
				}
				seen[g] = append(seen[g], ids)
			}
		}(g)
	}
	for k := 0; k < 60; k++ {
		v, err := m.Submit(SubmitRequest{Label: fmt.Sprint("q", k), SQL: fmt.Sprintf("SELECT SUM(a) FROM r%d", k%3)})
		if err != nil {
			t.Fatal(err)
		}
		if k%4 == 1 {
			_ = m.Abort(v.ID) // may race a finish
		}
		time.Sleep(300 * time.Microsecond) // let the readers interleave
	}
	// Let the readers' advances drain what is left.
	for l := m.Load(); l.Admitted+l.Queued > 0; l = m.Load() {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()

	ov, err := m.Overview()
	if err != nil {
		t.Fatal(err)
	}
	var final []int
	statuses := map[string]int{}
	for _, v := range ov.Finished {
		final = append(final, v.ID)
		statuses[v.Status]++
	}
	if statuses["finished"] == 0 || statuses["aborted"] == 0 {
		t.Fatalf("terminated statuses %v: want both finishes and aborts", statuses)
	}
	for g, bodies := range seen {
		for _, ids := range bodies {
			if len(ids) > len(final) || !slices.Equal(ids, final[:len(ids)]) {
				t.Fatalf("reader %d saw finished %v, not a prefix of the final %v", g, ids, final)
			}
		}
	}
	want := encoderBody(t, ov)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := fetch("GET", "/queries", "")
			if err != nil {
				t.Error(err)
			} else if !bytes.Equal(got, want) {
				t.Errorf("reader %d: quiet body differs from the encoder's\n got: %s\nwant: %s", g, got, want)
			}
		}()
	}
	wg.Wait()
}
