package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mqpi/internal/engine"
	"mqpi/internal/sched"
)

func newTestServer(t *testing.T) (*httptest.Server, *Manager) {
	t.Helper()
	db := engine.Open()
	m := New(db, Config{Sched: sched.Config{RateC: 10, Quantum: 0.5}, TickEvery: -1})
	t.Cleanup(m.Close)
	ts := httptest.NewServer(NewHandler(m))
	t.Cleanup(ts.Close)
	return ts, m
}

// rawBody is a request body doJSON sends as is instead of marshalling it.
type rawBody string

func doJSON(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case rawBody:
		rd = strings.NewReader(string(b))
	default:
		enc, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(enc)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d, want %d; body: %s", method, url, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
}

// TestHTTPSession drives a full client session over the wire: load data,
// submit three queries, watch multi-query estimates revise as competitors
// finish, and exercise block/priority/planner/diagram/metrics endpoints.
func TestHTTPSession(t *testing.T) {
	ts, _ := newTestServer(t)

	// Load three tables of different sizes through /exec.
	for i, rows := range []int{64 * 5, 64 * 10, 64 * 20} {
		doJSON(t, "POST", ts.URL+"/exec",
			map[string]string{"sql": fmt.Sprintf("CREATE TABLE t%d (a BIGINT)", i)}, 200, nil)
		var vals []string
		for r := 0; r < rows; r++ {
			vals = append(vals, fmt.Sprintf("(%d)", r))
		}
		var res struct {
			Rows int `json:"rows"`
		}
		doJSON(t, "POST", ts.URL+"/exec",
			map[string]string{"sql": fmt.Sprintf("INSERT INTO t%d VALUES %s", i, strings.Join(vals, ","))}, 200, &res)
		if res.Rows != rows {
			t.Fatalf("insert returned %d rows, want %d", res.Rows, rows)
		}
	}

	// Submit three concurrent queries.
	var views [3]QueryView
	for i := range views {
		doJSON(t, "POST", ts.URL+"/queries", SubmitRequest{
			Label: fmt.Sprintf("q%d", i), SQL: fmt.Sprintf("SELECT SUM(a) FROM t%d", i), Priority: i,
		}, http.StatusCreated, &views[i])
		if views[i].Status != "running" {
			t.Fatalf("q%d = %+v", i, views[i])
		}
	}

	// One tick in: everyone has an estimate.
	var ov Overview
	doJSON(t, "POST", ts.URL+"/advance", map[string]float64{"seconds": 0.5}, 200, &ov)
	if len(ov.Running) != 3 {
		t.Fatalf("running = %d, want 3", len(ov.Running))
	}
	eta0 := make(map[int]float64)
	for _, v := range ov.Running {
		if v.MultiETA <= 0 {
			t.Errorf("q%d multi ETA = %g", v.ID, v.MultiETA)
		}
		if v.MultiETA < v.SingleETA {
			t.Errorf("q%d multi ETA %g < single ETA %g under contention", v.ID, v.MultiETA, v.SingleETA)
		}
		eta0[v.ID] = float64(v.MultiETA)
	}

	// Run until the smallest finishes; survivors' ETAs must have revised
	// downward relative to naive (eta0 - elapsed): they inherit capacity.
	doJSON(t, "POST", ts.URL+"/advance", map[string]float64{"seconds": 3}, 200, &ov)
	if len(ov.Finished) == 0 {
		t.Fatalf("no query finished by t=3.5: %+v", ov)
	}
	for _, v := range ov.Running {
		naive := eta0[v.ID] - 3
		if float64(v.MultiETA) > naive+0.25 {
			t.Errorf("q%d ETA %g did not improve vs naive %g after a competitor finished", v.ID, v.MultiETA, naive)
		}
	}

	// Per-query view and events for the largest query.
	big := views[2].ID
	var qv QueryView
	doJSON(t, "GET", fmt.Sprintf("%s/queries/%d", ts.URL, big), nil, 200, &qv)
	if qv.Fraction <= 0 || qv.Fraction >= 1 {
		t.Errorf("big query fraction = %g", qv.Fraction)
	}
	var evs struct {
		Events []Event `json:"events"`
	}
	doJSON(t, "GET", fmt.Sprintf("%s/events?id=%d", ts.URL, big), nil, 200, &evs)
	if len(evs.Events) == 0 || evs.Events[0].Type != EventSubmitted {
		t.Errorf("big query events = %+v", evs.Events)
	}

	// Planners over the live state.
	var plan map[string]any
	doJSON(t, "GET", ts.URL+"/plan/maintenance?deadline=1&mode=total-cost", nil, 200, &plan)
	if _, ok := plan["abort"]; !ok {
		t.Errorf("maintenance plan = %v", plan)
	}
	if len(ov.Running) >= 2 {
		doJSON(t, "GET", fmt.Sprintf("%s/plan/speedup?target=%d&victims=1", ts.URL, big), nil, 200, &plan)
		doJSON(t, "GET", ts.URL+"/plan/speedup-others", nil, 200, &plan)
	}

	// Block + priority + unblock round trip.
	doJSON(t, "POST", fmt.Sprintf("%s/queries/%d/block", ts.URL, big), nil, 200, nil)
	doJSON(t, "POST", fmt.Sprintf("%s/queries/%d/priority", ts.URL, big), map[string]int{"priority": 5}, 200, nil)
	doJSON(t, "POST", fmt.Sprintf("%s/queries/%d/unblock", ts.URL, big), nil, 200, nil)

	// Diagram renders as plain text.
	resp, err := http.Get(ts.URL + "/diagram?width=40")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("diagram: status %d, type %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(body), "Q") {
		t.Errorf("diagram body:\n%s", body)
	}

	// Drain and check /metrics.
	doJSON(t, "POST", ts.URL+"/advance", map[string]float64{"seconds": 30}, 200, &ov)
	if len(ov.Running) != 0 || len(ov.Finished) != 3 {
		t.Fatalf("final overview: %d running, %d finished", len(ov.Running), len(ov.Finished))
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("metrics content type = %s", resp.Header.Get("Content-Type"))
	}
	assertPrometheusText(t, string(body))
	for _, want := range []string{"mqpi_queries_submitted_total 3", "mqpi_queries_finished_total 3"} {
		if !strings.Contains(string(body), want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/exec", map[string]string{"sql": "CREATE TABLE t1 (a BIGINT)"}, 200, nil)
	cases := []struct {
		method, path string
		body         any
		want         int
	}{
		{"GET", "/queries/999", nil, http.StatusNotFound},
		{"GET", "/queries/abc", nil, http.StatusBadRequest},
		{"POST", "/queries/999/block", nil, http.StatusNotFound},
		{"POST", "/queries", map[string]string{"sql": ""}, http.StatusBadRequest},
		{"POST", "/queries", map[string]string{"sql": "SELECT FROM WHERE"}, http.StatusBadRequest},
		{"POST", "/queries", map[string]string{"nope": "x"}, http.StatusBadRequest},
		{"POST", "/queries", rawBody(`{"sql":"SELECT SUM(a) FROM t1"}{"junk":1}`), http.StatusBadRequest},
		{"POST", "/queries", rawBody(`{"sql":"SELECT SUM(a) FROM t1","delay":-5}`), http.StatusBadRequest},
		{"POST", "/advance", rawBody(`{"seconds":1} 2`), http.StatusBadRequest},
		{"POST", "/advance", map[string]float64{"seconds": -1}, http.StatusBadRequest},
		{"GET", "/plan/speedup", nil, http.StatusBadRequest},
		{"GET", "/plan/maintenance?deadline=5&mode=bogus", nil, http.StatusBadRequest},
		{"GET", "/nope", nil, http.StatusNotFound},
		{"DELETE", "/queries", nil, http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		var errBody map[string]string
		out := any(&errBody)
		if c.want == http.StatusMethodNotAllowed || c.path == "/nope" {
			out = nil // mux-generated errors are not JSON
		}
		doJSON(t, c.method, ts.URL+c.path, c.body, c.want, out)
	}
}

func TestHTTPClosedManager(t *testing.T) {
	db := engine.Open()
	m := New(db, Config{Sched: sched.Config{RateC: 10, Quantum: 0.5}, TickEvery: -1})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()
	m.Close()
	var errBody map[string]string
	doJSON(t, "GET", ts.URL+"/queries", nil, http.StatusServiceUnavailable, &errBody)
	if errBody["error"] == "" {
		t.Error("no error message in 503 body")
	}
}
