package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mqpi/internal/sched"
)

func newTestServer(t *testing.T, cfg Config, pages int) (*httptest.Server, *Cluster) {
	t.Helper()
	cfg.Service.TickEvery = -1
	if cfg.Service.Sched.RateC == 0 {
		cfg.Service.Sched = sched.Config{RateC: 10, Quantum: 0.5}
	}
	cfg.OpenDB = openWith(t, pages)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ts := httptest.NewServer(NewHandler(c))
	t.Cleanup(ts.Close)
	return ts, c
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

// TestClusterHTTPSession drives the sharded tier over the wire: broadcast
// data loading, routed submissions, the merged /overview, per-query ops by
// global ID, and the per-shard passthrough.
func TestClusterHTTPSession(t *testing.T) {
	ts, _ := newTestServer(t, Config{Shards: 3, Routing: "round-robin"}, 0)

	doJSON(t, "POST", ts.URL+"/exec", map[string]string{"sql": "CREATE TABLE w (a BIGINT)"}, 200, nil)
	var vals []string
	for r := 0; r < 64*6; r++ {
		vals = append(vals, fmt.Sprintf("(%d)", r))
	}
	var execRes struct {
		Rows int `json:"rows"`
	}
	doJSON(t, "POST", ts.URL+"/exec",
		map[string]string{"sql": "INSERT INTO w VALUES " + strings.Join(vals, ",")}, 200, &execRes)
	if execRes.Rows != 64*6 {
		t.Fatalf("rows = %d", execRes.Rows)
	}

	// Six queries spread across three shards.
	ids := make([]int, 6)
	for i := range ids {
		var view struct {
			ID     int    `json:"id"`
			Status string `json:"status"`
		}
		doJSON(t, "POST", ts.URL+"/queries", map[string]any{
			"sql": "SELECT SUM(a) FROM w", "label": fmt.Sprintf("q%d", i), "session": fmt.Sprintf("s%d", i%2),
		}, http.StatusCreated, &view)
		if view.Status != "running" {
			t.Fatalf("q%d = %+v", i, view)
		}
		ids[i] = view.ID
	}

	var ov GlobalOverview
	doJSON(t, "POST", ts.URL+"/advance", map[string]float64{"seconds": 0.5}, 200, &ov)
	if len(ov.Shards) != 3 || len(ov.Running) != 6 {
		t.Fatalf("overview: %d shards, %d running", len(ov.Shards), len(ov.Running))
	}
	doJSON(t, "GET", ts.URL+"/overview", nil, 200, &ov)
	for _, s := range ov.Shards {
		if s.Epoch == 0 || s.Now != 0.5 {
			t.Errorf("shard view %+v", s)
		}
	}

	// Per-query ops by global ID.
	doJSON(t, "GET", fmt.Sprintf("%s/queries/%d", ts.URL, ids[3]), nil, 200, nil)
	doJSON(t, "POST", fmt.Sprintf("%s/queries/%d/block", ts.URL, ids[3]), nil, 200, nil)
	doJSON(t, "POST", fmt.Sprintf("%s/queries/%d/priority", ts.URL, ids[3]), map[string]int{"priority": 2}, 200, nil)
	doJSON(t, "POST", fmt.Sprintf("%s/queries/%d/unblock", ts.URL, ids[3]), nil, 200, nil)
	doJSON(t, "POST", fmt.Sprintf("%s/queries/%d/abort", ts.URL, ids[5]), nil, 200, nil)

	var evs struct {
		Events []struct {
			QueryID int    `json:"query"`
			Type    string `json:"type"`
		} `json:"events"`
	}
	doJSON(t, "GET", fmt.Sprintf("%s/events?id=%d", ts.URL, ids[3]), nil, 200, &evs)
	if len(evs.Events) == 0 || evs.Events[0].QueryID != ids[3] {
		t.Fatalf("events = %+v", evs.Events)
	}

	// Shard passthrough: shard 1's own service API with local IDs.
	resp, err := http.Get(ts.URL + "/shards/1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "mqpi_queries_submitted_total") {
		t.Fatalf("shard passthrough: %d %s", resp.StatusCode, body)
	}
	doJSON(t, "GET", ts.URL+"/shards/0/queries", nil, 200, nil)

	// Drain everything; the merged view must conserve all six queries.
	doJSON(t, "POST", ts.URL+"/advance", map[string]float64{"seconds": 60}, 200, &ov)
	if got := len(ov.Running) + len(ov.Queued) + len(ov.Finished); got != 6 {
		t.Fatalf("conservation: %d queries visible, want 6", got)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `mqpi_cluster_routed_total{shard="2"} 2`) {
		t.Errorf("cluster metrics:\n%s", body)
	}
}

// TestClusterHTTP429 pins the admission front door's wire behaviour: reject
// mode answers 429 with a JSON error, queue mode schedules instead.
func TestClusterHTTP429(t *testing.T) {
	ts, _ := newTestServer(t, Config{Shards: 1, AdmitRate: 1, AdmitBurst: 1}, 2)
	doJSON(t, "POST", ts.URL+"/queries", map[string]string{"sql": "SELECT SUM(a) FROM t1"}, http.StatusCreated, nil)
	var errBody map[string]string
	doJSON(t, "POST", ts.URL+"/queries", map[string]string{"sql": "SELECT SUM(a) FROM t1"}, http.StatusTooManyRequests, &errBody)
	if !strings.Contains(errBody["error"], "admission") {
		t.Fatalf("429 body = %v", errBody)
	}
}

func TestClusterHTTPErrors(t *testing.T) {
	ts, _ := newTestServer(t, Config{Shards: 2}, 1)
	cases := []struct {
		method, path string
		body         any
		want         int
	}{
		{"GET", "/queries/999", nil, http.StatusNotFound},
		{"GET", "/queries/abc", nil, http.StatusBadRequest},
		{"GET", "/queries/-3", nil, http.StatusBadRequest},
		{"POST", "/queries", map[string]string{"sql": ""}, http.StatusBadRequest},
		{"POST", "/queries", map[string]string{"nope": "x"}, http.StatusBadRequest},
		{"POST", "/queries", rawBody(`{"sql":"SELECT SUM(a) FROM t1"}{"junk":1}`), http.StatusBadRequest},
		{"POST", "/queries", rawBody(`{"sql":"SELECT SUM(a) FROM t1","delay":-5}`), http.StatusBadRequest},
		{"POST", "/advance", rawBody(`{"seconds":1} 2`), http.StatusBadRequest},
		{"POST", "/queries/999/block", nil, http.StatusNotFound},
		{"POST", "/advance", map[string]float64{"seconds": -1}, http.StatusBadRequest},
		{"GET", "/events", nil, http.StatusBadRequest}, // 2 shards: id required
		{"GET", "/events?id=abc", nil, http.StatusBadRequest},
		{"GET", "/events?id=-2", nil, http.StatusBadRequest},
	}
	for _, c := range cases {
		var errBody map[string]string
		doJSON(t, c.method, ts.URL+c.path, c.body, c.want, &errBody)
		if errBody["error"] == "" {
			t.Errorf("%s %s: no error message", c.method, c.path)
		}
	}
	// An unknown (but well-formed) id mirrors the single-shard service: an
	// empty trace, not an error.
	var evs struct {
		Events []struct{} `json:"events"`
	}
	doJSON(t, "GET", ts.URL+"/events?id=999", nil, http.StatusOK, &evs)
	if len(evs.Events) != 0 {
		t.Errorf("unknown id returned %d events", len(evs.Events))
	}
}

// TestShardPassthroughIsReadOnly: /shards/{i}/ is a drill-down, not a second
// way in. A write through it would reach one replica only (the replicas
// diverge) or place a query behind the router's and the token bucket's back,
// so a non-GET method answers 405 and changes nothing.
func TestShardPassthroughIsReadOnly(t *testing.T) {
	ts, _ := newTestServer(t, Config{Shards: 2}, 0)
	doJSON(t, "POST", ts.URL+"/exec", map[string]string{"sql": "CREATE TABLE w (a BIGINT)"}, 200, nil)

	doJSON(t, "POST", ts.URL+"/shards/1/exec", map[string]string{"sql": "INSERT INTO w VALUES (1)"}, http.StatusMethodNotAllowed, nil)
	doJSON(t, "POST", ts.URL+"/shards/1/queries", map[string]string{"sql": "SELECT SUM(a) FROM w"}, http.StatusMethodNotAllowed, nil)

	var views [2]json.RawMessage
	for i := range views {
		doJSON(t, "GET", fmt.Sprintf("%s/shards/%d/queries", ts.URL, i), nil, 200, &views[i])
	}
	if !bytes.Equal(views[0], views[1]) {
		t.Errorf("shard overviews diverged:\n%s\n%s", views[0], views[1])
	}
}
