package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestServeDemoSession stands up the full binary wiring (demo dataset, live
// ticker) behind httptest and replays the README session: submit the paper's
// three queries, watch progress and multi-query estimates move in real time,
// and scrape /metrics.
func TestServeDemoSession(t *testing.T) {
	o, err := parseFlags([]string{
		"-demo", "-rows", "15000", "-rate", "50",
		"-timescale", "200", "-tick", "2ms", "-quantum", "0.25",
	})
	if err != nil {
		t.Fatal(err)
	}
	m, handler, err := buildServer(o)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ts := httptest.NewServer(handler)
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	if code, body := get("/healthz"); code != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", code, body)
	}

	// Submit Q1..Q3 over part_1..part_3.
	ids := make([]int, 0, 3)
	for i := 1; i <= 3; i++ {
		sql := fmt.Sprintf(
			"select * from part_%d p where p.retailprice*0.75 > "+
				"(select sum(l.extendedprice)/sum(l.quantity) from lineitem l where l.partkey = p.partkey)", i)
		payload, _ := json.Marshal(map[string]any{"sql": sql, "label": fmt.Sprintf("Q%d", i)})
		resp, err := http.Post(ts.URL+"/queries", "application/json", strings.NewReader(string(payload)))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit Q%d: %d %s", i, resp.StatusCode, b)
		}
		var v struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}

	// The wall ticker must move virtual time and work on its own.
	type overview struct {
		Now      float64           `json:"now"`
		Running  []json.RawMessage `json:"running"`
		Finished []json.RawMessage `json:"finished"`
	}
	deadline := time.Now().Add(15 * time.Second)
	var ov overview
	for {
		_, b := get("/queries")
		if err := json.Unmarshal(b, &ov); err != nil {
			t.Fatalf("overview: %v in %s", err, b)
		}
		if len(ov.Finished) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queries did not finish; overview: %s", b)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ov.Now <= 0 {
		t.Errorf("virtual clock did not advance: now=%g", ov.Now)
	}

	// Every query must report fraction 1 and a finish time.
	for _, id := range ids {
		_, b := get(fmt.Sprintf("/queries/%d", id))
		var v struct {
			Status   string  `json:"status"`
			Fraction float64 `json:"fraction"`
		}
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status != "finished" || v.Fraction != 1 {
			t.Errorf("query %d: %s", id, b)
		}
	}

	code, b := get("/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"mqpi_queries_submitted_total 3",
		"mqpi_queries_finished_total 3",
		"# TYPE mqpi_tick_duration_seconds histogram",
		// Read-path observability must be wired through the binary: the
		// snapshot gauges only render when the Manager connects them, and
		// the polls above must flow through the epoch cache + histogram.
		"# TYPE mqpi_snapshot_epoch gauge",
		"mqpi_snapshot_age_seconds ",
		"# TYPE mqpi_poll_duration_seconds histogram",
		"mqpi_poll_estimate_cache_",
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestParseFlagsRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-rate", "0"},
		{"-quantum", "-1"},
		{"-timescale", "0"},
		{"-tick", "0s"},
		{"-shards", "0"},
		{"-routing", "random"},
		{"-admit-rate", "-1"},
		{"-admit-burst", "-2"},
		// The bucket exists only with a positive rate: its other two flags
		// would be silently ignored without one.
		{"-admit-burst", "5"},
		{"-admit-queue"},
		{"-admit-rate", "0", "-admit-queue", "-admit-burst", "2"},
		{"-estimator", "oracle"},
		{"-estimator", "ensemble"},
		{"-estimator", "cost"},
		{"-estimator", "speed"},
		{"-mpl", "-3"},
		{"-events", "0"},
		{"-events", "-1"},
		{"-workers", "0"},
		{"-workers", "-2"},
		{"-exec-deadline", "-1s"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
}

// TestParseFlagsAdmitFlagsWithRate: -admit-burst and -admit-queue are taken
// once -admit-rate turns the bucket on.
func TestParseFlagsAdmitFlagsWithRate(t *testing.T) {
	o, err := parseFlags([]string{"-admit-rate", "2", "-admit-burst", "5", "-admit-queue"})
	if err != nil {
		t.Fatal(err)
	}
	if o.admitRate != 2 || o.admitBurst != 5 || !o.admitQueue {
		t.Errorf("parsed %+v", o)
	}
}

// TestServeEnsembleSession stands up the binary with -estimator calibrated
// and checks the uncertainty plane end to end over HTTP: interval fields in
// /progress, the mode in /overview, and the band counters and build-info
// gauge in /metrics.
func TestServeEnsembleSession(t *testing.T) {
	o, err := parseFlags([]string{
		"-demo", "-rows", "15000", "-rate", "50",
		"-timescale", "200", "-tick", "2ms", "-quantum", "0.25",
		"-estimator", "calibrated",
	})
	if err != nil {
		t.Fatal(err)
	}
	m, handler, err := buildServer(o)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ts := httptest.NewServer(handler)
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	ids := make([]int, 0, 3)
	for i := 1; i <= 3; i++ {
		sql := fmt.Sprintf(
			"select * from part_%d p where p.retailprice*0.75 > "+
				"(select sum(l.extendedprice)/sum(l.quantity) from lineitem l where l.partkey = p.partkey)", i)
		payload, _ := json.Marshal(map[string]any{"sql": sql, "label": fmt.Sprintf("Q%d", i)})
		resp, err := http.Post(ts.URL+"/queries", "application/json", strings.NewReader(string(payload)))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit Q%d: %d %s", i, resp.StatusCode, b)
		}
		var v struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}

	// While running, a query's view must carry a real band around the point.
	type view struct {
		Status  string   `json:"status"`
		Multi   *float64 `json:"multi_query_eta"`
		ETALow  *float64 `json:"eta_low"`
		ETAHigh *float64 `json:"eta_high"`
	}
	sawBand := false
	deadline := time.Now().Add(15 * time.Second)
	for !sawBand {
		if time.Now().After(deadline) {
			t.Fatal("never observed a running query with a band")
		}
		for _, id := range ids {
			_, b := get(fmt.Sprintf("/queries/%d", id))
			var v view
			if err := json.Unmarshal(b, &v); err != nil {
				t.Fatalf("progress: %v in %s", err, b)
			}
			if v.Status != "running" || v.Multi == nil || v.ETALow == nil || v.ETAHigh == nil {
				continue
			}
			if !(*v.ETALow <= *v.Multi && *v.Multi <= *v.ETAHigh) {
				t.Fatalf("band [%g,%g] misses point %g: %s", *v.ETALow, *v.ETAHigh, *v.Multi, b)
			}
			if *v.ETAHigh > *v.ETALow {
				sawBand = true
			}
		}
		time.Sleep(2 * time.Millisecond)
	}

	_, b := get("/queries")
	var ov struct {
		Estimator string            `json:"estimator"`
		Finished  []json.RawMessage `json:"finished"`
	}
	if err := json.Unmarshal(b, &ov); err != nil {
		t.Fatal(err)
	}
	if ov.Estimator != "calibrated" {
		t.Fatalf("overview estimator=%q", ov.Estimator)
	}

	for {
		_, b := get("/queries")
		if err := json.Unmarshal(b, &ov); err != nil {
			t.Fatal(err)
		}
		if len(ov.Finished) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queries did not finish; overview: %s", b)
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, b := get("/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"mqpi_eta_band_finishes_total 3",
		`mqpi_build_info{estimator="calibrated",go_version=`,
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("metrics missing %q in:\n%s", want, b)
		}
	}
}

// TestServeClusterSession stands up the sharded wiring (-shards/-routing/
// -admit-rate) and drives the front door: routed submissions, the merged
// /overview with per-shard epochs, and a 429 once the burst is spent.
func TestServeClusterSession(t *testing.T) {
	o, err := parseFlags([]string{
		"-demo", "-rows", "15000", "-rate", "50",
		"-timescale", "200", "-tick", "2ms", "-quantum", "0.25",
		// The refill rate is sub-microscopic on purpose: at -timescale 200
		// the live bucket refills rate*200 tokens per wall second, and the
		// 429 assertion below must not race a refill.
		"-shards", "2", "-routing", "least-loaded", "-admit-rate", "1e-9", "-admit-burst", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	m, handler, err := buildServer(o)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ts := httptest.NewServer(handler)
	defer ts.Close()

	ids := make([]int, 0, 3)
	for i := 1; i <= 3; i++ {
		sql := fmt.Sprintf(
			"select * from part_%d p where p.retailprice*0.75 > "+
				"(select sum(l.extendedprice)/sum(l.quantity) from lineitem l where l.partkey = p.partkey)", i)
		payload, _ := json.Marshal(map[string]any{"sql": sql, "label": fmt.Sprintf("Q%d", i), "session": "demo"})
		resp, err := http.Post(ts.URL+"/queries", "application/json", strings.NewReader(string(payload)))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit Q%d: %d %s", i, resp.StatusCode, b)
		}
		var v struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}

	// The burst is 3: a fourth submission must bounce with 429.
	resp, err := http.Post(ts.URL+"/queries", "application/json",
		strings.NewReader(`{"sql":"select count(*) from part_1"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst+1 submit: %d %s", resp.StatusCode, b)
	}

	type overview struct {
		Shards []struct {
			Epoch uint64  `json:"epoch"`
			Now   float64 `json:"now"`
		} `json:"shards"`
		Finished []json.RawMessage `json:"finished"`
	}
	deadline := time.Now().Add(15 * time.Second)
	var ov overview
	for {
		resp, err := http.Get(ts.URL + "/overview")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(b, &ov); err != nil {
			t.Fatalf("overview: %v in %s", err, b)
		}
		if len(ov.Finished) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queries did not finish; overview: %s", b)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(ov.Shards) != 2 {
		t.Fatalf("%d shard summaries, want 2", len(ov.Shards))
	}
	for i, s := range ov.Shards {
		if s.Epoch == 0 {
			t.Errorf("shard %d epoch not exposed", i)
		}
	}
	for _, id := range ids {
		resp, err := http.Get(fmt.Sprintf("%s/queries/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var v struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status != "finished" {
			t.Errorf("query %d: %s", id, b)
		}
	}

	// Cluster metrics and shard passthrough.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "mqpi_cluster_routed_total") ||
		!strings.Contains(string(b), "mqpi_cluster_admission_rejected_total 1") {
		t.Errorf("cluster metrics:\n%s", b)
	}
	resp, err = http.Get(ts.URL + "/shards/0/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "mqpi_queries_submitted_total") {
		t.Errorf("shard passthrough metrics:\n%s", b)
	}
}

// TestNewHTTPServerTimeouts pins the slow-client protection limits onto the
// assembled server: a load swarm (or a stalled peer) must never be able to
// hold a handler goroutine past the configured read/write windows.
func TestNewHTTPServerTimeouts(t *testing.T) {
	o, err := parseFlags([]string{"-read-timeout", "7s", "-write-timeout", "9s", "-idle-timeout", "11s"})
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(o, http.NewServeMux())
	if srv.ReadTimeout != 7*time.Second || srv.WriteTimeout != 9*time.Second ||
		srv.IdleTimeout != 11*time.Second || srv.ReadHeaderTimeout == 0 {
		t.Fatalf("timeouts not applied: read=%s write=%s idle=%s header=%s",
			srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout, srv.ReadHeaderTimeout)
	}
	for _, args := range [][]string{
		{"-read-timeout", "0s"},
		{"-write-timeout", "-1s"},
		{"-idle-timeout", "0s"},
		{"-shutdown-grace", "0s"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
}

// drainCloser records when the serving tier was closed so the test can prove
// the drain-then-close ordering.
type drainCloser struct {
	mu     sync.Mutex
	closed time.Time
}

func (c *drainCloser) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = time.Now()
}

func (c *drainCloser) closedAt() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// TestGracefulShutdownDrainsInFlight is the SIGINT/SIGTERM teardown contract:
// a request already in a handler when the signal arrives must complete with
// its full response, the server must then exit cleanly, and the serving tier
// must only be closed after the drain (in-flight work never sees ErrClosed).
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	var handlerDone time.Time
	var doneMu sync.Mutex
	mux := http.NewServeMux()
	started := make(chan struct{})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		time.Sleep(300 * time.Millisecond)
		doneMu.Lock()
		handlerDone = time.Now()
		doneMu.Unlock()
		fmt.Fprint(w, "done")
	})

	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(o, mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closer := &drainCloser{}
	sigc := make(chan os.Signal, 1)
	errc := make(chan error, 1)
	go func() { errc <- serveUntilSignal(srv, ln, closer, sigc, 5*time.Second) }()

	respc := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			respc <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		respc <- fmt.Sprintf("%d %s", resp.StatusCode, b)
	}()

	// Signal only once the request is inside the handler.
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the handler")
	}
	sigc <- syscall.SIGTERM

	if got := <-respc; got != "200 done" {
		t.Fatalf("in-flight request not drained: %q", got)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("serveUntilSignal: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	doneMu.Lock()
	hd := handlerDone
	doneMu.Unlock()
	if ca := closer.closedAt(); ca.IsZero() || ca.Before(hd) {
		t.Fatalf("tier closed before the in-flight handler finished (closed=%v, handler=%v)", ca, hd)
	}
}
