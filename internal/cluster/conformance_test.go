package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"mqpi/internal/sched"
	"mqpi/internal/service"
)

// TestFrontDoorConformance replays one request script against the plain
// service handler and against the front door over a single unthrottled
// shard. The global-ID bijection is the identity at N=1, so every shared
// route must answer with the same status and the same JSON body through
// either door; only the overview's envelope is each tier's own, and there
// the four query lists must still agree.
func TestFrontDoorConformance(t *testing.T) {
	svcCfg := service.Config{Sched: sched.Config{RateC: 10, Quantum: 0.5}, TickEvery: -1}
	m := service.New(openWith(t, 4)(), svcCfg)
	t.Cleanup(m.Close)
	c, err := New(Config{Service: svcCfg, OpenDB: openWith(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	single, front := service.NewHandler(m), NewHandler(c)

	const q = `{"sql":"SELECT SUM(a) FROM t1","label":"q","priority":1}`
	script := []struct {
		method, path, body string
		want               int
		// namesShard marks the two errors the front door reports with the
		// failing shard's index in front of the service's own message.
		namesShard bool
	}{
		{"POST", "/exec", `{"sql":"CREATE TABLE w (a BIGINT)"}`, 200, false},
		{"POST", "/exec", `{"sql":"INSERT INTO w VALUES (1),(2),(3)"}`, 200, false},
		{"POST", "/exec", `{"sql":"INSERT INTO nope VALUES (1)"}`, 400, true},
		{"POST", "/queries", q, 201, false},
		{"POST", "/queries", q, 201, false},
		{"POST", "/queries", `{"sql":"SELECT SUM(a) FROM t1","delay":5}`, 201, false},
		{"GET", "/queries/1", "", 200, false},
		{"POST", "/advance", `{"seconds":0.5}`, 200, false},
		{"GET", "/queries", "", 200, false},
		{"GET", "/queries/2", "", 200, false},
		{"POST", "/queries/2/block", "", 200, false},
		{"GET", "/queries/2", "", 200, false},
		{"POST", "/queries/2/unblock", "", 200, false},
		{"POST", "/queries/2/priority", `{"priority":3}`, 200, false},
		{"POST", "/queries/2/priority", `{"priority":"high"}`, 400, false},
		{"POST", "/queries/1/abort", "", 200, false},
		{"GET", "/queries/1", "", 200, false},
		{"POST", "/queries/1/block", "", 400, false},
		{"GET", "/queries/999", "", 404, false},
		{"POST", "/queries/999/abort", "", 404, false},
		{"GET", "/queries/abc", "", 400, false},
		{"POST", "/queries/0/block", "", 400, false},
		{"POST", "/queries", `{"sql":"  "}`, 400, false},
		{"POST", "/queries", `{"sql":"SELECT FROM WHERE"}`, 400, false},
		{"POST", "/queries", `{"nope":1}`, 400, false},
		{"POST", "/queries", `{"sql":"SELECT SUM(a) FROM t1","delay":-5}`, 400, false},
		{"POST", "/queries", q + `{"junk":1}`, 400, false},
		{"POST", "/queries", ``, 400, false},
		{"POST", "/advance", `{"seconds":-1}`, 400, true},
		{"POST", "/advance", `{"seconds":60}`, 200, false},
		{"GET", "/events?id=2", "", 200, false},
		{"GET", "/events?id=999", "", 200, false},
		{"GET", "/events", "", 200, false},
		{"GET", "/events?id=abc", "", 400, false},
		{"GET", "/events?id=-2", "", 400, false},
		{"GET", "/healthz", "", 200, false},
	}
	for _, step := range script {
		a := serve(single, step.method, step.path, step.body)
		b := serve(front, step.method, step.path, step.body)
		name := step.method + " " + step.path + " " + step.body
		if a.Code != step.want || b.Code != step.want {
			t.Fatalf("%s: single %d, front door %d, want %d\n%s\n%s", name, a.Code, b.Code, step.want, a.Body, b.Body)
		}
		if ct, fd := a.Header().Get("Content-Type"), b.Header().Get("Content-Type"); ct != fd {
			t.Errorf("%s: Content-Type %q vs %q", name, ct, fd)
		}
		got, want := wallStamp.ReplaceAllString(b.Body.String(), ""), wallStamp.ReplaceAllString(a.Body.String(), "")
		switch {
		case step.want == 200 && (step.path == "/queries" || step.path == "/advance"):
			got, want = queryLists(t, got), queryLists(t, want)
		case step.namesShard:
			got = shardPrefix.ReplaceAllString(got, "")
		}
		if got != want {
			t.Errorf("%s: bodies differ\nsingle engine:\n%s\nfront door:\n%s", name, want, got)
		}
	}
}

var (
	wallStamp   = regexp.MustCompile(`"wall": "[^"]*",`) // events carry the wall clock
	shardPrefix = regexp.MustCompile(`cluster: [a-z ]+ shard 0: `)
)

func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// queryLists reduces an overview body, of either shape, to its query lists.
func queryLists(t *testing.T, body string) string {
	t.Helper()
	var lists struct {
		Running   []json.RawMessage `json:"running"`
		Queued    []json.RawMessage `json:"queued"`
		Scheduled []json.RawMessage `json:"scheduled"`
		Finished  []json.RawMessage `json:"finished"`
	}
	if err := json.Unmarshal([]byte(body), &lists); err != nil {
		t.Fatalf("overview body %q: %v", body, err)
	}
	if len(lists.Running)+len(lists.Queued)+len(lists.Scheduled)+len(lists.Finished) == 0 {
		t.Fatalf("overview lists nothing: %s", body)
	}
	out, err := json.Marshal(lists)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
