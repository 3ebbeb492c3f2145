package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// maxInFlight is the sandbox's core count: the load is sized for two cores,
// so at most two driver goroutines exist and each sends strictly one request
// at a time. A third request in flight fails the run.
const maxInFlight = 2

// clock lets the open-loop pacing be tested against a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// gate counts requests in flight across every client of one run.
type gate struct {
	cur, peak atomic.Int32
}

func (g *gate) enter() {
	n := g.cur.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (g *gate) leave() { g.cur.Add(-1) }

// respWriter is the minimal http.ResponseWriter; one per client, reused, so
// the driver adds no per-request allocation of its own to the measured path.
type respWriter struct {
	code   int
	header http.Header
	body   bytes.Buffer
}

func (r *respWriter) Header() http.Header         { return r.header }
func (r *respWriter) WriteHeader(code int)        { r.code = code }
func (r *respWriter) Write(b []byte) (int, error) { return r.body.Write(b) }

// client is one driver goroutine's connection to the program: it calls the
// full http.Handler (mux, JSON decode and encode) in process, with no socket,
// one request at a time. It is not safe for concurrent use; each driver
// goroutine owns one.
type client struct {
	h      http.Handler
	clk    clock
	gate   *gate
	origin time.Time // span timestamps count from here
	trace  bool
	spans  []span
	nreq   int32

	// Bookkeeping for the accounting identity: every request sent is accepted
	// (expected status, sound body), refused (another status) or errored (a
	// body the driver cannot use).
	attempted, accepted, refused, errored int
	submits, aborts                       int // accepted ones, to check against the server's counters
	rw                                    respWriter
}

// unusable reclassifies the request just answered from accepted to errored.
func (c *client) unusable() {
	c.accepted--
	c.errored++
}

func newClient(h http.Handler, g *gate, origin time.Time, trace bool) *client {
	return &client{h: h, clk: wallClock{}, gate: g, origin: origin, trace: trace,
		rw: respWriter{header: make(http.Header)}}
}

// call sends one request and returns the status, the response body (valid
// until the next call) and the latency. With a non-zero due instant the
// latency counts from when the request was due, not from when the driver got
// round to sending it: a stall is charged to every request it delayed.
func (c *client) call(kind spanKind, method, path string, body []byte, want int, due time.Time) (int, []byte, time.Duration) {
	req, err := http.NewRequest(method, "http://mqpi.local"+path, bytes.NewReader(body))
	if err != nil {
		panic(err) // the driver builds every path itself
	}
	c.rw.code = http.StatusOK
	c.rw.body.Reset()
	clear(c.rw.header)

	c.gate.enter()
	t0 := c.clk.Now()
	c.h.ServeHTTP(&c.rw, req)
	t1 := c.clk.Now()
	c.gate.leave()

	if due.IsZero() {
		due = t0
	}
	if c.trace {
		root := int32(len(c.spans))
		c.spans = append(c.spans,
			span{Kind: spRequest, Start: int64(due.Sub(c.origin)), End: int64(t1.Sub(c.origin)), Parent: -1, Req: c.nreq},
			span{Kind: kind, Start: int64(t0.Sub(c.origin)), End: int64(t1.Sub(c.origin)), Parent: root, Req: c.nreq})
		c.nreq++
	}
	c.attempted++
	if c.rw.code == want {
		c.accepted++
	} else {
		c.refused++
	}
	return c.rw.code, c.rw.body.Bytes(), t1.Sub(due)
}

// view is the part of a QueryView the driver reads. The ETA is a pointer
// because the service renders a non-finite estimate as null.
type view struct {
	ID         int      `json:"id"`
	Status     string   `json:"status"`
	Now        float64  `json:"now"`
	SubmitTime float64  `json:"submit_time"`
	FinishTime float64  `json:"finish_time"`
	Done       float64  `json:"done_u"`
	Fraction   float64  `json:"fraction"`
	Multi      *float64 `json:"multi_query_eta"`
}

// overview is the part of GET /queries the driver reads.
type overview struct {
	Now      float64 `json:"now"`
	Running  []view  `json:"running"`
	Queued   []view  `json:"queued"`
	Finished []view  `json:"finished"`
}

// doneU is the work completed so far across every query the server knows.
func (o *overview) doneU() float64 {
	sum := 0.0
	for _, l := range [][]view{o.Running, o.Queued, o.Finished} {
		for _, v := range l {
			sum += v.Done
		}
	}
	return sum
}

func submitBody(sqlText, label string) []byte {
	b, _ := json.Marshal(map[string]string{"sql": sqlText, "label": label})
	return b
}

// submit posts one query and returns its view.
func (c *client) submit(sqlText, label string, due time.Time) (view, time.Duration, bool) {
	code, body, d := c.call(spSubmit, http.MethodPost, "/queries", submitBody(sqlText, label), http.StatusCreated, due)
	var v view
	if code != http.StatusCreated {
		return v, d, false
	}
	if err := json.Unmarshal(body, &v); err != nil || v.ID <= 0 {
		c.unusable()
		return v, d, false
	}
	c.submits++
	return v, d, true
}

func queryPath(id int, op string) string {
	return "/queries/" + strconv.Itoa(id) + op
}

// poll reads one query's progress. decode false checks the status code only,
// which keeps a poll flood from measuring the driver's own JSON decoder.
func (c *client) poll(id int, decode bool) (view, time.Duration, bool) {
	code, body, d := c.call(spPoll, http.MethodGet, queryPath(id, ""), nil, http.StatusOK, time.Time{})
	var v view
	if code != http.StatusOK {
		return v, d, false
	}
	if !decode {
		return v, d, true
	}
	if err := json.Unmarshal(body, &v); err != nil || v.ID != id || v.Fraction < 0 || v.Fraction > 1 {
		c.unusable()
		return v, d, false
	}
	return v, d, true
}

func (c *client) overview() (overview, time.Duration, bool) {
	code, body, d := c.call(spOverview, http.MethodGet, "/queries", nil, http.StatusOK, time.Time{})
	var o overview
	if code != http.StatusOK {
		return o, d, false
	}
	if err := json.Unmarshal(body, &o); err != nil {
		c.unusable()
		return o, d, false
	}
	return o, d, true
}

func (c *client) abort(id int, due time.Time) (time.Duration, bool) {
	code, _, d := c.call(spAbort, http.MethodPost, queryPath(id, "/abort"), nil, http.StatusOK, due)
	if code == http.StatusOK {
		c.aborts++
	}
	return d, code == http.StatusOK
}

func (c *client) priority(id, prio int, due time.Time) (time.Duration, bool) {
	body := []byte(fmt.Sprintf(`{"priority":%d}`, prio))
	code, _, d := c.call(spPriority, http.MethodPost, queryPath(id, "/priority"), body, http.StatusOK, due)
	return d, code == http.StatusOK
}

// advance pushes the manual clock. The overview the endpoint answers with is
// not decoded: the replay reads time from its polls.
func (c *client) advance(vsec float64) bool {
	body := []byte(fmt.Sprintf(`{"seconds":%s}`, strconv.FormatFloat(vsec, 'g', -1, 64)))
	code, _, _ := c.call(spAdvance, http.MethodPost, "/advance", body, http.StatusOK, time.Time{})
	return code == http.StatusOK
}

// metricsText scrapes /metrics.
func (c *client) metricsText() string {
	_, body, _ := c.call(spMetrics, http.MethodGet, "/metrics", nil, http.StatusOK, time.Time{})
	return string(body)
}

// openLoop fires fire(i, due) for each arrival offset at[i] (seconds after
// start), never early. When the program stalls, later requests go out late
// but keep their due instants, and how late the generator ran is returned so
// it can be reported next to the latencies. stop ends the loop early.
func openLoop(clk clock, start time.Time, at []float64, stop func() bool, fire func(i int, due time.Time)) (lateness lat) {
	for i, off := range at {
		if stop != nil && stop() {
			break
		}
		due := start.Add(time.Duration(off * float64(time.Second)))
		if d := due.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		lateness.add(clk.Now().Sub(due))
		fire(i, due)
	}
	return lateness
}
