package load

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	"mqpi/internal/cluster"
	"mqpi/internal/core"
	"mqpi/internal/engine"
	"mqpi/internal/sched"
	"mqpi/internal/service"
	"mqpi/internal/workload"
)

// Target is where the swarm sends its traffic: a base URL plus the client
// used to reach it. NewURLTarget points at a live mqpi-serve process over
// TCP; NewHandlerTarget drives an in-process handler through the full
// HTTP mux/JSON stack without sockets, which is what the CI smoke and the
// committed baseline use so file-descriptor limits never shape the numbers.
type Target struct {
	BaseURL string
	Client  *http.Client
}

// NewURLTarget drives a live endpoint over the network. The transport's idle
// pool is widened so thousands of clients reuse connections instead of
// thrashing the dialer.
func NewURLTarget(url string, clients int) *Target {
	tr := &http.Transport{
		MaxIdleConns:        clients + 64,
		MaxIdleConnsPerHost: clients + 64,
		IdleConnTimeout:     90 * time.Second,
	}
	return &Target{
		BaseURL: strings.TrimRight(url, "/"),
		Client:  &http.Client{Transport: tr, Timeout: 30 * time.Second},
	}
}

// NewHandlerTarget drives an http.Handler in process.
func NewHandlerTarget(h http.Handler) *Target {
	return &Target{BaseURL: "http://mqpi.local", Client: &http.Client{Transport: handlerTransport{h}}}
}

// handlerTransport short-circuits RoundTrip into a direct ServeHTTP call.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := &respRecorder{code: http.StatusOK, header: make(http.Header)}
	t.h.ServeHTTP(rec, req)
	return &http.Response{
		StatusCode: rec.code,
		Status:     http.StatusText(rec.code),
		Header:     rec.header,
		Body:       io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		Request:    req,
		ProtoMajor: 1, ProtoMinor: 1,
		ContentLength: int64(rec.body.Len()),
	}, nil
}

// respRecorder is the minimal ResponseWriter the transport needs (the stdlib
// recorder lives in net/http/httptest, which drags the testing package into
// the mqpi-load binary).
type respRecorder struct {
	code   int
	header http.Header
	body   bytes.Buffer
}

func (r *respRecorder) Header() http.Header         { return r.header }
func (r *respRecorder) WriteHeader(code int)        { r.code = code }
func (r *respRecorder) Write(b []byte) (int, error) { return r.body.Write(b) }

// ServerOpts shapes the in-process server the harness stands up when no
// external -url is given; cluster.Serve turns it into the plain service or
// the cluster front door, as it does for mqpi-serve.
type ServerOpts struct {
	Rows       int           `json:"rows"`
	RateC      float64       `json:"rate_c"`
	MPL        int           `json:"mpl,omitempty"`
	Quantum    float64       `json:"quantum"`
	TimeScale  float64       `json:"time_scale"`
	Tick       time.Duration `json:"tick_ns"`
	Workers    int           `json:"workers"`
	Shards     int           `json:"shards"`
	Routing    string        `json:"routing,omitempty"`
	AdmitRate  float64       `json:"admit_rate,omitempty"`
	AdmitBurst float64       `json:"admit_burst,omitempty"`
	AdmitQueue bool          `json:"admit_queue,omitempty"`
	Fold       bool          `json:"fold,omitempty"`
	Estimator  string        `json:"estimator,omitempty"`
}

func (o ServerOpts) withDefaults() ServerOpts {
	// 15000 is the floor the demo part tables need: part_1's 500 distinct
	// partkeys require lineitem's key range (rows/30) to reach 500.
	if o.Rows <= 0 {
		o.Rows = 15000
	}
	if o.RateC <= 0 {
		o.RateC = 200
	}
	if o.Quantum <= 0 {
		o.Quantum = 0.25
	}
	if o.TimeScale <= 0 {
		o.TimeScale = 400
	}
	if o.Tick <= 0 {
		o.Tick = 2 * time.Millisecond
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Estimator == "" {
		o.Estimator = core.EstimatorStage
	}
	return o
}

// StartLocal stands up the serving tier the swarm will flood and the handler
// in front of it: the demo dataset behind either the single-engine service
// handler or the sharded cluster front door (cluster.Serve decides), with a
// live wall-clock ticker advancing virtual time. The caller closes the tier.
func StartLocal(o ServerOpts) (*cluster.Cluster, http.Handler, error) {
	o = o.withDefaults()
	c, h, err := cluster.Serve(cluster.Config{
		Shards:     o.Shards,
		Routing:    o.Routing,
		AdmitRate:  o.AdmitRate,
		AdmitBurst: o.AdmitBurst,
		AdmitQueue: o.AdmitQueue,
		Service: service.Config{
			Sched:     sched.Config{RateC: o.RateC, MPL: o.MPL, Quantum: o.Quantum, Workers: o.Workers, Fold: o.Fold},
			TickEvery: o.Tick,
			TimeScale: o.TimeScale,
			Estimator: o.Estimator,
		},
	}, func() (*engine.DB, error) { return workload.DemoDB(o.Rows) })
	if err != nil {
		return nil, nil, fmt.Errorf("load: %w", err)
	}
	return c, h, nil
}
