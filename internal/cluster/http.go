package cluster

import (
	"errors"
	"net/http"
	"strconv"

	"mqpi/internal/service"
)

// NewHandler exposes the cluster as an HTTP/JSON API: the service's shared
// route table (service.Routes) answered with cluster-global query IDs, plus
// the front door's own deltas:
//
//	POST /queries         also takes "session", the affinity key;
//	                      429 when the token bucket rejects
//	GET  /queries         the merged global overview with per-shard epochs
//	GET  /overview        the same body under its own name
//	GET  /events?id=      by global ID; the id is required past one shard
//	GET  /metrics         the cluster-level counters
//	POST /exec            broadcast to every shard
//	POST /advance         pushes every shard's clock
//	GET  /shards/{i}/...  read-only passthrough to shard i's service API
func NewHandler(c *Cluster) http.Handler {
	tier := service.Tier{
		NewSubmit: func() (any, *string, func() (service.QueryView, error)) {
			req := new(SubmitRequest)
			return req, &req.SQL, func() (service.QueryView, error) { return c.Submit(*req) }
		},
		Overview:    func() (any, error) { return c.Overview() },
		Progress:    c.Progress,
		Block:       c.Block,
		Unblock:     c.Unblock,
		Abort:       c.Abort,
		SetPriority: c.SetPriority,
		Events:      c.Events,
		MetricsText: func() string { return c.Metrics().Text() },
		Exec:        c.Exec,
		Advance:     c.Advance,
		StatusOf:    statusOf,
	}
	mux := service.Routes(tier)
	mux.HandleFunc("GET /overview", tier.ServeOverview)

	// Each shard's single-engine API stays readable for drill-down, with
	// shard-local query IDs: /shards/2/metrics is shard 2's Prometheus page,
	// /shards/2/diagram its stage diagram. GET only — a write through here
	// would skip admission, routing and the replica broadcast.
	for i, m := range c.shards {
		prefix := "/shards/" + strconv.Itoa(i)
		mux.Handle("GET "+prefix+"/", http.StripPrefix(prefix, service.NewHandler(m)))
	}
	return mux
}

// statusOf extends the service's error mapping with the front door's own
// case: an admission rejection is 429 (retry after the bucket refills).
func statusOf(err error) int {
	if errors.Is(err, ErrAdmission) {
		return http.StatusTooManyRequests
	}
	return service.StatusOf(err)
}
