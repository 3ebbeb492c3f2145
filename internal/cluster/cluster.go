// Package cluster is the sharded serving tier: N independent engine+scheduler
// shards — each a service.Manager with its own replicated dataset — behind a
// front-door router with pluggable placement policies and token-bucket
// admission control. Every shard keeps satisfying the paper's §2.2 stage
// model locally; the cluster merges the shards' lock-free epoch snapshots
// into one global progress view without ever blocking on an owner goroutine.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"mqpi/internal/engine"
	"mqpi/internal/sched"
	"mqpi/internal/service"
)

// ErrAdmission is returned when the token bucket rejects a submission (the
// HTTP layer maps it to 429 Too Many Requests).
var ErrAdmission = errors.New("cluster: admission rejected")

// Config assembles a cluster. The zero value is a single unthrottled
// round-robin shard — exactly the plain service.
type Config struct {
	// Shards is the number of independent engine+scheduler shards (default 1).
	Shards int
	// Routing selects the placement policy: "round-robin" (default),
	// "least-loaded", or "affinity".
	Routing string
	// AdmitRate is the token-bucket refill rate in admissions per virtual
	// second. Zero disables admission control entirely.
	AdmitRate float64
	// AdmitBurst is the bucket capacity (default: max(AdmitRate, 1)).
	AdmitBurst float64
	// AdmitQueue, when true, converts an empty bucket into a scheduled
	// arrival (the query is admitted with a delay equal to the token wait)
	// instead of rejecting with ErrAdmission.
	AdmitQueue bool
	// Service configures every shard's manager identically.
	Service service.Config
	// OpenDB builds one engine per shard (default engine.Open). The shards
	// are replicas: Exec broadcasts DDL/DML to all of them.
	OpenDB func() *engine.DB
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Routing == "" {
		c.Routing = "round-robin"
	}
	if c.AdmitRate > 0 && c.AdmitBurst <= 0 {
		c.AdmitBurst = c.AdmitRate
		if c.AdmitBurst < 1 {
			c.AdmitBurst = 1
		}
	}
	if c.OpenDB == nil {
		c.OpenDB = engine.Open
	}
	return c
}

// Cluster is the serving tier's front door. All mutating calls route or
// broadcast to the shards; all reads merge the shards' published snapshots.
type Cluster struct {
	cfg     Config
	shards  []*service.Manager
	router  router
	bucket  *tokenBucket
	metrics *Metrics

	// live admission runs on the wall clock scaled to virtual seconds;
	// manual mode (TickEvery < 0) feeds the bucket through Advance instead.
	live      bool
	timeScale float64
	clockMu   sync.Mutex
	lastWall  time.Time

	closeOnce sync.Once
}

// New builds and starts the cluster. Routing must name a known policy.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	return start(cfg, func() (*engine.DB, error) { return cfg.OpenDB(), nil })
}

// Serve starts the serving tier cfg describes and returns it with the HTTP
// handler in front of it. This is the one place the front door is chosen
// over the plain service: more than one shard, or admission control, gets
// NewHandler; a single unthrottled shard is served by its own
// service.NewHandler, with nothing of the cluster on the request path.
// open builds one engine per shard (in place of cfg.OpenDB, which cannot
// fail); its first error stops the start-up.
func Serve(cfg Config, open func() (*engine.DB, error)) (*Cluster, http.Handler, error) {
	c, err := start(cfg.withDefaults(), open)
	if err != nil {
		return nil, nil, err
	}
	if c.FrontDoor() {
		return c, NewHandler(c), nil
	}
	return c, service.NewHandler(c.shards[0]), nil
}

// FrontDoor reports whether Serve answers for this tier with the front door
// (NewHandler) rather than with its only shard's plain service API.
func (c *Cluster) FrontDoor() bool { return len(c.shards) > 1 || c.bucket != nil }

func start(cfg Config, open func() (*engine.DB, error)) (*Cluster, error) {
	r, err := newRouter(cfg.Routing)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:       cfg,
		router:    r,
		metrics:   newClusterMetrics(cfg.Shards),
		live:      cfg.Service.TickEvery >= 0,
		timeScale: cfg.Service.TimeScale,
		lastWall:  time.Now(),
	}
	if c.timeScale <= 0 {
		c.timeScale = 1
	}
	if cfg.AdmitRate > 0 {
		c.bucket = newTokenBucket(cfg.AdmitRate, cfg.AdmitBurst)
	}
	for i := 0; i < cfg.Shards; i++ {
		db, err := open()
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: open shard %d: %w", i, err)
		}
		c.shards = append(c.shards, service.New(db, cfg.Service))
	}
	return c, nil
}

// Shards reports the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard exposes one shard's manager (read-only passthroughs and tests).
func (c *Cluster) Shard(i int) *service.Manager { return c.shards[i] }

// gid maps a shard-local query ID to the cluster-global one. The mapping is
// a stateless bijection — gid mod Shards recovers the shard — so the router
// needs no ID table and the decode below never misses.
func (c *Cluster) gid(shard, local int) int {
	return (local-1)*len(c.shards) + shard + 1
}

// locate inverts gid. Global IDs start at 1, like shard-local ones.
func (c *Cluster) locate(gid int) (shard, local int, err error) {
	if gid <= 0 {
		return 0, 0, fmt.Errorf("cluster: invalid query id %d", gid)
	}
	return (gid - 1) % len(c.shards), (gid-1)/len(c.shards) + 1, nil
}

// SubmitRequest adds the routing inputs to the service-level request.
type SubmitRequest struct {
	service.SubmitRequest
	// Session is the affinity key: requests sharing a session land on the
	// same shard under the affinity policy (falls back to Label, then SQL).
	Session string `json:"session,omitempty"`
}

func (r SubmitRequest) affinityKey() string {
	switch {
	case r.Session != "":
		return r.Session
	case r.Label != "":
		return r.Label
	default:
		return r.SQL
	}
}

// Submit runs the front door: admission first (cheapest rejection), then
// placement, then the shard-local submit. The returned view carries the
// cluster-global query ID.
func (c *Cluster) Submit(req SubmitRequest) (service.QueryView, error) {
	if c.bucket != nil {
		// The shard refuses a negative or non-finite delay, but only after
		// admission: refuse it here, before it takes a token or cancels part
		// of the wait queue mode adds below.
		if !(req.Delay >= 0) || math.IsInf(req.Delay, 1) {
			return service.QueryView{}, fmt.Errorf("cluster: delay of %g seconds out of range", req.Delay)
		}
		c.tickLiveClock()
		delay, ok := c.bucket.reserve(c.cfg.AdmitQueue)
		if !ok {
			c.metrics.incRejected()
			return service.QueryView{}, fmt.Errorf("%w: token bucket empty (rate %g/s)", ErrAdmission, c.cfg.AdmitRate)
		}
		if delay > 0 {
			// Queue-on-full: ride the shard's arrival calendar so the wait
			// costs no goroutine and stays deterministic in virtual time.
			req.Delay += delay
			c.metrics.observeAdmitDelay(delay)
		}
	}
	shard := c.router.pick(c, req)
	view, err := c.shards[shard].Submit(req.SubmitRequest)
	if err != nil {
		if c.bucket != nil {
			// A refused query was never admitted: it must not use up a token.
			c.bucket.refund()
		}
		return view, err
	}
	c.metrics.incRouted(shard)
	view.ID = c.gid(shard, view.ID)
	return view, nil
}

// tickLiveClock feeds wall time (scaled to virtual seconds) into the bucket
// when the shards run their own wall-clock tickers. Manual-clock clusters
// (TickEvery < 0) refill only through Advance.
func (c *Cluster) tickLiveClock() {
	if !c.live {
		return
	}
	c.clockMu.Lock()
	now := time.Now()
	dt := now.Sub(c.lastWall).Seconds() * c.timeScale
	c.lastWall = now
	c.clockMu.Unlock()
	if dt > 0 {
		c.bucket.advance(dt)
	}
}

// Progress returns one query's view by global ID.
func (c *Cluster) Progress(gid int) (service.QueryView, error) {
	shard, local, err := c.locate(gid)
	if err != nil {
		return service.QueryView{}, err
	}
	view, err := c.shards[shard].Progress(local)
	if err != nil {
		return view, err
	}
	view.ID = gid
	return view, nil
}

func (c *Cluster) onShard(gid int, f func(m *service.Manager, local int) error) error {
	shard, local, err := c.locate(gid)
	if err != nil {
		return err
	}
	err = f(c.shards[shard], local)
	// The shard names the query by its own id; the client sent gid.
	var se *sched.StateError
	if errors.As(err, &se) {
		return &sched.StateError{ID: gid, Problem: se.Problem}
	}
	return err
}

// Block suspends a query by global ID (§3.1 victim operation).
func (c *Cluster) Block(gid int) error {
	return c.onShard(gid, func(m *service.Manager, id int) error { return m.Block(id) })
}

// Unblock resumes a blocked query by global ID.
func (c *Cluster) Unblock(gid int) error {
	return c.onShard(gid, func(m *service.Manager, id int) error { return m.Unblock(id) })
}

// Abort kills a query by global ID.
func (c *Cluster) Abort(gid int) error {
	return c.onShard(gid, func(m *service.Manager, id int) error { return m.Abort(id) })
}

// SetPriority reweights a query by global ID.
func (c *Cluster) SetPriority(gid int, p int) error {
	return c.onShard(gid, func(m *service.Manager, id int) error { return m.SetPriority(id, p) })
}

// Events returns a query's lifecycle trace by global ID (0 = all events of
// shard 0, matching the single-shard service's "everything" behaviour only
// when the cluster is degenerate; callers should pass a real ID).
func (c *Cluster) Events(gid int) ([]service.Event, error) {
	if gid == 0 {
		if len(c.shards) == 1 {
			return c.shards[0].Events(0), nil
		}
		return nil, errors.New("cluster: events need an explicit query id")
	}
	shard, local, err := c.locate(gid)
	if err != nil {
		return nil, err
	}
	evs := c.shards[shard].Events(local) // the caller's own copy
	for i := range evs {
		evs[i].QueryID = gid
	}
	return evs, nil
}

// Exec broadcasts DDL/DML to every shard serially — the shards are replicas
// and must stay byte-identical. It returns the first shard's row count; a
// mid-broadcast error leaves later shards untouched and is reported with the
// failing shard's index.
func (c *Cluster) Exec(sql string) (int, error) {
	rows := 0
	for i, m := range c.shards {
		n, err := m.Exec(sql)
		if err != nil {
			return 0, fmt.Errorf("cluster: exec on shard %d: %w", i, err)
		}
		if i == 0 {
			rows = n
		}
	}
	c.metrics.incExecBroadcast()
	return rows, nil
}

// Advance pushes virtual time forward on every shard, serially in shard
// order so each shard's trace is independent of the others' work. The
// admission bucket refills in the same virtual seconds.
func (c *Cluster) Advance(vsec float64) error {
	if c.bucket != nil && !c.live {
		c.bucket.advance(vsec)
	}
	for i, m := range c.shards {
		if err := m.Advance(vsec); err != nil {
			return fmt.Errorf("cluster: advance shard %d: %w", i, err)
		}
	}
	return nil
}

// Close shuts every shard down.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		for _, m := range c.shards {
			m.Close()
		}
	})
}

// ShardOverview is one shard's contribution to the global view: its epoch is
// exposed so operators can see how fresh each shard's snapshot is.
type ShardOverview struct {
	Shard        int             `json:"shard"`
	Epoch        uint64          `json:"epoch"`
	Now          float64         `json:"now"`
	Running      int             `json:"running"`
	Queued       int             `json:"queued"`
	Scheduled    int             `json:"scheduled"`
	Finished     int             `json:"finished"`
	RemainingU   float64         `json:"remaining_u"`
	QuiescentETA service.Seconds `json:"quiescent_eta"`
}

// GlobalOverview merges the shards' snapshots: per-shard summaries plus the
// union of query views with cluster-global IDs, each section sorted by ID.
type GlobalOverview struct {
	Shards    []ShardOverview     `json:"shards"`
	Routing   string              `json:"routing"`
	AdmitRate float64             `json:"admit_rate"`
	Estimator string              `json:"estimator"` // estimate-plane mode, identical on every shard
	Running   []service.QueryView `json:"running"`
	Queued    []service.QueryView `json:"queued"`
	Scheduled []service.QueryView `json:"scheduled"`
	Finished  []service.QueryView `json:"finished"`
}

// Overview builds the merged global view. Each shard contributes its latest
// published snapshot via the service's lock-free read path, so the merge
// never waits on any shard's owner goroutine — it is pure reads plus sorts.
func (c *Cluster) Overview() (GlobalOverview, error) {
	out := GlobalOverview{Routing: c.cfg.Routing, AdmitRate: c.cfg.AdmitRate}
	for i, m := range c.shards {
		ov, err := m.Overview()
		if err != nil {
			return out, fmt.Errorf("cluster: overview shard %d: %w", i, err)
		}
		out.Estimator = ov.Estimator
		out.Shards = append(out.Shards, ShardOverview{
			Shard: i, Epoch: ov.Epoch, Now: ov.Now,
			Running: len(ov.Running), Queued: len(ov.Queued),
			Scheduled: len(ov.Scheduled), Finished: len(ov.Finished),
			RemainingU:   remainingU(ov),
			QuiescentETA: ov.QuiescentETA,
		})
		out.Running = append(out.Running, c.reID(i, ov.Running)...)
		out.Queued = append(out.Queued, c.reID(i, ov.Queued)...)
		out.Scheduled = append(out.Scheduled, c.reID(i, ov.Scheduled)...)
		out.Finished = append(out.Finished, c.reID(i, ov.Finished)...)
	}
	for _, s := range [][]service.QueryView{out.Running, out.Queued, out.Scheduled, out.Finished} {
		sort.Slice(s, func(a, b int) bool { return s[a].ID < s[b].ID })
	}
	return out, nil
}

// remainingU is the shard's owed work as sched.Snapshot.LoadStats sums it
// (running, then queued, then scheduled, so the float comes out bit-identical
// to Load().RemainingU on the same epoch), taken from the overview the rest
// of the shard's row comes from rather than from a second snapshot load.
func remainingU(ov service.Overview) float64 {
	sum := 0.0
	for _, sec := range [][]service.QueryView{ov.Running, ov.Queued, ov.Scheduled} {
		for _, v := range sec {
			sum += v.Remaining
		}
	}
	return sum
}

func (c *Cluster) reID(shard int, views []service.QueryView) []service.QueryView {
	out := make([]service.QueryView, len(views))
	for i, v := range views {
		v.ID = c.gid(shard, v.ID)
		out[i] = v
	}
	return out
}

// Loads returns every shard's live load probe (router telemetry and tests).
func (c *Cluster) Loads() []service.Load {
	out := make([]service.Load, len(c.shards))
	for i, m := range c.shards {
		out[i] = m.Load()
	}
	return out
}

// Metrics exposes the cluster-level counters.
func (c *Cluster) Metrics() *Metrics { return c.metrics }
