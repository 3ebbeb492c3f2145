package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mqpi/internal/engine"
	"mqpi/internal/engine/types"
	"mqpi/internal/sched"
	"mqpi/internal/service"
)

// openWith returns an OpenDB factory that pre-loads `pages` heap pages (64
// rows each) into table t1 on every shard, so replicas start identical.
func openWith(t testing.TB, pages int) func() *engine.DB {
	t.Helper()
	return func() *engine.DB {
		db := engine.Open()
		if _, err := db.Exec("CREATE TABLE t1 (a BIGINT)"); err != nil {
			t.Fatal(err)
		}
		cat := db.Catalog()
		for i := 0; i < pages*64; i++ {
			if err := cat.Insert("t1", types.Row{types.NewInt(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
}

// manualCluster builds a manual-clock cluster (virtual time only moves
// through Advance) over pre-loaded shards.
func manualCluster(t testing.TB, cfg Config, pages int) *Cluster {
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
	return c
}

func submit(t testing.TB, c *Cluster, label string) service.QueryView {
	t.Helper()
	v, err := c.Submit(SubmitRequest{SubmitRequest: service.SubmitRequest{
		Label: label, SQL: "SELECT SUM(a) FROM t1",
	}})
	if err != nil {
		t.Fatalf("submit %s: %v", label, err)
	}
	return v
}

func TestGIDBijection(t *testing.T) {
	c := manualCluster(t, Config{Shards: 3}, 1)
	seen := map[int]bool{}
	for shard := 0; shard < 3; shard++ {
		for local := 1; local <= 5; local++ {
			g := c.gid(shard, local)
			if g <= 0 || seen[g] {
				t.Fatalf("gid(%d,%d) = %d collides", shard, local, g)
			}
			seen[g] = true
			s2, l2, err := c.locate(g)
			if err != nil || s2 != shard || l2 != local {
				t.Fatalf("locate(%d) = (%d,%d,%v), want (%d,%d)", g, s2, l2, err, shard, local)
			}
		}
	}
	if _, _, err := c.locate(0); err == nil {
		t.Fatal("locate(0) accepted")
	}
	if _, _, err := c.locate(-7); err == nil {
		t.Fatal("locate(-7) accepted")
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	c := manualCluster(t, Config{Shards: 3, Routing: "round-robin"}, 2)
	for i := 0; i < 9; i++ {
		submit(t, c, fmt.Sprintf("q%d", i))
	}
	for i, n := range c.Metrics().RoutedCounts() {
		if n != 3 {
			t.Errorf("shard %d routed %d, want 3", i, n)
		}
	}
}

// TestLeastLoadedBalances pins the live-load probe: after shard 0 absorbs
// work, the next submission must go elsewhere.
func TestLeastLoadedBalances(t *testing.T) {
	c := manualCluster(t, Config{Shards: 2, Routing: "least-loaded"}, 5)
	v0 := submit(t, c, "first") // all empty: tie-break to shard 0
	if s, _, _ := c.locate(v0.ID); s != 0 {
		t.Fatalf("first query on shard %d, want 0", s)
	}
	v1 := submit(t, c, "second") // shard 0 now owes ~6 U
	if s, _, _ := c.locate(v1.ID); s != 1 {
		t.Fatalf("second query on shard %d, want 1", s)
	}
}

// TestLeastLoadedSaturated: with every shard equally saturated the policy
// must still place deterministically (lowest index), not loop or panic.
func TestLeastLoadedSaturated(t *testing.T) {
	c := manualCluster(t, Config{Shards: 3, Routing: "least-loaded"}, 5)
	// Saturate all shards identically via round-robin-by-hand.
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			submit(t, c, fmt.Sprintf("fill-%d-%d", i, j))
		}
	}
	loads := c.Loads()
	for i := 1; i < 3; i++ {
		if math.Abs(loads[i].RemainingU-loads[0].RemainingU) > 1e-9 {
			t.Fatalf("shards unevenly loaded: %+v", loads)
		}
	}
	v := submit(t, c, "tiebreak")
	if s, _, _ := c.locate(v.ID); s != 0 {
		t.Errorf("saturated tie broke to shard %d, want 0", s)
	}
}

// TestSingleShardDegenerate: a 1-shard cluster must behave exactly like the
// plain service — identity gid mapping, every policy valid.
func TestSingleShardDegenerate(t *testing.T) {
	for _, policy := range RoutingPolicies() {
		t.Run(policy, func(t *testing.T) {
			c := manualCluster(t, Config{Shards: 1, Routing: policy}, 2)
			v := submit(t, c, "only")
			if v.ID != 1 {
				t.Fatalf("gid = %d, want 1 (identity on 1 shard)", v.ID)
			}
			if err := c.Advance(60); err != nil {
				t.Fatal(err)
			}
			p, err := c.Progress(v.ID)
			if err != nil || p.Status != "finished" {
				t.Fatalf("progress = %+v, %v", p, err)
			}
			evs, err := c.Events(v.ID)
			if err != nil || len(evs) == 0 {
				t.Fatalf("events = %v, %v", evs, err)
			}
		})
	}
}

// TestAffinityStickyAcrossAborts: the affinity mapping is a pure function of
// the session key — aborting a session's queries must not move it.
func TestAffinityStickyAcrossAborts(t *testing.T) {
	c := manualCluster(t, Config{Shards: 4, Routing: "affinity"}, 2)
	sessions := []string{"alice", "bob", "carol", "dave", "erin"}
	home := map[string]int{}
	var aborted []int
	for _, s := range sessions {
		v, err := c.Submit(SubmitRequest{
			SubmitRequest: service.SubmitRequest{SQL: "SELECT SUM(a) FROM t1"},
			Session:       s,
		})
		if err != nil {
			t.Fatal(err)
		}
		shard, _, _ := c.locate(v.ID)
		home[s] = shard
		aborted = append(aborted, v.ID)
	}
	for _, id := range aborted {
		if err := c.Abort(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sessions {
		v, err := c.Submit(SubmitRequest{
			SubmitRequest: service.SubmitRequest{SQL: "SELECT SUM(a) FROM t1"},
			Session:       s,
		})
		if err != nil {
			t.Fatal(err)
		}
		if shard, _, _ := c.locate(v.ID); shard != home[s] {
			t.Errorf("session %s moved shard %d -> %d after aborts", s, home[s], shard)
		}
	}
}

// TestAffinityKeyFallback: without a session the key falls back to the
// label, then to the SQL text, so template affinity works out of the box.
func TestAffinityKeyFallback(t *testing.T) {
	c := manualCluster(t, Config{Shards: 4, Routing: "affinity"}, 1)
	byLabel1 := submit(t, c, "report-7")
	byLabel2 := submit(t, c, "report-7")
	s1, _, _ := c.locate(byLabel1.ID)
	s2, _, _ := c.locate(byLabel2.ID)
	if s1 != s2 {
		t.Errorf("same label split across shards %d and %d", s1, s2)
	}
	sql1, _ := c.Submit(SubmitRequest{SubmitRequest: service.SubmitRequest{SQL: "SELECT SUM(a) FROM t1"}})
	sql2, _ := c.Submit(SubmitRequest{SubmitRequest: service.SubmitRequest{SQL: "SELECT SUM(a) FROM t1"}})
	s1, _, _ = c.locate(sql1.ID)
	s2, _, _ = c.locate(sql2.ID)
	if s1 != s2 {
		t.Errorf("same SQL split across shards %d and %d", s1, s2)
	}
}

func TestUnknownPolicy(t *testing.T) {
	if _, err := New(Config{Routing: "random"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestExecBroadcast: DDL/DML must reach every replica; a query routed to any
// shard then sees the same data.
func TestExecBroadcast(t *testing.T) {
	c := manualCluster(t, Config{Shards: 3, Routing: "round-robin"}, 0)
	if _, err := c.Exec("CREATE TABLE b (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Exec("INSERT INTO b VALUES (1),(2),(3)"); err != nil || n != 3 {
		t.Fatalf("insert = %d, %v", n, err)
	}
	// One query per shard via round-robin: all must finish with the data.
	var ids []int
	for i := 0; i < 3; i++ {
		v, err := c.Submit(SubmitRequest{SubmitRequest: service.SubmitRequest{SQL: "SELECT SUM(a) FROM b"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	if err := c.Advance(60); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		p, err := c.Progress(id)
		if err != nil || p.Status != "finished" {
			t.Fatalf("query %d = %+v, %v", id, p, err)
		}
	}
	if got := c.Metrics().Text(); got == "" {
		t.Fatal("empty metrics text")
	}
}

// TestOverviewMerge: the global view must union all shards with global IDs,
// expose per-shard epochs, and count conservation: every admitted query
// appears in exactly one shard section.
func TestOverviewMerge(t *testing.T) {
	c := manualCluster(t, Config{Shards: 3, Routing: "round-robin"}, 3)
	var ids []int
	for i := 0; i < 7; i++ {
		ids = append(ids, submit(t, c, fmt.Sprintf("q%d", i)).ID)
	}
	if err := c.Advance(1); err != nil {
		t.Fatal(err)
	}
	ov, err := c.Overview()
	if err != nil {
		t.Fatal(err)
	}
	if len(ov.Shards) != 3 {
		t.Fatalf("%d shard summaries, want 3", len(ov.Shards))
	}
	for i, s := range ov.Shards {
		if s.Shard != i || s.Epoch == 0 {
			t.Errorf("shard summary %d = %+v", i, s)
		}
	}
	seen := map[int]int{}
	for _, v := range ov.Running {
		seen[v.ID]++
	}
	for _, v := range ov.Queued {
		seen[v.ID]++
	}
	for _, v := range ov.Finished {
		seen[v.ID]++
	}
	for _, id := range ids {
		if seen[id] != 1 {
			t.Errorf("query %d appears %d times in global view, want exactly 1", id, seen[id])
		}
	}
	for i := 1; i < len(ov.Running); i++ {
		if ov.Running[i].ID <= ov.Running[i-1].ID {
			t.Errorf("running not sorted by gid: %d after %d", ov.Running[i].ID, ov.Running[i-1].ID)
		}
	}
}

// TestOpsRouteByGID: block/unblock/priority/abort must reach the owning
// shard, and unknown gids must say not-found rather than mis-route.
func TestOpsRouteByGID(t *testing.T) {
	c := manualCluster(t, Config{Shards: 2, Routing: "round-robin"}, 3)
	a, b := submit(t, c, "a"), submit(t, c, "b")
	if err := c.Block(b.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.SetPriority(a.ID, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.Unblock(b.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(a.ID); err != nil {
		t.Fatal(err)
	}
	p, err := c.Progress(a.ID)
	if err != nil || p.Status != "aborted" {
		t.Fatalf("aborted query = %+v, %v", p, err)
	}
	if err := c.Block(999); err == nil {
		t.Fatal("block of unknown gid succeeded")
	}
	if _, err := c.Events(0); err == nil {
		t.Fatal("multi-shard Events(0) should require an explicit id")
	}
}

// TestAdmissionBurstBoundary: a bucket with capacity B admits exactly B
// back-to-back submissions and rejects the B+1st — the boundary is exact,
// not off by one.
func TestAdmissionBurstBoundary(t *testing.T) {
	c := manualCluster(t, Config{Shards: 1, AdmitRate: 1, AdmitBurst: 3}, 2)
	for i := 0; i < 3; i++ {
		if _, err := c.Submit(SubmitRequest{SubmitRequest: service.SubmitRequest{SQL: "SELECT SUM(a) FROM t1"}}); err != nil {
			t.Fatalf("submission %d within burst rejected: %v", i+1, err)
		}
	}
	_, err := c.Submit(SubmitRequest{SubmitRequest: service.SubmitRequest{SQL: "SELECT SUM(a) FROM t1"}})
	if err == nil || c.Metrics().Rejected() != 1 {
		t.Fatalf("burst+1 submission: err=%v rejected=%d", err, c.Metrics().Rejected())
	}
	// One virtual second refills one token.
	if err := c.Advance(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(SubmitRequest{SubmitRequest: service.SubmitRequest{SQL: "SELECT SUM(a) FROM t1"}}); err != nil {
		t.Fatalf("post-refill submission rejected: %v", err)
	}
}

// TestAdmissionQueueMode: with AdmitQueue the B+1st submission is admitted
// as a scheduled arrival whose delay equals the token wait.
func TestAdmissionQueueMode(t *testing.T) {
	c := manualCluster(t, Config{Shards: 1, AdmitRate: 2, AdmitBurst: 1, AdmitQueue: true}, 2)
	v1, err := c.Submit(SubmitRequest{SubmitRequest: service.SubmitRequest{SQL: "SELECT SUM(a) FROM t1"}})
	if err != nil || v1.Status != "running" {
		t.Fatalf("first = %+v, %v", v1, err)
	}
	// Bucket empty: the next borrows half a second (deficit 1 / rate 2).
	v2, err := c.Submit(SubmitRequest{SubmitRequest: service.SubmitRequest{SQL: "SELECT SUM(a) FROM t1"}})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Status != "scheduled" {
		t.Fatalf("borrowed admission = %+v, want scheduled arrival", v2)
	}
	// A negative delay must not cancel the borrowed wait (or take a token).
	if v, err := c.Submit(SubmitRequest{SubmitRequest: service.SubmitRequest{SQL: "SELECT SUM(a) FROM t1", Delay: -5}}); err == nil {
		t.Fatalf("negative delay admitted behind the bucket: %+v", v)
	}
	if err := c.Advance(1); err != nil {
		t.Fatal(err)
	}
	p, err := c.Progress(v2.ID)
	if err != nil || p.Status == "scheduled" {
		t.Fatalf("after refill: %+v, %v", p, err)
	}
}

// TestLeastLoadedFoldAware: when a shard advertises a live fold group on the
// submission's driver table, least-loaded routing co-locates the query there
// even though another shard carries strictly less work. Submissions on other
// tables still fall back to plain least-loaded.
func TestLeastLoadedFoldAware(t *testing.T) {
	cfg := Config{Shards: 2, Routing: "least-loaded"}
	cfg.Service.Sched = sched.Config{RateC: 10, Quantum: 0.5, Fold: true}
	c := manualCluster(t, cfg, 40)
	if _, err := c.Exec("CREATE TABLE t2 (b BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO t2 VALUES (1),(2),(3)"); err != nil {
		t.Fatal(err)
	}

	v0 := submit(t, c, "seed") // all empty: tie-break to shard 0
	if s, _, _ := c.locate(v0.ID); s != 0 {
		t.Fatalf("seed on shard %d, want 0", s)
	}
	// One quantum: the seed attaches to its (so far 1-member) fold group and
	// shard 0's published snapshot starts advertising t1.
	if err := c.Advance(0.5); err != nil {
		t.Fatal(err)
	}
	loads := c.Loads()
	if len(loads[0].FoldTables) != 1 || loads[0].FoldTables[0] != "t1" {
		t.Fatalf("shard 0 fold tables = %v, want [t1]", loads[0].FoldTables)
	}
	if loads[0].RemainingU <= loads[1].RemainingU {
		t.Fatalf("precondition broken: shard 0 (%.2f U) not more loaded than shard 1 (%.2f U)",
			loads[0].RemainingU, loads[1].RemainingU)
	}

	// Same driver table: must co-locate with the live group on the busier
	// shard 0, where plain least-loaded would have picked shard 1.
	v1 := submit(t, c, "join")
	if s, _, _ := c.locate(v1.ID); s != 0 {
		t.Fatalf("same-table scan routed to shard %d, want co-located on 0", s)
	}

	// Different table, no live group anywhere: plain least-loaded → shard 1.
	v2, err := c.Submit(SubmitRequest{SubmitRequest: service.SubmitRequest{
		Label: "other", SQL: "SELECT SUM(b) FROM t2",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if s, _, _ := c.locate(v2.ID); s != 1 {
		t.Fatalf("other-table scan routed to shard %d, want least-loaded shard 1", s)
	}
}

// eagerPick is least-loaded placement with the parse up front — every
// submission's SQL, then a scan of the shards: the reference for
// leastLoaded.pick, which parses only once a shard reports a live fold group.
func eagerPick(c *Cluster, sqlText string) (shard int, colocated bool) {
	table := driverTable(sqlText)
	best, foldBest := -1, -1
	loads := c.Loads()
	for i, l := range loads {
		if best < 0 || l.RemainingU < loads[best].RemainingU {
			best = i
		}
		if table != "" && hasFoldTable(l.FoldTables, table) && (foldBest < 0 || l.RemainingU < loads[foldBest].RemainingU) {
			foldBest = i
		}
	}
	if foldBest >= 0 {
		return foldBest, foldBest != best
	}
	return best, false
}

// TestLeastLoadedParsesOnlyForLiveFoldGroups: over a corpus of scans on two
// tables with ticks in between, folding on and folding off, every placement is
// the one the eager policy makes from the same loads; the fold-on run does
// take the co-locating branch; and with folding off — no shard ever reports a
// live group — a routing decision runs no parser, which shows as no
// allocation at all.
func TestLeastLoadedParsesOnlyForLiveFoldGroups(t *testing.T) {
	corpus := []string{"SELECT SUM(a) FROM t1", "SELECT SUM(b) FROM t2", "SELECT COUNT(*) FROM t1"}
	for _, fold := range []bool{true, false} {
		cfg := Config{Shards: 3, Routing: "least-loaded"}
		cfg.Service.Sched = sched.Config{RateC: 10, Quantum: 0.5, Fold: fold}
		c := manualCluster(t, cfg, 40)
		if _, err := c.Exec("CREATE TABLE t2 (b BIGINT)"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec("INSERT INTO t2 VALUES (1),(2),(3)"); err != nil {
			t.Fatal(err)
		}
		colocations := 0
		for i := 0; i < 24; i++ {
			req := SubmitRequest{SubmitRequest: service.SubmitRequest{SQL: corpus[i%len(corpus)]}}
			want, colocated := eagerPick(c, req.SQL)
			if colocated {
				colocations++
			}
			v, err := c.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if got, _, _ := c.locate(v.ID); got != want {
				t.Fatalf("fold=%v submission %d (%s) placed on shard %d, eager policy says %d", fold, i, req.SQL, got, want)
			}
			if i%2 == 1 {
				if err := c.Advance(0.5); err != nil {
					t.Fatal(err)
				}
			}
		}
		if fold != (colocations > 0) {
			t.Fatalf("fold=%v: %d placements left the least-loaded shard for a live fold group", fold, colocations)
		}
		if !fold {
			req := SubmitRequest{SubmitRequest: service.SubmitRequest{SQL: corpus[0]}}
			if n := testing.AllocsPerRun(100, func() { c.router.pick(c, req) }); n != 0 {
				t.Errorf("a routing decision with no live fold group allocates %v times, want 0 (no parse)", n)
			}
		}
	}
}

// TestOpErrorsNameGlobalID: an operation the owning shard refuses must be
// reported under the id the client sent, not the shard's own id for the
// query (gid 7 on three shards is shard 0's query 3).
func TestOpErrorsNameGlobalID(t *testing.T) {
	c := manualCluster(t, Config{Shards: 3}, 1)
	for i := 0; i < 7; i++ {
		submit(t, c, fmt.Sprintf("q%d", i))
	}
	if err := c.Advance(60); err != nil {
		t.Fatal(err)
	}
	if p, err := c.Progress(7); err != nil || p.Status != "finished" {
		t.Fatalf("query 7 = %+v, %v", p, err)
	}
	for op, err := range map[string]error{
		"block":    c.Block(7),
		"unblock":  c.Unblock(7),
		"abort":    c.Abort(7),
		"priority": c.SetPriority(7, 2),
	} {
		if err == nil {
			t.Errorf("%s of a finished query succeeded", op)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "query 7 ") || strings.Contains(msg, "query 3 ") {
			t.Errorf("%s: %q does not name query 7", op, msg)
		}
		if service.StatusOf(err) != 400 {
			t.Errorf("%s: status %d, want 400", op, service.StatusOf(err))
		}
	}
}

// TestOverviewRowsAreOneEpoch hammers the merged overview over HTTP while live
// tickers and a writer move every shard: each shard row's remaining_u in a
// GET /overview body must be the sum over that shard's own views in the same
// body. A row assembled from two snapshot loads mixes epochs and misses by at
// least a tick's work. The readers also poll single queries by global ID, so
// concurrent clients, the front door and the live tickers share the race
// detector; no request may fail and every submitted query must reach a
// terminal status.
func TestOverviewRowsAreOneEpoch(t *testing.T) {
	const shards = 2
	c, err := New(Config{
		Shards: shards,
		Service: service.Config{
			Sched:     sched.Config{RateC: 5, Quantum: 0.25, MPL: 3},
			TickEvery: time.Millisecond,
			TimeScale: 50,
		},
		OpenDB: openWith(t, 12),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(NewHandler(c))
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	defer client.CloseIdleConnections()

	// call sends one request and decodes a 2xx body into out.
	call := func(method, path string, body io.Reader, out any) error {
		req, err := http.NewRequest(method, ts.URL+path, body)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("%s %s = %d: %s", method, path, resp.StatusCode, data)
		}
		return json.Unmarshal(data, out)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				var ov GlobalOverview
				if err := call("GET", "/overview", nil, &ov); err != nil {
					t.Errorf("overview: %v", err)
					return
				}
				var sum [shards]float64
				var ids []int
				for _, sec := range [][]service.QueryView{ov.Running, ov.Queued, ov.Scheduled} {
					for _, v := range sec {
						sum[(v.ID-1)%shards] += v.Remaining
						ids = append(ids, v.ID)
					}
				}
				for i, row := range ov.Shards {
					// Summation order differs from the row's, hence not bitwise.
					if math.Abs(row.RemainingU-sum[i]) > 1e-9*(1+sum[i]) {
						t.Errorf("shard %d epoch %d: remaining_u %g, its views sum to %g",
							i, row.Epoch, row.RemainingU, sum[i])
						return
					}
				}
				if len(ids) > 0 {
					var v service.QueryView
					if err := call("GET", fmt.Sprintf("/queries/%d", ids[k%len(ids)]), nil, &v); err != nil {
						t.Errorf("progress: %v", err)
						return
					}
				}
			}
		}()
	}
	var submitted []int
	for k := 0; k < 150; k++ {
		body := fmt.Sprintf(`{"sql": "SELECT SUM(a) FROM t1", "delay": %g}`, float64(k%3)*0.05)
		var v service.QueryView
		if err := call("POST", "/queries", strings.NewReader(body), &v); err != nil {
			t.Errorf("submit: %v", err)
			break
		}
		submitted = append(submitted, v.ID)
		if k%4 == 2 {
			_ = c.Abort(v.ID) // may race a finish
		}
		time.Sleep(300 * time.Microsecond)
	}
	close(stop)
	readers.Wait()

	deadline := time.Now().Add(30 * time.Second)
	for _, id := range submitted {
		for {
			var v service.QueryView
			if err := call("GET", fmt.Sprintf("/queries/%d", id), nil, &v); err != nil {
				t.Fatalf("progress: %v", err)
			}
			if v.Status == "finished" || v.Status == "aborted" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("query %d still %s after 30s", id, v.Status)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
