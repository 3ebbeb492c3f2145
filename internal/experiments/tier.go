package experiments

import (
	"fmt"
	"math"

	"mqpi/internal/cluster"
	"mqpi/internal/engine"
	"mqpi/internal/service"
)

// tier is one manual-clock serving tier under replay: a cluster.Cluster (one
// shard unless the config says otherwise — the tier sim.Run drives) whose
// virtual time moves only through submit and drain. The cluster sweep, the
// folding sweep and the calibration battery are three workloads over it.
type tier struct {
	name    string // names the cell in errors
	c       *cluster.Cluster
	quantum float64
	clock   float64 // virtual seconds advanced so far
	ids     []int   // the submitted queries, in submission order
}

// tierMaxSteps caps a drain; at the default quantum it is hours of virtual
// time, far past any sane drain, so hitting it means a hang.
const tierMaxSteps = 40000

// startTier builds the tier cfg describes on a manual clock; open builds one
// engine per shard.
func startTier(name string, cfg cluster.Config, open func() (*engine.DB, error)) (*tier, error) {
	cfg.Service.TickEvery = -1 // virtual time moves only through Advance
	c, _, err := cluster.Serve(cfg, open)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	return &tier{name: name, c: c, quantum: cfg.Service.Sched.Quantum}, nil
}

func (t *tier) close() { t.c.Close() }

// fail names the cell in an error from the tier.
func (t *tier) fail(err error) error { return fmt.Errorf("experiments: %s: %w", t.name, err) }

func (t *tier) advance(vsec float64) error {
	if err := t.c.Advance(vsec); err != nil {
		return t.fail(err)
	}
	t.clock += vsec
	return nil
}

// submit lets gap virtual seconds pass, then places the query through the
// front door and returns its time-0 view.
func (t *tier) submit(gap float64, req service.SubmitRequest, session string) (service.QueryView, error) {
	if gap > 0 {
		if err := t.advance(gap); err != nil {
			return service.QueryView{}, err
		}
	}
	v, err := t.c.Submit(cluster.SubmitRequest{SubmitRequest: req, Session: session})
	if err != nil {
		return v, t.fail(err)
	}
	t.ids = append(t.ids, v.ID)
	return v, nil
}

// tierAction blocks (or unblocks) the target-th submitted query once the
// tier's virtual clock reaches at.
type tierAction struct {
	at      float64
	unblock bool
	target  int
}

// drain steps the tier a quantum at a time until nothing is running, queued
// or scheduled. Each step reads one overview, applies the actions that have
// come due, and hands the overview to sample (when set) with the tier's
// virtual now — the furthest shard clock — before advancing. A tier still
// busy after tierMaxSteps is an error, as is a query that did not end
// "finished"; otherwise drain returns the finished views, every submitted
// query among them.
func (t *tier) drain(actions []tierAction, sample func(now float64, ov cluster.GlobalOverview)) ([]service.QueryView, error) {
	acted := make([]bool, len(actions))
	for step := 0; ; step++ {
		ov, err := t.c.Overview()
		if err != nil {
			return nil, t.fail(err)
		}
		now := 0.0
		for _, sh := range ov.Shards {
			now = math.Max(now, sh.Now)
		}
		for i, a := range actions {
			if acted[i] || now+1e-9 < a.at {
				continue
			}
			acted[i] = true
			op := t.c.Block
			if a.unblock {
				op = t.c.Unblock
			}
			if err := op(t.ids[a.target]); err != nil {
				return nil, t.fail(fmt.Errorf("action at %gs: %w", a.at, err))
			}
		}
		if sample != nil {
			sample(now, ov)
		}
		if len(ov.Running) == 0 && len(ov.Queued) == 0 && len(ov.Scheduled) == 0 {
			return t.finished(ov.Finished)
		}
		if step >= tierMaxSteps {
			return nil, fmt.Errorf("experiments: %s did not drain in %d steps (%d of %d queries finished)",
				t.name, tierMaxSteps, len(ov.Finished), len(t.ids))
		}
		if err := t.advance(t.quantum); err != nil {
			return nil, err
		}
	}
}

// finished checks a drained tier's terminated set: every submitted query is
// there and ended "finished".
func (t *tier) finished(views []service.QueryView) ([]service.QueryView, error) {
	for _, v := range views {
		if v.Status != "finished" {
			return nil, fmt.Errorf("experiments: %s: query %d (%s) ended %s: %s", t.name, v.ID, v.Label, v.Status, v.Err)
		}
	}
	if len(views) != len(t.ids) {
		return nil, fmt.Errorf("experiments: %s finished %d of %d queries", t.name, len(views), len(t.ids))
	}
	return views, nil
}

// finiteETA reports a published remaining-time estimate that can be scored:
// finite and positive (a blocked or unadmitted query has none).
func finiteETA(eta service.Seconds) (float64, bool) {
	f := float64(eta)
	return f, !math.IsNaN(f) && !math.IsInf(f, 0) && f > 0
}
