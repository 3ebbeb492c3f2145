package service

import (
	"sort"
	"sync"
	"time"
)

// Event types recorded in the per-query trace.
const (
	EventSubmitted = "submitted"        // accepted for execution
	EventQueued    = "queued"           // parked in the admission queue (MPL full)
	EventScheduled = "scheduled"        // registered as a future arrival
	EventAdmitted  = "admitted"         // granted an MPL slot, now running
	EventBlocked   = "blocked"          // suspended (a §3.1 victim operation)
	EventUnblocked = "unblocked"        // resumed
	EventPriority  = "priority_changed" // weight changed via SetPriority
	EventRevised   = "estimate_revised" // predicted finish time moved materially
	EventFinished  = "finished"         // completed successfully
	EventFailed    = "failed"           // terminated with an execution error
	EventAborted   = "aborted"          // killed by a client or a planner
	EventFold      = "fold_toggled"     // shared-scan folding switched on or off (queryID 0)
)

// Event is one entry in a query's trace. Seq is a global, strictly
// increasing sequence number; Virtual is the scheduler clock in seconds.
type Event struct {
	Seq     int64     `json:"seq"`
	Wall    time.Time `json:"wall"`
	Virtual float64   `json:"virtual"`
	QueryID int       `json:"query"`
	Type    string    `json:"type"`
	Detail  string    `json:"detail,omitempty"`
}

// EventLog keeps a bounded ring of events per query: the newest capPerQuery
// events survive, older ones are overwritten in place. Memory is therefore
// O(queries × capPerQuery) no matter how long the service runs or how often
// estimates are revised.
type EventLog struct {
	mu          sync.Mutex
	capPerQuery int
	seq         int64
	rings       map[int]*eventRing
}

type eventRing struct {
	buf  []Event
	next int
	full bool
}

func newEventLog(capPerQuery int) *EventLog {
	if capPerQuery <= 0 {
		capPerQuery = 128
	}
	return &EventLog{capPerQuery: capPerQuery, rings: make(map[int]*eventRing)}
}

func (l *EventLog) add(virtual float64, queryID int, typ, detail string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.rings[queryID]
	if r == nil {
		r = &eventRing{buf: make([]Event, 0, l.capPerQuery)}
		l.rings[queryID] = r
	}
	l.seq++
	ev := Event{
		Seq:     l.seq,
		Wall:    time.Now(),
		Virtual: virtual,
		QueryID: queryID,
		Type:    typ,
		Detail:  detail,
	}
	if len(r.buf) < l.capPerQuery {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.next] = ev
	r.next = (r.next + 1) % l.capPerQuery
	r.full = true
}

// snapshot returns the ring's events oldest-first.
func (r *eventRing) snapshot() []Event {
	out := make([]Event, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Query returns the retained events of one query, oldest first.
func (l *EventLog) Query(id int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.rings[id]
	if r == nil {
		return nil
	}
	return r.snapshot()
}

// All returns the retained events of every query, merged in sequence order.
func (l *EventLog) All() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, r := range l.rings {
		out = append(out, r.snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
