package service

import (
	"fmt"
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

	// An estimate_revised event is stored as the two predicted finish times
	// it moved between; rendered fills Detail in when the log is read. The
	// owner records up to one of these per live query per estimate pass, and
	// almost all are overwritten unread, so the text is the reader's cost.
	from, to float64
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
	l.put(Event{Virtual: virtual, QueryID: queryID, Type: typ, Detail: detail})
}

// move is one query's predicted absolute finish time moving from one virtual
// time to another: what an estimate_revised event records.
type move struct {
	id       int
	from, to float64
}

// addRevised records one estimate pass's moves at virtual time virtual, in
// order. A pass can move every live query, so it takes the lock and reads the
// wall clock once for all of them rather than once per event.
func (l *EventLog) addRevised(virtual float64, moves []move) {
	if len(moves) == 0 {
		return
	}
	wall := time.Now()
	l.mu.Lock()
	for _, mv := range moves {
		l.store(Event{Virtual: virtual, QueryID: mv.id, Type: EventRevised, from: mv.from, to: mv.to}, wall)
	}
	l.mu.Unlock()
}

// put stamps ev with the next sequence number and the wall clock and stores
// it in its query's ring.
func (l *EventLog) put(ev Event) {
	l.mu.Lock()
	l.store(ev, time.Now())
	l.mu.Unlock()
}

// store stamps ev with the next sequence number and the wall time and stores
// it in its query's ring. l.mu must be held.
func (l *EventLog) store(ev Event, wall time.Time) {
	r := l.rings[ev.QueryID]
	if r == nil {
		r = &eventRing{buf: make([]Event, 0, l.capPerQuery)}
		l.rings[ev.QueryID] = r
	}
	l.seq++
	ev.Seq = l.seq
	ev.Wall = wall
	if len(r.buf) < l.capPerQuery {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.next] = ev
	r.next = (r.next + 1) % l.capPerQuery
	r.full = true
}

// appendTo appends the ring's events to out, oldest first.
func (r *eventRing) appendTo(out []Event) []Event {
	if r.full {
		out = append(out, r.buf[r.next:]...)
		return append(out, r.buf[:r.next]...)
	}
	return append(out, r.buf...)
}

// Query returns the retained events of one query, oldest first.
func (l *EventLog) Query(id int) []Event {
	l.mu.Lock()
	var out []Event
	if r := l.rings[id]; r != nil {
		out = r.appendTo(make([]Event, 0, len(r.buf)))
	}
	l.mu.Unlock()
	return rendered(out)
}

// All returns the retained events of every query, merged in sequence order.
func (l *EventLog) All() []Event {
	l.mu.Lock()
	var out []Event
	for _, r := range l.rings {
		out = r.appendTo(out)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return rendered(out)
}

// rendered fills in the details the estimate_revised events of a reader's
// private copy were stored without. Readers call it after releasing l.mu:
// however much they asked for, the owner's next put waited only for the copy,
// not for the formatting.
func rendered(evs []Event) []Event {
	for i := range evs {
		if e := &evs[i]; e.Type == EventRevised && e.Detail == "" {
			e.Detail = fmt.Sprintf("predicted finish moved %+.3fs (t=%.3fs -> t=%.3fs)", e.to-e.from, e.from, e.to)
		}
	}
	return evs
}
