package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"mqpi/internal/core"
	"mqpi/internal/sched"
	"mqpi/internal/wm"
)

// Tier is the set of operations the shared route table serves. Manager and
// the cluster front door each fill one in, so a shared route, its
// decode/validate/encode steps and its error-to-status mapping are written
// once, in Routes.
type Tier struct {
	// NewSubmit returns what POST /queries needs to place one query: a
	// pointer to the tier's own request type for the body to be decoded
	// into, the address of that value's SQL field (a blank statement is
	// refused before submit runs), and the call that places the decoded
	// request.
	NewSubmit func() (req any, sql *string, submit func() (QueryView, error))
	// Overview is the GET /queries body; its shape is the tier's own.
	Overview              func() (any, error)
	Progress              func(id int) (QueryView, error)
	Block, Unblock, Abort func(id int) error
	SetPriority           func(id, priority int) error
	Events                func(id int) ([]Event, error)
	MetricsText           func() string
	Exec                  func(sql string) (int, error)
	Advance               func(seconds float64) error
	// StatusOf maps an operation's error to its HTTP status.
	StatusOf func(error) int
}

// Routes builds the route table every serving tier answers:
//
//	POST /queries                     submit {"sql","label","priority","delay"}
//	GET  /queries                     system overview (running/queued/scheduled/finished)
//	GET  /queries/{id}                one query's progress + ETAs
//	POST /queries/{id}/block          suspend (§3.1 victim operation)
//	POST /queries/{id}/unblock        resume
//	POST /queries/{id}/abort          kill (free per §3.3)
//	POST /queries/{id}/priority       {"priority": n}
//	GET  /events[?id=]                bounded per-query event trace
//	GET  /metrics                     Prometheus text exposition
//	POST /exec                        {"sql"}: synchronous DDL/DML (data loading);
//	                                  409 if the owner stays busy past the exec deadline
//	POST /advance                     {"seconds"}: push virtual time forward
//	GET  /healthz                     liveness probe
//
// The caller adds its own routes to the returned mux.
func Routes(t Tier) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /queries", func(w http.ResponseWriter, r *http.Request) {
		req, sql, submit := t.NewSubmit()
		if err := decodeJSON(r, req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if strings.TrimSpace(*sql) == "" {
			writeError(w, http.StatusBadRequest, errors.New("missing sql"))
			return
		}
		view, err := submit()
		t.reply(w, http.StatusCreated, view, err)
	})

	mux.HandleFunc("GET /queries", t.ServeOverview)

	mux.HandleFunc("GET /queries/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := pathID(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		view, err := t.Progress(id)
		t.reply(w, http.StatusOK, view, err)
	})

	op := func(name string, f func(int) error) func(http.ResponseWriter, *http.Request) {
		return func(w http.ResponseWriter, r *http.Request) {
			id, err := pathID(r)
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			t.reply(w, http.StatusOK, map[string]any{"ok": true, "op": name, "id": id}, f(id))
		}
	}
	mux.HandleFunc("POST /queries/{id}/block", op("block", t.Block))
	mux.HandleFunc("POST /queries/{id}/unblock", op("unblock", t.Unblock))
	mux.HandleFunc("POST /queries/{id}/abort", op("abort", t.Abort))

	mux.HandleFunc("POST /queries/{id}/priority", func(w http.ResponseWriter, r *http.Request) {
		id, err := pathID(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		var req struct {
			Priority int `json:"priority"`
		}
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		t.reply(w, http.StatusOK, map[string]any{"ok": true, "op": "priority", "id": id, "priority": req.Priority},
			t.SetPriority(id, req.Priority))
	})

	mux.HandleFunc("GET /events", func(w http.ResponseWriter, r *http.Request) {
		id, err := queryInt(r, "id", 0, 0, 1<<31-1)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		evs, err := t.Events(id)
		t.reply(w, http.StatusOK, map[string]any{"events": evs}, err)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, t.MetricsText())
	})

	mux.HandleFunc("POST /exec", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			SQL string `json:"sql"`
		}
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		n, err := t.Exec(req.SQL)
		t.reply(w, http.StatusOK, map[string]any{"rows": n}, err)
	})

	mux.HandleFunc("POST /advance", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Seconds float64 `json:"seconds"`
		}
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := t.Advance(req.Seconds); err != nil {
			writeError(w, t.StatusOf(err), err)
			return
		}
		t.ServeOverview(w, r)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})

	return mux
}

// reply answers with v, or with err under the status the tier maps it to.
func (t Tier) reply(w http.ResponseWriter, status int, v any, err error) {
	if err != nil {
		writeError(w, t.StatusOf(err), err)
		return
	}
	writeJSON(w, status, v)
}

// ServeOverview answers with the tier's overview: the GET /queries handler,
// exported so a tier can mount the same body under a second path.
func (t Tier) ServeOverview(w http.ResponseWriter, _ *http.Request) {
	out, err := t.Overview()
	t.reply(w, http.StatusOK, out, err)
}

// NewHandler exposes a Manager as an HTTP/JSON API: the shared route table
// (see Routes) plus the single-engine routes below. GET endpoints ride the
// Manager's lock-free read path — they serve from the latest published
// snapshot and never wait on the owner goroutine, so progress polls stay
// fast no matter how busy the scheduler is. POST endpoints mutate and are
// marshalled onto the owner.
//
//	GET  /diagram                     ASCII stage diagram (text/plain)
//	GET  /plan/speedup?target=&victims=    §3.1 planner
//	GET  /plan/speedup-others              §3.2 planner
//	GET  /plan/maintenance?deadline=&mode=&exact=   §3.3 planner
func NewHandler(m *Manager) http.Handler {
	t := Tier{
		NewSubmit: func() (any, *string, func() (QueryView, error)) {
			req := new(SubmitRequest)
			return req, &req.SQL, func() (QueryView, error) { return m.Submit(*req) }
		},
		Overview:    m.overviewReply,
		Progress:    m.Progress,
		Block:       m.Block,
		Unblock:     m.Unblock,
		Abort:       m.Abort,
		SetPriority: m.SetPriority,
		Events:      func(id int) ([]Event, error) { return m.Events(id), nil },
		MetricsText: func() string { return m.Metrics().Text() },
		Exec:        m.Exec,
		Advance:     m.Advance,
		StatusOf:    StatusOf,
	}
	mux := Routes(t)

	mux.HandleFunc("GET /diagram", func(w http.ResponseWriter, r *http.Request) {
		width, err := queryInt(r, "width", 60, 1, 400)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		text, err := m.Diagram(width)
		if err != nil {
			writeError(w, t.StatusOf(err), err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, text)
	})

	mux.HandleFunc("GET /plan/speedup", func(w http.ResponseWriter, r *http.Request) {
		target, err := strconv.Atoi(r.URL.Query().Get("target"))
		if err != nil {
			writeError(w, http.StatusBadRequest, errors.New("missing or invalid target"))
			return
		}
		h, err := queryInt(r, "victims", 1, 1, 1<<20)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		victims, err := m.SpeedUpSingle(target, h)
		t.reply(w, http.StatusOK, map[string]any{"target": target, "victims": victims}, err)
	})

	mux.HandleFunc("GET /plan/speedup-others", func(w http.ResponseWriter, r *http.Request) {
		v, err := m.SpeedUpOthers()
		t.reply(w, http.StatusOK, map[string]any{"victim": v}, err)
	})

	mux.HandleFunc("GET /plan/maintenance", func(w http.ResponseWriter, r *http.Request) {
		deadline, err := queryFloat(r, "deadline", 0)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		mode := wm.Case2TotalCost
		switch r.URL.Query().Get("mode") {
		case "", "total-cost":
		case "completed-work":
			mode = wm.Case1CompletedWork
		default:
			writeError(w, http.StatusBadRequest, errors.New("mode must be total-cost or completed-work"))
			return
		}
		exact := r.URL.Query().Get("exact") == "1"
		plan, err := m.PlanMaintenance(deadline, mode, exact)
		t.reply(w, http.StatusOK, map[string]any{
			"abort": plan.Abort, "lost_u": plan.Lost, "quiescent_eta": Seconds(plan.Quiescent),
			"mode": mode.String(), "exact": exact,
		}, err)
	})

	return mux
}

// queryInt parses an optional integer query parameter. A missing parameter
// yields def; anything unparsable or outside [min, max] is an error so the
// handler answers 400 instead of silently substituting the default.
func queryInt(r *http.Request, name string, def, min, max int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("invalid %s %q", name, s)
	}
	if n < min || n > max {
		return 0, fmt.Errorf("%s must be between %d and %d", name, min, max)
	}
	return n, nil
}

// queryFloat parses a required float query parameter, rejecting NaN and ±Inf
// (which strconv.ParseFloat happily accepts) and values below min.
func queryFloat(r *http.Request, name string, min float64) (float64, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return 0, fmt.Errorf("missing %s", name)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid %s %q", name, s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%s must be finite", name)
	}
	if v < min {
		return 0, fmt.Errorf("%s must be >= %g", name, min)
	}
	return v, nil
}

// decodeJSON reads the request body as exactly one JSON value into v:
// unknown fields, and anything but whitespace after the value, are errors.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bad request body: trailing data after the JSON value")
	}
	return nil
}

func pathID(r *http.Request) (int, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id <= 0 {
		return 0, errors.New("invalid query id")
	}
	return id, nil
}

// StatusOf maps service errors to HTTP statuses: unknown IDs are 404, a
// closed manager is 503, an Exec deadline miss is 409 (retryable — the owner
// is mid-tick), invalid state transitions and bad SQL are 400.
func StatusOf(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBusy):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// writeJSON answers with v, or with the body v is. It encodes before it writes
// the status, so a value that cannot be encoded answers 500 with the error
// instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	r, ok := v.(replyBody)
	if !ok {
		r = replyBody{value: v}
	}
	body, err := r.encode()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	for _, b := range body {
		_, _ = w.Write(b)
	}
}

// replyBody is a JSON body as writeJSON sends it: value as a json.Encoder
// indenting by two spaces writes it, but for an overview's finished section,
// which value leaves nil and store holds for the terminated queries done.
type replyBody struct {
	value any
	done  []sched.QueryInfo
	store *finishedJSON
}

// encode returns the body in the pieces it is written in.
func (r replyBody) encode() ([][]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.value); err != nil {
		return nil, err
	}
	head := buf.Bytes()
	if len(r.done) == 0 {
		return [][]byte{head}, nil
	}
	finished, err := r.store.section(r.done)
	if err != nil {
		return nil, err
	}
	// The entries take the place of the null that Finished, the last field,
	// encodes to, inside the brackets the encoder would have put around them.
	head = head[:len(head)-len("null\n}\n")]
	return [][]byte{head, []byte("[\n    "), finished, []byte("\n  ]\n}\n")}, nil
}

// finishedJSON is the finished section of the GET /queries body, stored: each
// terminated query's view encoded once, as writeJSON lays out one element of a
// top-level array. A terminated view never changes and sched.Snapshot.Done is
// one append-only history, so the first n entries are the section of every
// snapshot with n terminated queries. Readers extend it under mu; the owner
// never encodes.
type finishedJSON struct {
	mu   sync.Mutex
	buf  []byte // the entries, joined by ",\n    "
	ends []int  // ends[i] is the offset in buf just past entry i
}

// section returns the entries of done, joined, encoding those not stored yet.
// The slice stays valid after the lock is released: an extension writes only
// past its end.
func (f *finishedJSON) section(done []sched.QueryInfo) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := len(f.ends); i < len(done); i++ {
		b, err := json.MarshalIndent(makeView(done[i], core.Estimate{}), "    ", "  ")
		if err != nil {
			return nil, err
		}
		if i > 0 {
			f.buf = append(f.buf, ",\n    "...)
		}
		f.buf = append(f.buf, b...)
		f.ends = append(f.ends, len(f.buf))
	}
	return f.buf[:f.ends[len(done)-1]], nil
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
