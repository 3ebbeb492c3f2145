package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// Tracing lives entirely in the benchmark: spans wrap the calls the driver
// makes into the program (the handler's ServeHTTP, and in the layer walk the
// layers' public functions). Nothing inside the program is instrumented.

// spanKind names a span; the values index spanNames.
type spanKind uint8

const (
	spRequest spanKind = iota // root: from the request's due instant to its answer
	spSubmit                  // children: one handler call each
	spPoll
	spOverview
	spPriority
	spAbort
	spAdvance
	spMetrics
)

var spanNames = [...]string{
	spRequest:  "request",
	spSubmit:   "POST /queries",
	spPoll:     "GET /queries/{id}",
	spOverview: "GET /queries",
	spPriority: "POST /queries/{id}/priority",
	spAbort:    "POST /queries/{id}/abort",
	spAdvance:  "POST /advance",
	spMetrics:  "GET /metrics",
}

// span is one timed interval. Start and End are nanoseconds since the run's
// origin; Parent indexes the same slice (-1 for a root); Req ties the spans
// of one request together.
type span struct {
	Kind       spanKind
	Start, End int64
	Parent     int32
	Req        int32
}

// selfTimes returns each span's self time: its duration minus the part of it
// that its child spans cover. Children of one parent are issued one after the
// other by a single driver goroutine, so their clipped durations add up to
// the covered part. A self time is never negative.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			self[s.Parent] -= hi - lo
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// budgetRow is one stop a request makes, with the time attributed to it.
type budgetRow struct {
	Stop string  `json:"stop"`
	Us   float64 `json:"us"`
}

// ownerWaitStop is the row that absorbs whatever the separately timed stops
// do not explain.
const ownerWaitStop = "owner wait"

// budget attributes totalUs across the separately timed stops. Whatever they
// do not explain is the owner-wait residual, inserted after the first stop
// (decode) where a request meets the owner queue. When the stops alone exceed
// the total the residual is zero, never negative, and the excess is returned
// so the caller can report that the quiescent stops over-explain the live
// median.
func budget(totalUs float64, stops []budgetRow) (rows []budgetRow, excess float64) {
	sum := 0.0
	for _, r := range stops {
		sum += r.Us
	}
	wait := totalUs - sum
	if wait < 0 {
		excess, wait = -wait, 0
	}
	rows = append(rows, stops[0], budgetRow{ownerWaitStop, wait})
	return append(rows, stops[1:]...), excess
}

// formatBudget renders the table that goes to stderr and into the trace file.
func formatBudget(title string, totalUs float64, rows []budgetRow, excess float64) string {
	out := fmt.Sprintf("budget: %s, total %.1f us\n", title, totalUs)
	for _, r := range rows {
		share := 0.0
		if totalUs > 0 {
			share = 100 * r.Us / totalUs
		}
		out += fmt.Sprintf("  %-12s %12.1f us %6.1f %%\n", r.Stop, r.Us, share)
	}
	if excess > 0 {
		out += fmt.Sprintf("  (quiescent stops exceed the live median by %.1f us; owner wait floored at 0)\n", excess)
	}
	return out
}

// traceFile is what a traced run leaves under benchmark/out/.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Names    []string    `json:"span_names"`
	Budget   []budgetRow `json:"budget,omitempty"`
	// Spans follow as rows of [kind, start_ns, end_ns, parent, request].
}

// writeTrace writes the spans of every client, in client order with parent
// indexes rebased, as one JSON document.
func writeTrace(dir string, hdr traceFile, perClient [][]span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.seed%d.trace.json", hdr.Workload, hdr.Seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	hdr.Names = spanNames[:]
	head, err := json.Marshal(hdr)
	if err != nil {
		return "", err
	}
	w.Write(head[:len(head)-1]) // reopen the object to append the span rows
	w.WriteString(`,"spans":[`)
	var row []byte
	base, first := int32(0), true
	for _, spans := range perClient {
		for _, s := range spans {
			row = row[:0]
			if !first {
				row = append(row, ',')
			}
			first = false
			parent := s.Parent
			if parent >= 0 {
				parent += base
			}
			row = append(row, '[')
			row = strconv.AppendInt(row, int64(s.Kind), 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, s.Start, 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, s.End, 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, int64(parent), 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, int64(s.Req)+int64(base), 10)
			row = append(row, ']')
			w.Write(row)
		}
		base += int32(len(spans))
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
