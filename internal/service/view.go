package service

import (
	"math"
	"strconv"

	"mqpi/internal/core"
	"mqpi/internal/sched"
)

// Seconds is a duration in (virtual) seconds that marshals non-finite
// values as JSON null instead of breaking the encoder.
type Seconds float64

// MarshalJSON renders NaN and ±Inf as null, and any other value as
// encoding/json renders a float64, without a second trip through it: the
// shortest 'f' form, or the 'e' form below 1e-6 and from 1e21 up, with a
// one-digit exponent unpadded.
func (s Seconds) MarshalJSON() ([]byte, error) {
	f := float64(s)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(make([]byte, 0, 24), f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b, nil
}

// QueryView is the client-facing snapshot of one query: identity, lifecycle
// timestamps, work accounting, and the two competing remaining-time
// estimates. All times are in virtual seconds.
type QueryView struct {
	ID    int    `json:"id"`
	Label string `json:"label,omitempty"`
	SQL   string `json:"sql,omitempty"`
	// Now is the virtual clock at the instant this view was derived. Single-
	// query polls carry it so a client can audit predictions (predicted
	// finish = now + ETA) against the actual finish time later; views
	// embedded in an Overview omit it in favor of the overview's own Now.
	Now        Seconds `json:"now,omitempty"`
	Priority   int     `json:"priority"`
	Status     string  `json:"status"`
	SubmitTime float64 `json:"submit_time"`
	StartTime  float64 `json:"start_time"`
	FinishTime float64 `json:"finish_time"`
	Done       float64 `json:"done_u"`      // e_i: work completed, in U's
	Remaining  float64 `json:"remaining_u"` // c_i: refined remaining cost, in U's
	Fraction   float64 `json:"fraction"`    // done/(done+remaining), in [0, 1]
	Speed      float64 `json:"speed_ups"`   // observed speed, U/s
	Weight     float64 `json:"weight"`
	// Credit is the scheduler's accrued balance for the query in U's:
	// positive while service is banked ahead of an indivisible chunk,
	// negative while a chunk's overshoot is being paid down. It explains why
	// a running query may briefly progress faster or slower than its weight
	// share implies.
	Credit float64 `json:"credit_u"`
	// Cost is the engine-cost plane in U's: physical work after shared-scan
	// deduplication. Equal to Done unless the query rode a shared cursor.
	Cost float64 `json:"cost_u"`
	// FoldGroup is the shared-scan group the query currently rides (omitted
	// when solo). Members of one group advance in lockstep over one cursor.
	FoldGroup int     `json:"fold_group,omitempty"`
	SingleETA Seconds `json:"single_query_eta"` // t = c/s (null if unobservable)
	MultiETA  Seconds `json:"multi_query_eta"`  // stage-model estimate
	// ETALow/ETAHigh bound the estimator's uncertainty band around MultiETA.
	// Degenerate (equal to MultiETA) under the stage estimator; the
	// calibrated estimator widens it by the point's rolling finish error.
	ETALow  Seconds `json:"eta_low"`
	ETAHigh Seconds `json:"eta_high"`
	Err     string  `json:"error,omitempty"`
}

// FoldView summarizes shared-scan folding for the overview: live gauges plus
// lifetime counters.
type FoldView struct {
	Enabled    bool     `json:"enabled"`
	Groups     int      `json:"groups"`
	Members    int      `json:"members"`
	Attaches   uint64   `json:"attaches_total"`
	PagesSaved uint64   `json:"pages_saved_total"`
	Tables     []string `json:"tables,omitempty"` // tables with a live group, sorted
}

// Overview is the whole system's live view.
type Overview struct {
	Now       float64  `json:"now"`   // virtual clock, seconds
	Epoch     uint64   `json:"epoch"` // snapshot epoch this view was derived from
	RateC     float64  `json:"rate_c"`
	MPL       int      `json:"mpl"`
	Quantum   float64  `json:"quantum"`
	Workers   int      `json:"workers"` // execute-phase worker count
	TimeScale float64  `json:"time_scale"`
	Fold      FoldView `json:"fold"`
	// Estimator is the configured estimate-plane mode.
	Estimator    string      `json:"estimator"`
	QuiescentETA Seconds     `json:"quiescent_eta"` // until ALL known work drains
	Running      []QueryView `json:"running"`
	Queued       []QueryView `json:"queued"`
	Scheduled    []QueryView `json:"scheduled"`
	Finished     []QueryView `json:"finished"`
}

func makeView(info sched.QueryInfo, est core.Estimate) QueryView {
	v := QueryView{
		ID:         info.ID,
		Label:      info.Label,
		SQL:        info.SQL,
		Priority:   info.Priority,
		Status:     info.Status.String(),
		SubmitTime: info.SubmitTime,
		StartTime:  info.StartTime,
		FinishTime: info.FinishTime,
		Done:       info.Done,
		Remaining:  info.Remaining,
		Speed:      info.Speed,
		Weight:     info.Weight,
		Credit:     info.Credit,
		Cost:       info.Cost,
		FoldGroup:  info.FoldGroup,
		Err:        info.Err,
	}
	if total := info.Done + info.Remaining; total > 0 {
		v.Fraction = info.Done / total
	}
	switch info.Status {
	case sched.StatusFinished:
		v.Fraction = 1
		v.SingleETA, v.MultiETA = 0, 0
		v.ETALow, v.ETAHigh = 0, 0
	case sched.StatusAborted, sched.StatusFailed:
		v.SingleETA, v.MultiETA = 0, 0
		v.ETALow, v.ETAHigh = 0, 0
	case sched.StatusScheduled:
		// Not in the system yet: no meaningful estimate.
		v.SingleETA = Seconds(math.Inf(1))
		v.MultiETA = Seconds(math.Inf(1))
		v.ETALow = Seconds(math.Inf(1))
		v.ETAHigh = Seconds(math.Inf(1))
	default:
		v.SingleETA = Seconds(est.SingleQuery)
		v.MultiETA = Seconds(est.MultiQuery)
		v.ETALow = Seconds(est.ETALow)
		v.ETAHigh = Seconds(est.ETAHigh)
	}
	return v
}
