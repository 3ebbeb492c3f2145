package core

import "math"

// SingleQueryRemainingTime is the single-query PI of [11, 12] that the paper
// compares against: t = c/s, where c is the refined remaining cost and s is
// the query's currently observed execution speed. It implicitly reflects
// concurrent queries (the observed speed is lower when they run) but assumes
// the current speed persists until the query finishes.
func SingleQueryRemainingTime(remaining, observedSpeed float64) float64 {
	if remaining <= 0 {
		return 0
	}
	if observedSpeed <= 0 {
		return math.Inf(1)
	}
	return remaining / observedSpeed
}

// SpeedTracker observes a query's execution speed over a sliding window of
// virtual time, the way the single-query PI "continuously monitors the
// current query execution speed". Samples must be added with nondecreasing
// timestamps. Storage is a ring: once the window's worth of samples fits the
// backing arrays, steady observation allocates nothing (the old append-based
// tracker reallocated on every slice doubling and on compaction, which showed
// up as the scheduler tick's steady-state allocations).
type SpeedTracker struct {
	window float64
	times  []float64 // ring storage, len(times) == capacity
	work   []float64
	head   int // ring index of the oldest live sample
	n      int // live sample count
}

// NewSpeedTracker creates a tracker with the given window in seconds.
func NewSpeedTracker(window float64) *SpeedTracker {
	return NewSpeedTrackerSized(window, 0)
}

// NewSpeedTrackerSized pre-sizes the ring for the expected number of
// in-window samples, so a caller that knows its observation cadence (one per
// scheduler quantum) gets a tracker that never reallocates. samples <= 0
// starts empty and grows on demand.
func NewSpeedTrackerSized(window float64, samples int) *SpeedTracker {
	if window <= 0 {
		window = 10
	}
	t := &SpeedTracker{window: window}
	if samples > 0 {
		t.times = make([]float64, samples)
		t.work = make([]float64, samples)
	}
	return t
}

// idx maps a logical offset from the oldest sample to a ring index.
func (t *SpeedTracker) idx(i int) int {
	i += t.head
	if i >= len(t.times) {
		i -= len(t.times)
	}
	return i
}

// grow doubles the ring, linearizing the live samples to the front.
func (t *SpeedTracker) grow() {
	c := 2 * len(t.times)
	if c < 8 {
		c = 8
	}
	times := make([]float64, c)
	work := make([]float64, c)
	for i := 0; i < t.n; i++ {
		j := t.idx(i)
		times[i], work[i] = t.times[j], t.work[j]
	}
	t.times, t.work = times, work
	t.head = 0
}

// Observe records cumulative work done at time now.
func (t *SpeedTracker) Observe(now, cumWork float64) {
	if t.n == len(t.times) {
		t.grow()
	}
	i := t.idx(t.n)
	t.times[i], t.work[i] = now, cumWork
	t.n++
	// Drop samples older than the window, keeping at least two: with sparse
	// observations (gaps longer than the window) the newest pair still yields
	// a speed, where dropping down to one sample would report 0 for a query
	// that is steadily running.
	for t.n > 2 && t.times[t.idx(1)] <= now-t.window {
		t.head = t.idx(1)
		t.n--
	}
}

// Speed returns the observed speed in U/s over the window, or 0 if fewer
// than two samples (or no time) have been observed.
func (t *SpeedTracker) Speed() float64 {
	if t.n < 2 {
		return 0
	}
	oldest, newest := t.idx(0), t.idx(t.n-1)
	dt := t.times[newest] - t.times[oldest]
	if dt <= 0 {
		return 0
	}
	dw := t.work[newest] - t.work[oldest]
	if dw < 0 {
		return 0
	}
	return dw / dt
}
