// Package workload generates the paper's experimental workload: TPC-R-style
// relations (lineitem and the part_i family of Table 1), the nested query Qi
// over them, Zipfian size distributions, and Poisson arrival processes. All
// randomness flows through explicit *rand.Rand sources so every experiment
// is reproducible from its seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Zipf samples from {1, …, K} with P(k) ∝ 1/k^a, the distribution the paper
// uses for the part-table sizes N_i. (math/rand's Zipf generator requires
// a > 1 and has a different parameterization; the experiments need exact
// control, so this one is implemented directly via the inverse CDF.)
type Zipf struct {
	a   float64
	cdf []float64
}

// NewZipf builds a Zipf distribution over {1..k} with exponent a > 0.
func NewZipf(a float64, k int) (*Zipf, error) {
	if k < 1 {
		return nil, fmt.Errorf("workload: Zipf support must be >= 1, got %d", k)
	}
	if a <= 0 {
		return nil, fmt.Errorf("workload: Zipf exponent must be positive, got %g", a)
	}
	cdf := make([]float64, k)
	sum := 0.0
	for i := 1; i <= k; i++ {
		sum += 1 / math.Pow(float64(i), a)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[k-1] = 1 // guard against rounding
	return &Zipf{a: a, cdf: cdf}, nil
}

// Sample draws one value in {1..K}.
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u) + 1
}

// Mean returns the distribution's expected value.
func (z *Zipf) Mean() float64 {
	m := 0.0
	prev := 0.0
	for i, c := range z.cdf {
		m += float64(i+1) * (c - prev)
		prev = c
	}
	return m
}

// Poisson is a Poisson arrival process with rate Lambda (events/second).
type Poisson struct {
	Lambda float64
}

// NextInterarrival draws an exponential inter-arrival time. A non-positive
// rate yields +Inf (no arrivals).
func (p Poisson) NextInterarrival(rng *rand.Rand) float64 {
	if p.Lambda <= 0 {
		return math.Inf(1)
	}
	return rng.ExpFloat64() / p.Lambda
}
