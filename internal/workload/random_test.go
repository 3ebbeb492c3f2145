package workload

import (
	"math"
	"math/rand"
	"testing"
)

func TestZipfErrors(t *testing.T) {
	if _, err := NewZipf(1.2, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := NewZipf(0, 10); err == nil {
		t.Error("a=0 should fail")
	}
	if _, err := NewZipf(-1, 10); err == nil {
		t.Error("a<0 should fail")
	}
}

func TestZipfSamplesInRange(t *testing.T) {
	z, err := NewZipf(1.2, 50)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		k := z.Sample(rng)
		if k < 1 || k > 50 {
			t.Fatalf("sample %d out of range", k)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z, _ := NewZipf(2.2, 20)
	rng := rand.New(rand.NewSource(4))
	counts := make([]int, 21)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Sample(rng)]++
	}
	// P(1) = 1/H where H = Σ_{k≤20} 1/k^2.2 ≈ 1.47: about 68%.
	frac1 := float64(counts[1]) / n
	if frac1 < 0.6 || frac1 < float64(counts[2])/n {
		t.Errorf("P(1) = %g; distribution not Zipf-skewed", frac1)
	}
	// Monotone decreasing probabilities (statistically).
	if counts[1] < counts[2] || counts[2] < counts[5] {
		t.Errorf("counts not decreasing: %v", counts[:6])
	}
}

func TestZipfMeanMatchesEmpirical(t *testing.T) {
	z, _ := NewZipf(1.2, 30)
	analytic := z.Mean()
	rng := rand.New(rand.NewSource(5))
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(z.Sample(rng))
	}
	empirical := sum / n
	if math.Abs(analytic-empirical) > 0.1*analytic {
		t.Errorf("mean: analytic %g vs empirical %g", analytic, empirical)
	}
}

// Property: the CDF is complete — for any u in [0,1) a sample exists, and a
// degenerate support of 1 always yields 1.
func TestZipfDegenerate(t *testing.T) {
	z, err := NewZipf(1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		if z.Sample(rng) != 1 {
			t.Fatal("K=1 must always sample 1")
		}
	}
	if z.Mean() != 1 {
		t.Errorf("mean = %g", z.Mean())
	}
}

func TestZipfDeterministic(t *testing.T) {
	z, _ := NewZipf(1.2, 50)
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		if z.Sample(a) != z.Sample(b) {
			t.Fatal("same seed must give same samples")
		}
	}
}

func TestPoissonInterarrivals(t *testing.T) {
	p := Poisson{Lambda: 0.1}
	rng := rand.New(rand.NewSource(7))
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		d := p.NextInterarrival(rng)
		if d < 0 {
			t.Fatal("negative interarrival")
		}
		sum += d
	}
	mean := sum / n
	if math.Abs(mean-10) > 0.5 {
		t.Errorf("mean interarrival = %g, want ~10", mean)
	}
}

func TestPoissonZeroRate(t *testing.T) {
	p := Poisson{Lambda: 0}
	rng := rand.New(rand.NewSource(8))
	if !math.IsInf(p.NextInterarrival(rng), 1) {
		t.Error("zero rate should never fire")
	}
}
