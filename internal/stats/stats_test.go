package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.n != 0 || s.Mean() != 0 || s.Stddev() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.n != 8 {
		t.Fatalf("n = %d", s.n)
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", s.Mean())
	}
	// Population stddev of this classic set is 2; sample stddev is
	// sqrt(32/7).
	if !almost(s.Stddev(), math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("Stddev = %v", s.Stddev())
	}
}

func TestSummarySingleObservation(t *testing.T) {
	var s Summary
	s.Add(42)
	if s.Var() != 0 || s.Stddev() != 0 {
		t.Fatal("variance of one point must be 0")
	}
	if s.Mean() != 42 {
		t.Fatal("single-point summary wrong")
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 {
		t.Fatal("empty sample quantile must be 0")
	}
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if !almost(s.Median(), 50.5, 1e-9) {
		t.Fatalf("median = %v", s.Median())
	}
	if s.Quantile(0) != 1 || s.Quantile(1) != 100 {
		t.Fatal("extreme quantiles wrong")
	}
	if p99 := s.P99(); p99 < 99 || p99 > 100 {
		t.Fatalf("p99 = %v", p99)
	}
}

func TestSampleUnsortedInsertions(t *testing.T) {
	var s Sample
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(1000) {
		s.Add(float64(i))
	}
	if !almost(s.Quantile(0.25), 249.75, 1) {
		t.Fatalf("q25 = %v", s.Quantile(0.25))
	}
	// Adding after a quantile query must re-sort.
	s.Add(-5)
	if s.Quantile(0) != -5 {
		t.Fatal("sample did not resort after Add")
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, qa, qb float64) bool {
		var s Sample
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				s.Add(x)
			}
		}
		if len(s.xs) == 0 {
			return true
		}
		qa = math.Abs(qa)
		qb = math.Abs(qb)
		qa -= math.Floor(qa)
		qb -= math.Floor(qb)
		lo, hi := math.Min(qa, qb), math.Max(qa, qb)
		return s.Quantile(lo) <= s.Quantile(hi) &&
			s.Quantile(0) <= s.Quantile(lo) &&
			s.Quantile(hi) <= s.Quantile(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
			c.Add(2)
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8*1002 {
		t.Fatalf("Counter = %d, want %d", got, 8*1002)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Load(); got != 1 {
		t.Fatalf("Gauge = %d, want 1", got)
	}
	// The whole point of the type: a mispaired or interleaved Dec must
	// surface as 0, never as a ~2^64 underflow.
	g.Dec()
	g.Dec()
	if got := g.Load(); got != 0 {
		t.Fatalf("underflowed Gauge = %d, want clamped 0", got)
	}
	g.Inc() // internal level is -1 + 1 = 0; still clamped sane
	if got := g.Load(); got != 0 {
		t.Fatalf("recovering Gauge = %d, want 0", got)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Inc()
				if g.Load() > 1<<32 {
					t.Error("Gauge read as underflow under concurrency")
				}
				g.Dec()
			}
		}()
	}
	wg.Wait()
}
