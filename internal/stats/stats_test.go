package stats

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Stddev() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", s.Mean())
	}
	// Population stddev of this classic set is 2; sample stddev is
	// sqrt(32/7).
	if !almost(s.Stddev(), math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("Stddev = %v", s.Stddev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSummarySingleObservation(t *testing.T) {
	var s Summary
	s.Add(42)
	if s.Var() != 0 || s.Stddev() != 0 {
		t.Fatal("variance of one point must be 0")
	}
	if s.Min() != 42 || s.Max() != 42 || s.Mean() != 42 {
		t.Fatal("single-point summary wrong")
	}
}

func TestRelStddev(t *testing.T) {
	var s Summary
	s.Add(90)
	s.Add(110)
	if !almost(s.RelStddev(), s.Stddev()/100, 1e-12) {
		t.Fatalf("RelStddev = %v", s.RelStddev())
	}
	var z Summary
	z.Add(0)
	z.Add(0)
	if z.RelStddev() != 0 {
		t.Fatal("RelStddev of zero-mean must be 0")
	}
}

// Property: Merge(a, b) equals adding all observations to one summary.
func TestQuickMergeEquivalence(t *testing.T) {
	f := func(xs, ys []float64) bool {
		clean := func(in []float64) []float64 {
			var out []float64
			for _, x := range in {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
					out = append(out, x)
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var a, b, all Summary
		for _, x := range xs {
			a.Add(x)
			all.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
			all.Add(y)
		}
		a.Merge(b)
		if a.N() != all.N() {
			return false
		}
		if all.N() == 0 {
			return true
		}
		scale := 1e-9 * (1 + math.Abs(all.Mean()))
		return almost(a.Mean(), all.Mean(), scale) &&
			almost(a.Var(), all.Var(), 1e-6*(1+all.Var()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
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
	if !almost(s.Mean(), 50.5, 1e-9) {
		t.Fatalf("mean = %v", s.Mean())
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

func TestRepeated(t *testing.T) {
	r := NewRepeated()
	for run := 0; run < 5; run++ {
		r.Record("latency", 100+float64(run))
		r.Record("misses", 2)
	}
	if got := r.Names(); len(got) != 2 || got[0] != "latency" || got[1] != "misses" {
		t.Fatalf("Names = %v", got)
	}
	lat := r.Get("latency")
	if lat.N() != 5 || !almost(lat.Mean(), 102, 1e-12) {
		t.Fatalf("latency summary = %+v", lat)
	}
	if r.Get("misses").Stddev() != 0 {
		t.Fatal("constant metric must have zero spread")
	}
	if r.Get("absent") != nil {
		t.Fatal("unknown metric must be nil")
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
		if s.N() == 0 {
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

func TestMergeEdgeCases(t *testing.T) {
	var empty, filled Summary
	filled.Add(5)
	filled.Add(7)

	// Merging empty into filled: unchanged.
	snapshot := filled
	filled.Merge(empty)
	if filled != snapshot {
		t.Fatal("merging empty changed the summary")
	}
	// Merging filled into empty: adopts it wholesale.
	var a Summary
	a.Merge(filled)
	if a.N() != 2 || a.Mean() != 6 {
		t.Fatalf("adopted summary = %+v", a)
	}
	// Disjoint ranges update min/max.
	var lo, hi Summary
	lo.Add(1)
	lo.Add(2)
	hi.Add(100)
	hi.Add(200)
	lo.Merge(hi)
	if lo.Min() != 1 || lo.Max() != 200 || lo.N() != 4 {
		t.Fatalf("merged = %+v", lo)
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
