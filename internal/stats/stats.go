// Package stats provides the small statistical toolkit the experiment
// harness uses: streaming summaries (mean and stddev — the paper
// averages five independent executions per result (§4.1), and this
// package carries the spread alongside the mean so the reproduction
// can report both) and quantile estimation over recorded samples.
package stats

import (
	"math"
	"sort"
)

// Summary is a streaming univariate summary. The zero value is ready
// to use.
type Summary struct {
	n    uint64
	mean float64
	m2   float64 // sum of squared deviations (Welford)
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	// Welford's online update: numerically stable for long streams.
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Mean returns the arithmetic mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the sample variance (n-1 denominator; 0 for n < 2).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Var()) }

// Sample records raw observations for quantile queries. Intended for
// per-operation latency distributions (thousands of points), not
// unbounded streams.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Quantile returns the q-quantile (q in [0,1]) by linear interpolation
// between order statistics; 0 when empty.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// P99 returns the 0.99 quantile.
func (s *Sample) P99() float64 { return s.Quantile(0.99) }
