package stats

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is a concurrency-safe, fixed-memory latency/size histogram
// with logarithmically spaced buckets: every power-of-two octave is
// split into 8 sub-buckets, so any uint64 observation lands in one of
// 496 buckets with a relative width of at most 1/8. Observe is two
// atomic adds and a handful of bit operations — no locks, no
// allocation — cheap enough for a per-request network hot path, unlike
// a mutex-guarded random sample, which also forgets the tail.
//
// The tradeoff against raw samples is bounded quantile error: a value
// is only known to within its bucket, so any quantile estimate is off
// by at most half a bucket width (≈6.5% relative, see HistSnapshot.
// Quantile). Averages over millions of tail-heavy request latencies
// hide exactly the effects this resolution still captures.
//
// The zero value is ready to use. Snapshots are mergeable, so
// per-connection or per-shard histograms can be combined into one
// distribution without locking writers.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64
}

// Bucket geometry: values below 2^histSubBits get exact unit buckets;
// above, the top histSubBits bits after the leading bit select a
// sub-bucket within the value's octave.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	// histBuckets covers the full uint64 range: shift ∈ [0, 60] octave
	// segments of histSub buckets each, plus the exact low range.
	histBuckets = (64-histSubBits)<<histSubBits + histSub
)

// bucketIndex maps an observation to its bucket. Values 0..2^3-1 map
// to themselves; larger values map to ((shift+1)<<3)+mantissa where
// shift = floor(log2(v)) - 3 and mantissa is the 3 bits after the
// leading one — a contiguous, monotone indexing.
func bucketIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := uint(bits.Len64(v)-1) - histSubBits
	mantissa := int((v >> shift) & (histSub - 1))
	return (int(shift)+1)<<histSubBits + mantissa
}

// BucketBounds returns the inclusive [lo, hi] value range of bucket i.
// Exposed for exposition rendering and accuracy tests.
func BucketBounds(i int) (lo, hi uint64) {
	if i < histSub {
		return uint64(i), uint64(i)
	}
	shift := uint(i>>histSubBits) - 1
	m := uint64(i & (histSub - 1))
	lo = (histSub + m) << shift
	hi = lo + (1 << shift) - 1
	return lo, hi
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// Snapshot copies the current state into an immutable HistSnapshot.
// Concurrent Observes may land between bucket reads — the snapshot is
// a consistent-enough point-in-time view (each bucket individually
// exact, totals monotone), which is all a scrape needs.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			s.Buckets[i] = n
			s.Count += n
		}
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, suitable for
// quantile queries, merging and exposition. The zero value is an empty
// distribution.
type HistSnapshot struct {
	// Buckets holds per-bucket observation counts, indexed as in
	// BucketBounds.
	Buckets [histBuckets]uint64
	// Count is the total number of observations.
	Count uint64
	// Sum is the sum of all observed values.
	Sum uint64
}

// Merge folds o into s, as if both underlying histograms had observed
// one combined stream. Merging is exact (bucket-wise addition), so it
// is associative and commutative.
func (s *HistSnapshot) Merge(o *HistSnapshot) {
	for i, n := range o.Buckets {
		s.Buckets[i] += n
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed
// distribution: the bucket containing the rank is located by a
// cumulative walk and the position inside it is linearly interpolated.
// The estimate is exact for values below 8 and within half a bucket
// (≤ ~6.5% relative) above. Returns 0 for an empty snapshot.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count-1)
	var cum uint64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) > rank {
			lo, hi := BucketBounds(i)
			if lo == hi {
				return float64(lo)
			}
			// Interpolate the rank's position within the bucket,
			// assuming observations spread uniformly across it.
			frac := (rank - float64(cum)) / float64(n)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += n
	}
	// Unreachable with a consistent snapshot; return the top edge.
	return math.MaxUint64
}

// Mean returns the arithmetic mean of the observations (exact, from
// the running sum), or 0 when empty.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Max returns the upper bound of the highest non-empty bucket (an
// overestimate of the true maximum by at most the bucket width), or 0
// when empty.
func (s *HistSnapshot) Max() float64 {
	for i := histBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			_, hi := BucketBounds(i)
			return float64(hi)
		}
	}
	return 0
}
