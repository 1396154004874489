package stats

import (
	"bytes"
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestBucketGeometry proves the bucket indexing is a partition of the
// uint64 range: buckets are contiguous, non-overlapping, and both
// bounds of every bucket map back to its own index.
func TestBucketGeometry(t *testing.T) {
	var prevHi uint64
	for i := 0; i < histBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo > hi {
			t.Fatalf("bucket %d: lo %d > hi %d", i, lo, hi)
		}
		if i == 0 {
			if lo != 0 {
				t.Fatalf("bucket 0 starts at %d, want 0", lo)
			}
		} else if lo != prevHi+1 {
			t.Fatalf("bucket %d: lo %d leaves a gap after previous hi %d", i, lo, prevHi)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(lo=%d) = %d, want %d", lo, got, i)
		}
		if got := bucketIndex(hi); got != i {
			t.Fatalf("bucketIndex(hi=%d) = %d, want %d", hi, got, i)
		}
		prevHi = hi
	}
	if prevHi != math.MaxUint64 {
		t.Fatalf("top bucket ends at %d, want MaxUint64", prevHi)
	}

	// Random values land in a bucket whose bounds contain them.
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 10_000; n++ {
		v := rng.Uint64() >> rng.Intn(64)
		lo, hi := BucketBounds(bucketIndex(v))
		if v < lo || v > hi {
			t.Fatalf("value %d outside its bucket [%d, %d]", v, lo, hi)
		}
	}
}

// TestQuantileAccuracy checks quantile estimates against a sorted
// oracle of the same observations: every estimate must fall inside the
// value range spanned by the buckets of the oracle's neighbouring
// ranks — i.e. within one bucket width (≤ ~1/8 relative) of the truth.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 20_000
	h := &Histogram{}
	oracle := make([]uint64, n)
	for i := range oracle {
		// Log-uniform over ~9 decades: exercises small exact buckets
		// and wide high-octave buckets alike.
		v := uint64(math.Exp(rng.Float64() * math.Log(1e9)))
		oracle[i] = v
		h.Observe(v)
	}
	sort.Slice(oracle, func(i, j int) bool { return oracle[i] < oracle[j] })
	snap := h.Snapshot()
	if snap.Count != n {
		t.Fatalf("snapshot count %d, want %d", snap.Count, n)
	}
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		rank := q * float64(n-1)
		loRank, hiRank := int(math.Floor(rank)), int(math.Ceil(rank))
		lo, _ := BucketBounds(bucketIndex(oracle[loRank]))
		_, hi := BucketBounds(bucketIndex(oracle[hiRank]))
		est := snap.Quantile(q)
		if est < float64(lo) || est > float64(hi) {
			t.Errorf("q=%v: estimate %.1f outside oracle bucket range [%d, %d] (true %d)",
				q, est, lo, hi, oracle[loRank])
		}
	}
}

// TestQuantileExactLowRange: values below the sub-bucket threshold have
// unit-width buckets, so quantiles there are exact.
func TestQuantileExactLowRange(t *testing.T) {
	h := &Histogram{}
	for v := uint64(0); v < histSub; v++ {
		h.Observe(v)
	}
	snap := h.Snapshot()
	for v := 0; v < histSub; v++ {
		q := float64(v) / float64(histSub-1)
		if got := snap.Quantile(q); got != float64(v) {
			t.Fatalf("Quantile(%v) = %v, want exactly %d", q, got, v)
		}
	}
}

// TestMergeAssociativeCommutative: merging snapshots is bucket-wise
// addition, so any merge order yields the identical distribution.
func TestMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func() *HistSnapshot {
		h := &Histogram{}
		for i := 0; i < 1000; i++ {
			h.Observe(rng.Uint64() >> rng.Intn(60))
		}
		return h.Snapshot()
	}
	a, b, c := mk(), mk(), mk()

	abc1 := *a // (a+b)+c
	abc1.Merge(b)
	abc1.Merge(c)
	bc := *b // a+(b+c)
	bc.Merge(c)
	abc2 := *a
	abc2.Merge(&bc)
	if abc1 != abc2 {
		t.Fatal("merge is not associative")
	}
	ab := *a
	ab.Merge(b)
	ba := *b
	ba.Merge(a)
	if ab != ba {
		t.Fatal("merge is not commutative")
	}
	if abc1.Count != a.Count+b.Count+c.Count || abc1.Sum != a.Sum+b.Sum+c.Sum {
		t.Fatal("merge lost observations")
	}
}

// TestEmptyHistogram: the zero snapshot answers every query with 0.
func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	snap := h.Snapshot()
	if snap.Count != 0 || snap.Sum != 0 {
		t.Fatalf("zero histogram snapshot not empty: count=%d sum=%d", snap.Count, snap.Sum)
	}
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := snap.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if snap.Mean() != 0 || snap.Max() != 0 {
		t.Fatalf("empty Mean/Max not 0: %v, %v", snap.Mean(), snap.Max())
	}
}

// TestHistogramExactStats: Count and Sum are exact (not bucketised),
// and Max overestimates by at most the top bucket's width.
func TestHistogramExactStats(t *testing.T) {
	h := &Histogram{}
	vals := []uint64{0, 1, 7, 8, 100, 1_000_000, 1 << 40}
	var sum uint64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	snap := h.Snapshot()
	if snap.Count != uint64(len(vals)) {
		t.Fatalf("Count = %d, want %d", snap.Count, len(vals))
	}
	if snap.Sum != sum {
		t.Fatalf("Sum = %d, want %d", snap.Sum, sum)
	}
	if want := float64(sum) / float64(len(vals)); snap.Mean() != want {
		t.Fatalf("Mean = %v, want %v", snap.Mean(), want)
	}
	maxVal := vals[len(vals)-1]
	lo, hi := BucketBounds(bucketIndex(maxVal))
	if m := snap.Max(); m < float64(lo) || m > float64(hi) {
		t.Fatalf("Max = %v outside the true max's bucket [%d, %d]", m, lo, hi)
	}
}

// TestHistogramConcurrent hammers one histogram from several goroutines
// (meaningful under -race) and checks no observation is lost.
func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				h.Observe(rng.Uint64() >> 20)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("Count = %d, want %d", got, workers*per)
	}
}

// TestRegistryExposition renders a registry holding every metric kind
// and proves the output conformant via the independent checker, then
// spot-checks the parsed values against the registered state.
func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	var reqs Counter
	reqs.Add(41)
	reqs.Inc()
	r.RegisterCounter("test_requests_total", "", "Requests handled.", reqs.Load)
	r.RegisterCounter("test_by_op_total", Label("op", "get"), "Per-op requests.", func() uint64 { return 7 })
	r.RegisterCounter("test_by_op_total", Label("op", "put"), "Per-op requests.", func() uint64 { return 9 })
	r.RegisterFloatCounter("test_busy_seconds_total", "", "Cumulative busy time.", func() float64 { return 1.5 })
	r.RegisterGauge("test_depth", "", "Current queue depth.", func() float64 { return -3 })
	h := &Histogram{}
	for _, v := range []uint64{5, 80, 80, 3000} {
		h.Observe(v)
	}
	r.RegisterHistogram("test_latency_seconds", Label("op", "get"), "Latency.", 1e-9, h)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ValidateExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("registry output fails conformance:\n%s\nerror: %v", buf.String(), err)
	}

	if v, ok := fams["test_requests_total"].Sample(""); !ok || v != 42 {
		t.Fatalf("test_requests_total = %v, %v", v, ok)
	}
	if v, ok := fams["test_by_op_total"].Sample(`op="put"`); !ok || v != 9 {
		t.Fatalf(`test_by_op_total{op="put"} = %v, %v`, v, ok)
	}
	if v, ok := fams["test_depth"].Sample(""); !ok || v != -3 {
		t.Fatalf("test_depth = %v, %v", v, ok)
	}
	lat := fams["test_latency_seconds"]
	if lat == nil || lat.Type != "histogram" {
		t.Fatalf("test_latency_seconds family missing or mistyped: %+v", lat)
	}
	if v := lat.Samples[`_count|op="get"`]; v != 4 {
		t.Fatalf("latency count = %v, want 4", v)
	}
	if v := lat.Samples[`_sum|op="get"`]; math.Abs(v-3165e-9) > 1e-15 {
		t.Fatalf("latency sum = %v, want 3.165e-6", v)
	}

	// Registration order is preserved in the render.
	var names []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == "#" && f[1] == "TYPE" {
			names = append(names, f[2])
		}
	}
	want := []string{"test_requests_total", "test_by_op_total", "test_busy_seconds_total", "test_depth", "test_latency_seconds"}
	if len(names) != len(want) {
		t.Fatalf("families %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("families %v, want %v", names, want)
		}
	}
}

// TestRegistryServeHTTP: the registry mounts directly at /metrics with
// the exposition content type; non-GET is refused.
func TestRegistryServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounter("test_total", "", "t", func() uint64 { return 1 })
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	if _, err := ValidateExposition(rec.Body); err != nil {
		t.Fatalf("served body fails conformance: %v", err)
	}
	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST status %d, want 405", rec.Code)
	}
}

// TestRegistryPanics: wiring mistakes (duplicates, type conflicts, bad
// names) are programmer errors and must fail loudly at registration.
func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.RegisterCounter("dup_total", "", "d", func() uint64 { return 0 })
	mustPanic("duplicate series", func() {
		r.RegisterCounter("dup_total", "", "d", func() uint64 { return 0 })
	})
	mustPanic("type conflict", func() {
		r.RegisterGauge("dup_total", Label("x", "y"), "d", func() float64 { return 0 })
	})
	mustPanic("invalid metric name", func() {
		r.RegisterCounter("9bad", "", "d", func() uint64 { return 0 })
	})
	mustPanic("invalid label name", func() { Label("0op", "get") })
}

// TestLabelEscaping: hostile label values survive the render → parse
// round trip.
func TestLabelEscaping(t *testing.T) {
	hostile := "a\"b\\c\nd"
	r := NewRegistry()
	r.RegisterCounter("esc_total", Label("path", hostile), "e", func() uint64 { return 5 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ValidateExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("escaped output fails conformance:\n%s\nerror: %v", buf.String(), err)
	}
	if v, ok := fams["esc_total"].Sample(Label("path", hostile)); !ok || v != 5 {
		t.Fatalf("escaped sample lost: %v, %v", v, ok)
	}
}

// TestValidateExpositionRejects: the checker must refuse each class of
// malformed exposition it exists to catch — otherwise the conformance
// tests built on it prove nothing.
func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct{ name, in string }{
		{"sample before TYPE", "orphan_total 3\n"},
		{"unknown type", "# TYPE x sometype\nx 1\n"},
		{"duplicate TYPE", "# TYPE x counter\n# TYPE x counter\nx 1\n"},
		{"TYPE after samples", "# TYPE x counter\nx 1\n# TYPE x counter\n"},
		{"duplicate sample", "# TYPE x counter\nx 1\nx 2\n"},
		{"negative counter", "# TYPE x counter\nx -1\n"},
		{"bad metric name", "# TYPE x counter\n9x 1\n"},
		{"bad value", "# TYPE x counter\nx pear\n"},
		{"unterminated labels", "# TYPE x counter\nx{a=\"b\" 1\n"},
		{"unquoted label value", "# TYPE x counter\nx{a=b} 1\n"},
		{"bare histogram sample", "# TYPE h histogram\nh 1\n"},
		{"histogram without +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 2\nh_count 2\n"},
		{"decreasing buckets", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n"},
		{"+Inf != count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 5\n"},
		{"histogram missing _sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket{op=\"x\"} 2\nh_sum 1\nh_count 2\n"},
	}
	for _, c := range cases {
		if _, err := ValidateExposition(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted:\n%s", c.name, c.in)
		}
	}

	// And the checker accepts a correct multi-series histogram.
	good := "# HELP h Latency.\n# TYPE h histogram\n" +
		"h_bucket{op=\"get\",le=\"1\"} 2\nh_bucket{op=\"get\",le=\"+Inf\"} 3\nh_sum{op=\"get\"} 4\nh_count{op=\"get\"} 3\n" +
		"h_bucket{op=\"put\",le=\"+Inf\"} 1\nh_sum{op=\"put\"} 2\nh_count{op=\"put\"} 1\n"
	if _, err := ValidateExposition(strings.NewReader(good)); err != nil {
		t.Errorf("rejected conformant input: %v", err)
	}
}
