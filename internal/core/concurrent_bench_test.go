package core

import (
	"sync/atomic"
	"testing"

	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
	"grouphash/internal/native"
)

// benchConcurrent builds a concurrent table over native memory at ~50%
// load. With optimistic=false the backend is wrapped so it loses the
// ConcurrentReadSafe marker, forcing lookups onto the shared RWMutex —
// the pre-seqlock behaviour, kept as the benchmark baseline.
func benchConcurrent(b *testing.B, optimistic bool) (*Concurrent, []layout.Key) {
	b.Helper()
	nat := native.New(64 << 20)
	var mem hashtab.Mem = nat
	if !optimistic {
		mem = lockedOnlyMem{nat}
	}
	tab, err := Create(mem, Options{Cells: 1 << 16, GroupSize: 64, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	c := NewConcurrent(tab, 0)
	if c.optimistic != optimistic {
		b.Fatalf("optimistic = %v, want %v", c.optimistic, optimistic)
	}
	n := tab.Capacity() / 2
	keys := make([]layout.Key, 0, n)
	for i := uint64(1); uint64(len(keys)) < n; i++ {
		k := layout.Key{Lo: i * 2654435761}
		if err := c.Apply(BatchOp{Kind: BatchInsert, Key: k, Value: i}).Err; err != nil {
			b.Fatal(err)
		}
		keys = append(keys, k)
	}
	return c, keys
}

// BenchmarkConcurrentLookupParallel measures read throughput of the
// concurrent table under b.RunParallel (GOMAXPROCS goroutines; vary
// with -cpu 1,2,4,8 to see scaling). The seqlock variant takes no lock
// on the read path and should scale near-linearly; the rwlock variant
// is the old behaviour, which plateaus on the shared RWMutex's atomic
// reader count.
func BenchmarkConcurrentLookupParallel(b *testing.B) {
	for _, mode := range []struct {
		name       string
		optimistic bool
	}{{"seqlock", true}, {"rwlock", false}} {
		b.Run(mode.name, func(b *testing.B) {
			c, keys := benchConcurrent(b, mode.optimistic)
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Give each goroutine a distinct stride start so they
				// don't probe the same key in lockstep.
				i := seq.Add(1) * 7919
				for pb.Next() {
					k := keys[i%uint64(len(keys))]
					if _, ok := c.Lookup(k); !ok {
						b.Fatal("key lost")
					}
					i++
				}
			})
		})
	}
}

// BenchmarkConcurrentMixedParallel runs a 90/10 lookup/put mix (every
// put overwrites a present key), the regime the seqlock is designed
// for: rare writers bump stripe versions while the read majority stays
// lock-free.
func BenchmarkConcurrentMixedParallel(b *testing.B) {
	for _, mode := range []struct {
		name       string
		optimistic bool
	}{{"seqlock", true}, {"rwlock", false}} {
		b.Run(mode.name, func(b *testing.B) {
			c, keys := benchConcurrent(b, mode.optimistic)
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := seq.Add(1) * 7919
				for pb.Next() {
					k := keys[i%uint64(len(keys))]
					if i%10 == 0 {
						c.Apply(BatchOp{Kind: BatchPut, Key: k, Value: i})
					} else if _, ok := c.Lookup(k); !ok {
						b.Fatal("key lost")
					}
					i++
				}
			})
		})
	}
}
