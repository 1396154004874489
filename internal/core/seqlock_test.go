package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"grouphash/internal/cache"
	"grouphash/internal/layout"
	"grouphash/internal/memsim"
	"grouphash/internal/native"
)

// lockedOnlyMem wraps a native.Memory WITHOUT forwarding the
// ConcurrentReadSafe marker, forcing Concurrent onto the pessimistic
// read-lock path. Used to test and benchmark both modes.
type lockedOnlyMem struct{ m *native.Memory }

func (w lockedOnlyMem) Read8(addr uint64) uint64        { return w.m.Read8(addr) }
func (w lockedOnlyMem) Write8(addr, val uint64)         { w.m.Write8(addr, val) }
func (w lockedOnlyMem) AtomicWrite8(addr, val uint64)   { w.m.AtomicWrite8(addr, val) }
func (w lockedOnlyMem) Persist(addr, n uint64)          {}
func (w lockedOnlyMem) Alloc(size, align uint64) uint64 { return w.m.Alloc(size, align) }
func (w lockedOnlyMem) Size() uint64                    { return w.m.Size() }

func TestConcurrentOptimisticModeSelection(t *testing.T) {
	// Native backend: atomic word reads, so the seqlock path is on.
	tab := mustCreate(t, native.New(1<<20), Options{Cells: 256, GroupSize: 16})
	if c := NewConcurrent(tab, 0); !c.OptimisticReads() {
		t.Fatal("native backend should enable optimistic reads")
	}

	// Simulated backend: every read mutates the cache model and clock,
	// so unlocked reads are never allowed.
	mem := memsim.New(memsim.Config{Size: 1 << 20, Seed: 1, Geoms: cache.SmallGeometry()})
	tab2 := mustCreate(t, mem, Options{Cells: 256, GroupSize: 16})
	if c := NewConcurrent(tab2, 0); c.OptimisticReads() {
		t.Fatal("memsim backend must not enable optimistic reads")
	}

	// Backend without the marker interface: locked path.
	tab3 := mustCreate(t, lockedOnlyMem{native.New(1 << 20)}, Options{Cells: 256, GroupSize: 16})
	if c := NewConcurrent(tab3, 0); c.OptimisticReads() {
		t.Fatal("marker-less backend must not enable optimistic reads")
	}
}

// TestConcurrentSeqlockChurn hammers a small hot key set with
// delete/reinsert churn while unlocked readers probe the same keys.
// The invariant a correct seqlock must uphold: a successful lookup
// never returns a value from a half-applied write — every present key
// maps to key*2, inserted values only ever being key*2. Run under
// -race (the Makefile test target does) this also proves the optimistic
// read path is free of data races.
func TestConcurrentSeqlockChurn(t *testing.T) {
	mem := native.New(16 << 20)
	tab := mustCreate(t, mem, Options{Cells: 1 << 12, GroupSize: 64, Seed: 11})
	c := NewConcurrent(tab, 8)
	if !c.OptimisticReads() {
		t.Fatal("precondition: optimistic reads enabled")
	}

	const hotKeys = 64
	for i := uint64(1); i <= hotKeys; i++ {
		if err := c.Apply(BatchOp{Kind: BatchInsert, Key: layout.Key{Lo: i}, Value: i * 2}).Err; err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var writers, readers sync.WaitGroup

	// Writers: churn the hot keys so readers constantly race commits.
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 4000; i++ {
				k := layout.Key{Lo: uint64((i+w*31)%hotKeys) + 1}
				if c.Apply(BatchOp{Kind: BatchDelete, Key: k}).Found {
					if err := c.Apply(BatchOp{Kind: BatchInsert, Key: k, Value: k.Lo * 2}).Err; err != nil {
						t.Errorf("reinsert: %v", err)
						return
					}
				}
			}
		}(w)
	}

	// Readers: lock-free lookups must only ever observe committed pairs.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; !stop.Load(); i++ {
				k := layout.Key{Lo: uint64((i+r*17)%hotKeys) + 1}
				if v, ok := c.Lookup(k); ok && v != k.Lo*2 {
					t.Errorf("torn read: key %d = %d, want %d", k.Lo, v, k.Lo*2)
					return
				}
			}
		}(r)
	}

	// Writers bound the test duration; readers run until writers finish.
	writers.Wait()
	stop.Store(true)
	readers.Wait()

	// Every hot key must still be present exactly once with its value.
	for i := uint64(1); i <= hotKeys; i++ {
		if v, ok := c.Lookup(layout.Key{Lo: i}); !ok || v != i*2 {
			t.Fatalf("key %d = (%d, %v) after churn", i, v, ok)
		}
	}
	if bad := tab.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("inconsistencies: %v", bad)
	}
}

// TestConcurrentLookupFallbackUnderWriteLock pins the degradation path:
// a lookup issued while a writer holds the stripe must still complete
// (via retries or the shared lock), never spin forever or return a torn
// result.
func TestConcurrentLookupFallbackUnderWriteLock(t *testing.T) {
	mem := native.New(16 << 20)
	tab := mustCreate(t, mem, Options{Cells: 1 << 12, GroupSize: 64, Seed: 12})
	c := NewConcurrent(tab, 1) // single stripe: every op contends
	for i := uint64(1); i <= 100; i++ {
		if err := c.Apply(BatchOp{Kind: BatchInsert, Key: layout.Key{Lo: i}, Value: i * 2}).Err; err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			k := layout.Key{Lo: uint64(i%100) + 1}
			c.Apply(BatchOp{Kind: BatchDelete, Key: k})
			c.Apply(BatchOp{Kind: BatchInsert, Key: k, Value: k.Lo * 2})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20000; i++ {
			k := layout.Key{Lo: uint64(i%100) + 1}
			if v, ok := c.Lookup(k); ok && v != k.Lo*2 {
				t.Errorf("torn read under contention: %d -> %d", k.Lo, v)
				return
			}
		}
	}()
	wg.Wait()
}
