package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
	"grouphash/internal/native"
)

// TestConcurrentZeroKeyRejected is the regression test for the
// concurrent wrapper committing the compact layout's reserved zero key
// (which would corrupt the key-word-as-bitmap occupancy invariant):
// every op kind must reject it exactly as Table.Insert does.
func TestConcurrentZeroKeyRejected(t *testing.T) {
	mem := native.New(1 << 20)
	tab := mustCreate(t, mem, Options{Cells: 256, GroupSize: 16, Seed: 3})
	c := NewConcurrent(tab, 0)
	for _, kind := range []BatchKind{BatchInsert, BatchPut, BatchDelete} {
		if r := c.Apply(BatchOp{Kind: kind, Value: 7}); !errors.Is(r.Err, hashtab.ErrInvalidKey) || r.Found {
			t.Fatalf("kind %d on the zero key = %+v, want ErrInvalidKey", kind, r)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after rejected inserts, want 0", c.Len())
	}
	if bad := tab.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("inconsistencies after rejected zero key: %v", bad)
	}
}

// TestConcurrentUpsertNoDuplicates races many goroutines putting the
// SAME fresh key: the single-lock put (an upsert) must leave exactly
// one item, where a caller-composed update-then-insert would race into
// duplicates.
func TestConcurrentUpsertNoDuplicates(t *testing.T) {
	mem := native.New(8 << 20)
	tab := mustCreate(t, mem, Options{Cells: 1 << 12, GroupSize: 64, Seed: 9})
	c := NewConcurrent(tab, 0)
	const workers = 8
	const rounds = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := layout.Key{Lo: uint64(i%50 + 1)}
				if err := c.Apply(BatchOp{Kind: BatchPut, Key: k, Value: uint64(w)}).Err; err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if c.Len() != 50 {
		t.Fatalf("Len = %d, want 50 (puts must not duplicate)", c.Len())
	}
	seen := make(map[uint64]int)
	tab.Range(func(k layout.Key, v uint64) bool {
		seen[k.Lo]++
		return true
	})
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %d stored %d times", k, n)
		}
	}
}

// TestConcurrentChurn exercises the wrapper's per-op API — puts that
// insert and puts that overwrite, deletes, Lookup, Len — under -race:
// each worker churns a disjoint key range (so per-key expectations stay
// deterministic) while a shared reader sweeps the whole space through
// the seqlock path.
func TestConcurrentChurn(t *testing.T) {
	mem := native.New(64 << 20)
	tab := mustCreate(t, mem, Options{Cells: 1 << 14, GroupSize: 64, Seed: 11})
	c := NewConcurrent(tab, 0)
	const workers = 6
	const rangeSize = 800
	const rounds = 3
	var stop atomic.Bool
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() { // shared reader across all ranges, lock-free path
		defer rwg.Done()
		for !stop.Load() {
			for i := uint64(1); i <= workers*rangeSize; i += 37 {
				c.Lookup(layout.Key{Lo: i})
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w*rangeSize + 1)
			for r := 0; r < rounds; r++ {
				for i := uint64(0); i < rangeSize; i++ {
					k := layout.Key{Lo: base + i}
					if err := c.Apply(BatchOp{Kind: BatchPut, Key: k, Value: uint64(r)<<32 | i}).Err; err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
				for i := uint64(0); i < rangeSize; i += 2 {
					if !c.Apply(BatchOp{Kind: BatchPut, Key: layout.Key{Lo: base + i}, Value: ^uint64(0)}).Found {
						t.Errorf("put over a present key inserted instead")
						return
					}
				}
				for i := uint64(1); i < rangeSize; i += 2 {
					if !c.Apply(BatchOp{Kind: BatchDelete, Key: layout.Key{Lo: base + i}}).Found {
						t.Errorf("delete of present key failed")
						return
					}
				}
				for i := uint64(0); i < rangeSize; i++ {
					v, ok := c.Lookup(layout.Key{Lo: base + i})
					if want := i%2 == 0; ok != want {
						t.Errorf("round %d key %d presence %v, want %v", r, base+i, ok, want)
						return
					}
					if ok && v != ^uint64(0) {
						t.Errorf("round %d key %d value %#x", r, base+i, v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	rwg.Wait()
	if t.Failed() {
		return
	}
	want := uint64(workers) * (rangeSize / 2)
	if c.Len() != want {
		t.Fatalf("Len = %d, want %d", c.Len(), want)
	}
	if bad := tab.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("inconsistencies after churn: %v", bad)
	}
}

// TestConcurrentQuiesce verifies the snapshot hook: while writers
// hammer the table, every Quiesce window must observe a fully
// consistent table (no mid-commit state, count matching the bitmaps).
func TestConcurrentQuiesce(t *testing.T) {
	mem := native.New(32 << 20)
	tab := mustCreate(t, mem, Options{Cells: 1 << 13, GroupSize: 64, Seed: 13})
	c := NewConcurrent(tab, 8)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w*4000 + 1)
			for i := uint64(0); !stop.Load(); i++ {
				k := layout.Key{Lo: base + i%2000}
				if i%3 == 2 {
					c.Apply(BatchOp{Kind: BatchDelete, Key: k})
				} else if err := c.Apply(BatchOp{Kind: BatchPut, Key: k, Value: i}).Err; err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	for round := 0; round < 20; round++ {
		c.Quiesce(func() {
			if bad := tab.CheckConsistency(); len(bad) != 0 {
				t.Errorf("round %d: table inconsistent inside quiesce: %v", round, bad)
			}
			var n uint64
			tab.Range(func(layout.Key, uint64) bool { n++; return true })
			if n != tab.Len() {
				t.Errorf("round %d: count %d != occupied cells %d", round, tab.Len(), n)
			}
		})
	}
	stop.Store(true)
	wg.Wait()
}
