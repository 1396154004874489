package core

import (
	"sync"
	"testing"

	"grouphash/internal/layout"
	"grouphash/internal/native"
)

func TestConcurrentBasicOps(t *testing.T) {
	mem := native.New(16 << 20)
	tab := mustCreate(t, mem, Options{Cells: 4096, GroupSize: 64, Seed: 6})
	c := NewConcurrent(tab, 0)
	k := layout.Key{Lo: 5}
	if r := c.Apply(BatchOp{Kind: BatchInsert, Key: k, Value: 50}); r != (BatchResult{}) {
		t.Fatalf("insert = %+v", r)
	}
	if v, ok := c.Lookup(k); !ok || v != 50 {
		t.Fatalf("lookup = (%d, %v)", v, ok)
	}
	if r := c.Apply(BatchOp{Kind: BatchPut, Key: k, Value: 51}); r != (BatchResult{Found: true}) {
		t.Fatalf("put over a present key = %+v", r)
	}
	if v, ok := c.Lookup(k); !ok || v != 51 {
		t.Fatalf("lookup after put = (%d, %v)", v, ok)
	}
	if r := c.Apply(BatchOp{Kind: BatchDelete, Key: k}); r != (BatchResult{Found: true}) {
		t.Fatalf("delete = %+v", r)
	}
	if r := c.Apply(BatchOp{Kind: BatchDelete, Key: k}); r != (BatchResult{}) {
		t.Fatalf("delete of an absent key = %+v", r)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestConcurrentParallelInserts(t *testing.T) {
	mem := native.New(64 << 20)
	tab := mustCreate(t, mem, Options{Cells: 1 << 15, GroupSize: 64, Seed: 7})
	c := NewConcurrent(tab, 64)
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := layout.Key{Lo: uint64(w*perWorker + i + 1)}
				if err := c.Apply(BatchOp{Kind: BatchInsert, Key: k, Value: k.Lo * 2}).Err; err != nil {
					t.Errorf("worker %d insert %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := c.Len(); got != workers*perWorker {
		t.Fatalf("Len = %d, want %d", got, workers*perWorker)
	}
	for i := uint64(1); i <= workers*perWorker; i++ {
		if v, ok := c.Lookup(layout.Key{Lo: i}); !ok || v != i*2 {
			t.Fatalf("key %d = (%d, %v)", i, v, ok)
		}
	}
	if bad := tab.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("inconsistencies: %v", bad)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	mem := native.New(64 << 20)
	tab := mustCreate(t, mem, Options{Cells: 1 << 14, GroupSize: 64, Seed: 8})
	c := NewConcurrent(tab, 0)
	// Pre-populate disjoint key ranges; each worker owns its range, so
	// per-key semantics stay deterministic under concurrency.
	const workers = 6
	const rangeSize = 1500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w*rangeSize + 1)
			for i := uint64(0); i < rangeSize; i++ {
				k := layout.Key{Lo: base + i}
				if err := c.Apply(BatchOp{Kind: BatchInsert, Key: k, Value: i}).Err; err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
			for i := uint64(0); i < rangeSize; i += 2 {
				if !c.Apply(BatchOp{Kind: BatchDelete, Key: layout.Key{Lo: base + i}}).Found {
					t.Errorf("delete failed")
					return
				}
			}
			for i := uint64(0); i < rangeSize; i++ {
				_, ok := c.Lookup(layout.Key{Lo: base + i})
				if want := i%2 == 1; ok != want {
					t.Errorf("key %d presence %v, want %v", base+i, ok, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := uint64(workers * rangeSize / 2)
	if c.Len() != want {
		t.Fatalf("Len = %d, want %d", c.Len(), want)
	}
}

func TestConcurrentStripeRounding(t *testing.T) {
	mem := native.New(1 << 20)
	tab := mustCreate(t, mem, Options{Cells: 128, GroupSize: 16})
	c := NewConcurrent(tab, 5) // rounds up to 8
	if len(c.stripes) != 8 {
		t.Fatalf("stripes = %d, want 8", len(c.stripes))
	}
	if c.t != tab {
		t.Fatal("Table() passthrough broken")
	}
}
