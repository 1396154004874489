package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"grouphash/internal/cache"
	"grouphash/internal/layout"
	"grouphash/internal/memsim"
	"grouphash/internal/native"
)

func TestExpandDoublesAndPreservesItems(t *testing.T) {
	mem := native.New(32 << 20)
	tab := mustCreate(t, mem, Options{Cells: 256, GroupSize: 16, Seed: 2})
	for i := uint64(1); i <= 300; i++ {
		if err := tab.InsertAutoExpand(layout.Key{Lo: i}, i*3); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tab.Cells() < 256 {
		t.Fatal("table shrank")
	}
	if tab.Len() != 300 {
		t.Fatalf("Len = %d", tab.Len())
	}
	for i := uint64(1); i <= 300; i++ {
		if v, ok := tab.Lookup(layout.Key{Lo: i}); !ok || v != i*3 {
			t.Fatalf("item %d after expansion: (%d, %v)", i, v, ok)
		}
	}
	if bad := tab.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("inconsistencies: %v", bad)
	}
}

func TestExplicitExpand(t *testing.T) {
	mem := native.New(32 << 20)
	tab := mustCreate(t, mem, Options{Cells: 128, GroupSize: 16, Seed: 3})
	for i := uint64(1); i <= 100; i++ {
		tab.InsertAutoExpand(layout.Key{Lo: i}, i)
	}
	before := tab.Cells()
	if err := tab.Expand(); err != nil {
		t.Fatal(err)
	}
	if tab.Cells() != before*2 {
		t.Fatalf("cells = %d, want %d", tab.Cells(), before*2)
	}
	if tab.Len() != 100 {
		t.Fatalf("Len changed by expansion: %d", tab.Len())
	}
	for i := uint64(1); i <= 100; i++ {
		if _, ok := tab.Lookup(layout.Key{Lo: i}); !ok {
			t.Fatalf("item %d lost by explicit expansion", i)
		}
	}
}

// TestRunPool pins the worker pool both expansions share: every unit
// runs exactly once whatever the worker count, one worker runs the
// units in order, and a failing unit makes the pool report false and
// claim nothing more. Run it under -race with -cpu 1,2,4.
func TestRunPool(t *testing.T) {
	const n = 37
	for _, workers := range []int{1, 2, 4, n + 5} {
		var runs [n]atomic.Int32
		if !runPool(workers, n, func(i int) bool { runs[i].Add(1); return true }) {
			t.Fatalf("%d workers: all units succeeded, pool reported failure", workers)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("%d workers: unit %d ran %d times, want once", workers, i, got)
			}
		}

		const bad = 11
		runs = [n]atomic.Int32{}
		if runPool(workers, n, func(i int) bool { runs[i].Add(1); return i != bad }) {
			t.Fatalf("%d workers: unit %d failed, pool reported success", workers, bad)
		}
		for i := range runs {
			if got := runs[i].Load(); got > 1 {
				t.Fatalf("%d workers: unit %d ran %d times after a failure", workers, i, got)
			}
		}
		if runs[bad].Load() != 1 {
			t.Fatalf("%d workers: the failing unit never ran", workers)
		}
	}

	// One worker is the caller itself: units run inline and in order,
	// and none is claimed after the failing one.
	var order []int
	if runPool(1, 6, func(i int) bool { order = append(order, i); return i != 3 }) {
		t.Fatal("one worker: unit 3 failed, pool reported success")
	}
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("one worker ran units %v, want [0 1 2 3]", order)
	}
}

func TestExpandFailsWhenRegionExhausted(t *testing.T) {
	// Use the fixed-size simulated region: unlike native memory it
	// cannot grow, so repeated doublings must exhaust it.
	mem := memsim.New(memsim.Config{Size: 64 << 10, Seed: 1, Geoms: cache.SmallGeometry()})
	tab := mustCreate(t, mem, Options{Cells: 256, GroupSize: 16})
	defer func() {
		if recover() == nil {
			t.Fatal("expected allocator exhaustion panic")
		}
	}()
	tab.Expand()
	tab.Expand()
	tab.Expand()
}

func TestExpandCrashBeforeFlipKeepsOldTable(t *testing.T) {
	mem := simMem(77)
	tab := mustCreate(t, mem, Options{Cells: 128, GroupSize: 16, Seed: 4})
	hdr := tab.Header()
	for i := uint64(1); i <= 60; i++ {
		tab.Insert(layout.Key{Lo: i}, i)
	}
	mem.CleanShutdown()

	// Run the expansion work but crash before the slot flip: build the
	// new view and populate it, skipping the atomic flip.
	nvw := tab.newView(tab.cur().tab1.N*2, 4)
	tab.rehashInto(tab.cur(), nvw)
	mem.Crash(0.3)

	re, err := Open(mem, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if re.Cells() != 128 {
		t.Fatalf("reopened cells = %d, want the old 128", re.Cells())
	}
	if _, err := re.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 60; i++ {
		if v, ok := re.Lookup(layout.Key{Lo: i}); !ok || v != i {
			t.Fatalf("item %d lost by aborted expansion: (%d, %v)", i, v, ok)
		}
	}
}

func TestExpandCrashAfterFlipUsesNewTable(t *testing.T) {
	mem := simMem(78)
	tab := mustCreate(t, mem, Options{Cells: 128, GroupSize: 16, Seed: 4})
	hdr := tab.Header()
	for i := uint64(1); i <= 60; i++ {
		tab.Insert(layout.Key{Lo: i}, i)
	}
	if err := tab.Expand(); err != nil {
		t.Fatal(err)
	}
	// Crash immediately after Expand returns (flip persisted inside).
	mem.Crash(0.0)

	re, err := Open(mem, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if re.Cells() != 256 {
		t.Fatalf("reopened cells = %d, want the new 256", re.Cells())
	}
	if _, err := re.Recover(); err != nil {
		t.Fatal(err)
	}
	if re.Len() != 60 {
		t.Fatalf("Len = %d", re.Len())
	}
	for i := uint64(1); i <= 60; i++ {
		if v, ok := re.Lookup(layout.Key{Lo: i}); !ok || v != i {
			t.Fatalf("item %d lost after committed expansion: (%d, %v)", i, v, ok)
		}
	}
}
