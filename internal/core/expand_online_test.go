package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"grouphash/internal/cache"
	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
	"grouphash/internal/memsim"
	"grouphash/internal/native"
	"grouphash/internal/pmfs"
)

// ---------------------------------------------------------------------
// Crash injection around the expansion commit point, sequential path:
// cut Expand at EVERY internal memory event of the simulator and verify
// the two-slot root protocol's guarantee — before the 8-byte slot flip
// the old table recovers complete, after it the new one does, and in
// both cases every item is present exactly once.

func TestEveryCrashPointOfExpandIsSafe(t *testing.T) {
	for _, p := range []float64{0, 0.5, 1} {
		for offset := uint64(1); ; offset++ {
			mem, tab := buildDeterministic(int64(3000 + offset))
			hdr := tab.Header()
			start := mem.Counters().Accesses
			mem.ScheduleShadowCrash(start+offset, p)
			if err := tab.Expand(); err != nil {
				t.Fatal(err)
			}
			if !mem.AdoptShadowCrash() {
				break // offset beyond the expansion's length: done
			}
			// The in-DRAM handle may be ahead of the crashed image;
			// reopen from the persistent header, as a restart would.
			re, err := Open(mem, hdr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := re.Recover(); err != nil {
				t.Fatal(err)
			}
			if n := re.Cells(); n != 128 && n != 256 {
				t.Fatalf("p=%v offset=%d: reopened cells = %d, want old 128 or new 256", p, offset, n)
			}
			if bad := re.CheckConsistency(); len(bad) != 0 {
				t.Fatalf("p=%v offset=%d: inconsistencies: %v", p, offset, bad)
			}
			if re.Len() != 30 {
				t.Fatalf("p=%v offset=%d: count %d after recovery, want 30", p, offset, re.Len())
			}
			for i := uint64(1); i <= 30; i++ {
				if v, ok := re.Lookup(layout.Key{Lo: i * 11}); !ok || v != i {
					t.Fatalf("p=%v offset=%d: item %d damaged by expansion crash: (%d, %v)",
						p, offset, i, v, ok)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Allocator reclaim: failed rehash attempts must not leak their arrays
// on backends with a rewindable bump allocator.

func TestExpandReclaimsFailedAttempts(t *testing.T) {
	mem := native.New(1 << 20)
	tab, err := Create(mem, Options{Cells: 256, GroupSize: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		if err := tab.Insert(layout.Key{Lo: i}, i); err != nil {
			t.Fatal(err)
		}
	}
	// Force the first two rehash attempts (512 and 1024 cells) to fail;
	// the third (2048 cells) succeeds. With reclaim the footprint is the
	// final attempt's arrays alone; without it the two failed attempts'
	// arrays (512+1024 cells, both levels) would leak.
	tab.expandFailures = 2
	before := mem.Allocated()
	if err := tab.Expand(); err != nil {
		t.Fatal(err)
	}
	if tab.Cells() != 2048 {
		t.Fatalf("cells = %d, want 2048 after two forced failures", tab.Cells())
	}
	finalFootprint := 2 * 2048 * tab.l.CellSize()
	grown := mem.Allocated() - before
	if grown != finalFootprint {
		t.Fatalf("allocator grew %d bytes, want exactly the final attempt's %d", grown, finalFootprint)
	}
	for i := uint64(1); i <= 100; i++ {
		if v, ok := tab.Lookup(layout.Key{Lo: i}); !ok || v != i {
			t.Fatalf("item %d lost by retried expansion: (%d, %v)", i, v, ok)
		}
	}
}

// TestExpandWithoutReclaimStillWorks pins the memsim behaviour: no
// Reclaimer, so a forced failure leaks the attempt but expansion still
// completes.
func TestExpandWithoutReclaimStillWorks(t *testing.T) {
	mem := memsim.New(memsim.Config{Size: 1 << 20, Seed: 1, Geoms: cache.SmallGeometry()})
	if _, ok := interface{}(mem).(hashtab.Reclaimer); ok {
		t.Fatal("memsim unexpectedly implements Reclaimer; this test needs updating")
	}
	tab, err := Create(mem, Options{Cells: 128, GroupSize: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 40; i++ {
		if err := tab.Insert(layout.Key{Lo: i}, i); err != nil {
			t.Fatal(err)
		}
	}
	tab.expandFailures = 1
	if err := tab.Expand(); err != nil {
		t.Fatal(err)
	}
	if tab.Cells() != 512 {
		t.Fatalf("cells = %d, want 512", tab.Cells())
	}
	for i := uint64(1); i <= 40; i++ {
		if v, ok := tab.Lookup(layout.Key{Lo: i}); !ok || v != i {
			t.Fatalf("item %d lost: (%d, %v)", i, v, ok)
		}
	}
}

// ---------------------------------------------------------------------
// Online expansion under concurrent load: writers hammer a tiny table
// across many doublings; none may ever see ErrTableFull, and the final
// table must hold every acked key exactly once. Run with -race.

func TestOnlineExpansionUnderLoad(t *testing.T) {
	mem := native.New(1 << 20)
	tab, err := Create(mem, Options{Cells: 64, GroupSize: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(tab, 0)
	c.EnableOnlineExpand()

	const workers = 4
	const perWorker = 2000
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w+1) << 32
			for i := uint64(1); i <= perWorker; i++ {
				k := layout.Key{Lo: base + i}
				if err := c.Apply(BatchOp{Kind: BatchInsert, Key: k, Value: base + i}).Err; err != nil {
					errs[w] = fmt.Errorf("insert %d: %w", i, err)
					return
				}
				// Interleave reads and occasional deletes/puts so
				// every operation type crosses live migrations.
				if v, ok := c.Lookup(k); !ok || v != base+i {
					errs[w] = fmt.Errorf("read-own-write %d: (%d, %v)", i, v, ok)
					return
				}
				switch i % 16 {
				case 3:
					if !c.Apply(BatchOp{Kind: BatchDelete, Key: k}).Found {
						errs[w] = fmt.Errorf("delete %d failed", i)
						return
					}
				case 7:
					if !c.Apply(BatchOp{Kind: BatchPut, Key: k, Value: base + i + 1}).Found {
						errs[w] = fmt.Errorf("put %d inserted over a present key", i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	c.WaitExpansion()
	if c.Expansions() == 0 {
		t.Fatal("no expansion despite 60x overload of the initial table")
	}
	if bad := tab.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("inconsistencies after online expansions: %v", bad)
	}
	var wantLen uint64
	for w := 0; w < workers; w++ {
		base := uint64(w+1) << 32
		for i := uint64(1); i <= perWorker; i++ {
			v, ok := c.Lookup(layout.Key{Lo: base + i})
			switch i % 16 {
			case 3:
				if ok {
					t.Fatalf("worker %d item %d: deleted key resurrected", w, i)
				}
			case 7:
				wantLen++
				if !ok || v != base+i+1 {
					t.Fatalf("worker %d item %d: updated value lost: (%d, %v)", w, i, v, ok)
				}
			default:
				wantLen++
				if !ok || v != base+i {
					t.Fatalf("worker %d item %d: lost: (%d, %v)", w, i, v, ok)
				}
			}
		}
	}
	if c.Len() != wantLen {
		t.Fatalf("count = %d, want %d", c.Len(), wantLen)
	}
}

// TestOnlineExpansionQuiesceInteraction takes snapshots (Quiesce) while
// expansions are continuously being triggered; Quiesce must only ever
// observe a fully committed table.
func TestOnlineExpansionQuiesceInteraction(t *testing.T) {
	mem := native.New(1 << 20)
	tab, err := Create(mem, Options{Cells: 64, GroupSize: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(tab, 0)
	c.EnableOnlineExpand()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Apply(BatchOp{Kind: BatchInsert, Key: layout.Key{Lo: i}, Value: i}).Err; err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	}()
	for q := 0; q < 20; q++ {
		c.Quiesce(func() {
			if c.exp.Load() != nil {
				t.Error("Quiesce ran with an expansion still in flight")
			}
			if bad := tab.CheckConsistency(); len(bad) != 0 {
				t.Errorf("quiesced table inconsistent: %v", bad)
			}
		})
	}
	close(stop)
	wg.Wait()
}

// ---------------------------------------------------------------------
// Crash injection around the ONLINE expansion commit point: capture
// legal post-crash images (the native backend's durability unit) at
// three points — mid-migration, immediately before the header-slot
// flip, and after completion — then reopen each image cold and verify
// every key acked BEFORE the expansion began is present exactly once.

// reopenImage rebuilds a table from a captured native memory image, as
// a restart would: fresh memory, Open from the header, Recover.
func reopenImage(t *testing.T, img *pmfs.Image, hdr uint64) *Table {
	t.Helper()
	mem := native.New(0)
	mem.Restore(img)
	re, err := Open(mem, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.Recover(); err != nil {
		t.Fatal(err)
	}
	if bad := re.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("reopened image inconsistent: %v", bad)
	}
	return re
}

func verifyExactlyOnce(t *testing.T, tab *Table, n uint64, ctx string) {
	t.Helper()
	for i := uint64(1); i <= n; i++ {
		if v, ok := tab.Lookup(layout.Key{Lo: i}); !ok || v != i {
			t.Fatalf("%s: acked key %d not recovered: (%d, %v)", ctx, i, v, ok)
		}
	}
	if tab.Len() != n {
		t.Fatalf("%s: count = %d, want %d (every acked key exactly once)", ctx, tab.Len(), n)
	}
	// Lookup returning the right value plus an exact count implies no
	// duplicates; cross-check by scanning the cells directly.
	seen := make(map[uint64]int, n)
	tab.Range(func(k layout.Key, v uint64) bool {
		seen[k.Lo]++
		return true
	})
	for k, times := range seen {
		if times != 1 {
			t.Fatalf("%s: key %d present %d times", ctx, k, times)
		}
	}
}

func TestOnlineExpansionCrashPoints(t *testing.T) {
	mem := native.New(1 << 20)
	tab, err := Create(mem, Options{Cells: 256, GroupSize: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(tab, 8)
	c.EnableOnlineExpand()

	// Ack a known population first (well under both the load-factor
	// trigger and any group's capacity); these keys must survive any
	// crash.
	const n = 200
	for i := uint64(1); i <= n; i++ {
		if err := c.Apply(BatchOp{Kind: BatchInsert, Key: layout.Key{Lo: i}, Value: i}).Err; err != nil {
			t.Fatal(err)
		}
	}
	c.WaitExpansion()
	if c.Expansions() != 0 {
		t.Fatal("expansion ran before the test armed its hooks")
	}

	var mid, preFlip *pmfs.Image
	var once sync.Once
	c.hookStripeDone = func(si int) {
		// Snapshot after the first stripe drains: a mid-migration
		// crash image (some stripes moved, most not, header unflipped).
		once.Do(func() { mid = mem.Capture() })
	}
	c.hookPreFlip = func() {
		// All stripes drained, new roots written to the inactive slot,
		// the 8-byte flip NOT yet performed.
		preFlip = mem.Capture()
	}

	c.ensureExpansion()
	c.WaitExpansion()
	post := mem.Capture()

	if mid == nil || preFlip == nil {
		t.Fatal("expansion hooks did not fire")
	}

	// Mid-migration and pre-flip crashes: the slot word still selects
	// the OLD roots, migration only copied (never modified) old cells,
	// so the old table recovers complete.
	for _, tc := range []struct {
		name string
		img  *pmfs.Image
	}{{"mid-migration", mid}, {"pre-flip", preFlip}} {
		re := reopenImage(t, tc.img, tab.Header())
		if re.Cells() != 256 {
			t.Fatalf("%s: recovered cells = %d, want old 256", tc.name, re.Cells())
		}
		verifyExactlyOnce(t, re, n, tc.name)
	}

	// Post-flip: the new, doubled table is current and complete.
	re := reopenImage(t, post, tab.Header())
	if re.Cells() != 512 {
		t.Fatalf("post-flip: recovered cells = %d, want new 512", re.Cells())
	}
	verifyExactlyOnce(t, re, n, "post-flip")
}

// TestOnlineExpansionFallbackRebuild forces every stripe's migration to
// report overflow, driving finishExpansion into the stop-the-world
// fallback: collect the authoritative items under all stripe locks and
// re-place them into doubled-again arrays. Writers blocked on the
// expansion must then succeed against the rebuilt table.
func TestOnlineExpansionFallbackRebuild(t *testing.T) {
	// Generations of 2 MiB and up span whole pages, so freeing them
	// drops pages, not just bytes.
	mem := native.New(0)
	tab, err := Create(mem, Options{Cells: 1 << 16, GroupSize: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(tab, 4)
	c.EnableOnlineExpand()

	const n = 80
	for i := uint64(1); i <= n; i++ {
		if err := c.Apply(BatchOp{Kind: BatchInsert, Key: layout.Key{Lo: i}, Value: i}).Err; err != nil {
			t.Fatal(err)
		}
	}
	c.WaitExpansion() // settle any load-factor-triggered expansion
	cellsBefore := tab.Cells()

	var forceFail atomic.Bool
	forceFail.Store(true)
	c.hookMigrateFail = func(si int) bool { return forceFail.Load() }
	e := c.ensureExpansion()
	c.WaitExpansion()
	forceFail.Store(false)

	if c.fallbacks.Load() == 0 {
		t.Fatal("fallback rebuild never ran despite forced overflow")
	}
	// The fallback starts at double the failed generation's size, i.e.
	// 4x the pre-expansion cells.
	if tab.Cells() != cellsBefore*4 {
		t.Fatalf("cells = %d, want %d after fallback", tab.Cells(), cellsBefore*4)
	}
	// Both the replaced arrays and the abandoned doubled ones were
	// freed: every word reads zero, and all but the pages they share
	// with live neighbours were dropped.
	var retired uint64
	for _, vw := range []*view{e.old, e.nvw} {
		for _, cells := range [2]hashtab.Cells{vw.tab1, vw.tab2} {
			size := cells.N * tab.l.CellSize()
			for a := cells.Base; a < cells.Base+size; a += 512 {
				if mem.Read8(a) != 0 {
					t.Fatalf("retired word at %d reads %d", a, mem.Read8(a))
				}
			}
			retired += size
		}
	}
	if dropped := mem.Allocated() - mem.Live(); dropped < retired-2*pmfs.PageBytes {
		t.Fatalf("%d bytes of pages dropped, want all but two pages of the %d retired", dropped, retired)
	}
	if bad := tab.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("inconsistencies after fallback: %v", bad)
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := c.Lookup(layout.Key{Lo: i}); !ok || v != i {
			t.Fatalf("item %d lost by fallback rebuild: (%d, %v)", i, v, ok)
		}
	}
	if err := c.Apply(BatchOp{Kind: BatchInsert, Key: layout.Key{Lo: n + 1}, Value: n + 1}).Err; err != nil {
		t.Fatalf("insert after fallback: %v", err)
	}
}

// TestOnlineExpansionFailedRebuildNotCounted pins Expansions as a count
// of committed growth: when every stripe's migration overflows and all
// three attempts of the fallback rebuild fail too, the old arrays stay
// current, and the expansion is not counted although its fallback ran.
// The next expansion that commits is.
func TestOnlineExpansionFailedRebuildNotCounted(t *testing.T) {
	mem := native.New(0)
	tab, err := Create(mem, Options{Cells: 1 << 12, GroupSize: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(tab, 4)
	c.EnableOnlineExpand()
	const n = 80
	for i := uint64(1); i <= n; i++ {
		if err := c.Apply(BatchOp{Kind: BatchInsert, Key: layout.Key{Lo: i}, Value: i}).Err; err != nil {
			t.Fatal(err)
		}
	}
	cells := tab.Cells()

	c.hookMigrateFail = func(int) bool { return true }
	tab.expandFailures = 3
	c.ensureExpansion()
	c.WaitExpansion()
	if c.fallbacks.Load() != 1 {
		t.Fatalf("fallbacks = %d, want 1", c.fallbacks.Load())
	}
	if c.Expansions() != 0 || tab.Cells() != cells {
		t.Fatalf("after a failed rebuild: Expansions() = %d and %d cells, want 0 and %d", c.Expansions(), tab.Cells(), cells)
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := c.Lookup(layout.Key{Lo: i}); !ok || v != i {
			t.Fatalf("item %d lost by a failed rebuild: (%d, %v)", i, v, ok)
		}
	}

	c.hookMigrateFail = nil
	c.ensureExpansion()
	c.WaitExpansion()
	if c.Expansions() != 1 || tab.Cells() != 2*cells {
		t.Fatalf("after a committed expansion: Expansions() = %d and %d cells, want 1 and %d", c.Expansions(), tab.Cells(), 2*cells)
	}
}

// TestOnlineExpansionStaleViewReadsZeros pins what a seqlock reader
// that loaded the view before a flip finds afterwards: the flip freed
// that view — its 1 MiB levels span whole pages, so some of it is
// dropped and some zeroed in place — so probing it reads zeros and
// finds nothing: it never panics and never returns a stale value,
// while Lookup, which
// revalidates, finds every key. Readers race the expansion throughout,
// so -race checks the frees against them.
func TestOnlineExpansionStaleViewReadsZeros(t *testing.T) {
	mem := native.New(0)
	tab, err := Create(mem, Options{Cells: 1 << 16, GroupSize: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(tab, 16)
	c.EnableOnlineExpand()
	const n = 4000
	for i := uint64(1); i <= n; i++ {
		if err := c.Apply(BatchOp{Kind: BatchInsert, Key: layout.Key{Lo: i}, Value: i}).Err; err != nil {
			t.Fatal(err)
		}
	}
	c.WaitExpansion()
	stale := tab.cur()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(1); ; i = i%n + 1 {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := c.Lookup(layout.Key{Lo: i}); !ok || v != i {
					t.Errorf("Lookup(%d) = (%d, %v) mid-expansion", i, v, ok)
					return
				}
			}
		}()
	}
	c.ensureExpansion()
	c.WaitExpansion()
	close(stop)
	wg.Wait()

	if tab.cur() == stale {
		t.Fatal("expansion did not replace the view")
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := tab.lookupIn(stale, layout.Key{Lo: i}, &fpTally{}); ok {
			t.Fatalf("stale view still finds key %d (value %d) after the flip freed it", i, v)
		}
		if v, ok := c.Lookup(layout.Key{Lo: i}); !ok || v != i {
			t.Fatalf("Lookup(%d) = (%d, %v) after the expansion", i, v, ok)
		}
	}
}

// TestOnlineExpandRequiresAtomicBackend pins the gate: the simulator's
// shared-state accesses cannot run under the migration goroutines.
func TestOnlineExpandRequiresAtomicBackend(t *testing.T) {
	mem := memsim.New(memsim.Config{Size: 1 << 20, Seed: 2, Geoms: cache.SmallGeometry()})
	tab, err := Create(mem, Options{Cells: 64, GroupSize: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(tab, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("EnableOnlineExpand on memsim did not panic")
		}
	}()
	c.EnableOnlineExpand()
}
