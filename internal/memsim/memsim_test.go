package memsim

import (
	"runtime"
	"testing"
	"testing/quick"

	"grouphash/internal/cache"
)

func small(t *testing.T) *Memory {
	t.Helper()
	return New(Config{Size: 1 << 20, Seed: 1, Geoms: cache.SmallGeometry()})
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := small(t)
	m.Write8(128, 77)
	if got := m.Read8(128); got != 77 {
		t.Fatalf("Read8 = %d", got)
	}
	m.AtomicWrite8(1000, 78)
	if got := m.Read8(1000); got != 78 {
		t.Fatalf("Read8 after AtomicWrite8 = %d", got)
	}
}

// TestWriteBacksAllocateNothing streams writes over fresh lines, so
// nearly every access evicts a dirty line out of the LLC, and counts the
// heap allocations of the whole stream with runtime.ReadMemStats: a
// write-back goes straight from the hierarchy to the region and
// allocates nothing. (testing.AllocsPerRun would truncate an average
// below one allocation per access to zero and miss one per write-back.)
// A first pass allocates the region's dirty-tracker pages, which it
// keeps; the second is measured.
func TestWriteBacksAllocateNothing(t *testing.T) {
	const n = 100000
	m := New(Config{Size: n * cache.LineSize, Seed: 1, Geoms: cache.SmallGeometry()})
	stream := func() {
		for i := uint64(0); i < n; i++ {
			m.Write8(i*cache.LineSize, i)
		}
	}
	stream()
	evicted := m.Counters().NVM.WordsEvicted
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stream()
	runtime.ReadMemStats(&after)
	wbs := m.Counters().NVM.WordsEvicted - evicted // one dirty word per line
	if wbs < n*9/10 {
		t.Fatalf("only %d write-backs in %d streaming writes", wbs, n)
	}
	// A little slack for allocations the runtime makes on its own.
	if mallocs := after.Mallocs - before.Mallocs; mallocs > 100 {
		t.Fatalf("%d heap allocations over %d write-backs, want none per write-back", mallocs, wbs)
	}
}

func TestAllocAlignmentAndExhaustion(t *testing.T) {
	m := New(Config{Size: 1 << 12, Seed: 1, Geoms: cache.SmallGeometry()})
	a := m.Alloc(10, 8)
	b := m.Alloc(10, 64)
	if a%8 != 0 || b%64 != 0 {
		t.Fatalf("misaligned allocations: %d, %d", a, b)
	}
	if b < a+10 {
		t.Fatal("allocations overlap")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected out-of-space panic")
			}
		}()
		m.Alloc(1<<13, 8)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected bad-alignment panic")
			}
		}()
		m.Alloc(8, 3)
	}()
}

func TestClockAdvancesMoreOnMiss(t *testing.T) {
	m := small(t)
	t0 := m.Clock()
	m.Read8(0) // cold: memory latency
	coldCost := m.Clock() - t0
	t1 := m.Clock()
	m.Read8(8) // same line: L1 hit
	warmCost := m.Clock() - t1
	if coldCost <= warmCost {
		t.Fatalf("cold %v <= warm %v", coldCost, warmCost)
	}
	lat := m.lat
	if coldCost != lat.MemRead {
		t.Fatalf("cold cost = %v, want MemRead %v", coldCost, lat.MemRead)
	}
	if warmCost != lat.L1Hit {
		t.Fatalf("warm cost = %v, want L1Hit %v", warmCost, lat.L1Hit)
	}
}

func TestFlushChargesWritePenaltyOnlyWhenDirty(t *testing.T) {
	m := small(t)
	lat := m.lat

	m.Write8(0, 1)
	t0 := m.Clock()
	m.Flush(0)
	dirtyCost := m.Clock() - t0
	if dirtyCost != lat.FlushBase+lat.NVMWriteExtra {
		t.Fatalf("dirty flush cost = %v, want %v", dirtyCost, lat.FlushBase+lat.NVMWriteExtra)
	}

	m.Read8(64) // clean resident line
	t1 := m.Clock()
	m.Flush(64)
	cleanCost := m.Clock() - t1
	if cleanCost != lat.FlushBase {
		t.Fatalf("clean flush cost = %v, want %v", cleanCost, lat.FlushBase)
	}
}

func TestFlushInvalidatesCausingLaterMiss(t *testing.T) {
	m := small(t)
	m.Write8(0, 1)
	m.Persist(0, 8)
	c0 := m.Counters()
	m.Read8(0)
	c1 := m.Counters()
	if d := c1.Sub(c0); d.L3Misses != 1 {
		t.Fatalf("post-flush read had %d L3 misses, want 1", d.L3Misses)
	}
}

func TestPersistMakesDataDurable(t *testing.T) {
	m := small(t)
	m.Write8(0, 42)
	m.Persist(0, 8)
	m.Write8(8, 43) // never persisted
	m.Crash(0.0)    // nothing un-persisted survives
	if got := m.Read8(0); got != 42 {
		t.Fatalf("persisted word lost: %d", got)
	}
	if got := m.Read8(8); got != 0 {
		t.Fatalf("un-persisted word survived a 0-probability crash: %d", got)
	}
}

func TestEvictionPersistsSilently(t *testing.T) {
	// One-line cache: writing two lines evicts the first, which must
	// persist without an explicit flush.
	m := New(Config{Size: 1 << 16, Seed: 1, Geoms: []cache.Geometry{
		{Name: "L1", Capacity: cache.LineSize, Ways: 1},
	}, DisablePrefetch: true})
	m.Write8(0, 7)
	m.Write8(cache.LineSize, 8) // evicts line 0
	if got := m.Region().PersistedLoad8(0); got != 7 {
		t.Fatalf("evicted word not persisted: %d", got)
	}
	if m.Counters().NVM.WordsEvicted != 1 {
		t.Fatalf("WordsEvicted = %d, want 1", m.Counters().NVM.WordsEvicted)
	}
}

func TestPersistCoversMultipleLines(t *testing.T) {
	m := small(t)
	m.Write8(56, 1) // line 0
	m.Write8(64, 2) // line 1
	c0 := m.Counters()
	m.Persist(60, 16)
	d := m.Counters().Sub(c0)
	if d.Flushes != 2 {
		t.Fatalf("Flushes = %d, want 2 (two lines)", d.Flushes)
	}
	if d.Fences != 1 {
		t.Fatalf("Fences = %d, want 1", d.Fences)
	}
}

func TestCountersSub(t *testing.T) {
	m := small(t)
	c0 := m.Counters()
	m.Write8(0, 1)
	m.Persist(0, 8)
	m.Read8(512)
	d := m.Counters().Sub(c0)
	if d.Accesses != 2 || d.Flushes != 1 || d.Fences != 1 {
		t.Fatalf("delta = %+v", d)
	}
	if d.ClockNs <= 0 {
		t.Fatal("clock did not advance")
	}
	if d.NVM.Stores != 1 || d.NVM.WordsPersisted != 1 {
		t.Fatalf("NVM delta = %+v", d.NVM)
	}
}

func TestDropCachesKeepsData(t *testing.T) {
	m := small(t)
	m.Write8(0, 99)
	m.DropCaches()
	if got := m.Read8(0); got != 99 {
		t.Fatalf("data lost on DropCaches: %d", got)
	}
	// The dirty write must have been written back (persisted) by the
	// drop, so even a crash now keeps it.
	m.Crash(0.0)
	if got := m.Read8(0); got != 99 {
		t.Fatalf("DropCaches did not write back: %d", got)
	}
}

func TestCleanShutdownPersistsEverything(t *testing.T) {
	m := small(t)
	for i := uint64(0); i < 100; i++ {
		m.Write8(i*8, i)
	}
	m.CleanShutdown()
	m.Crash(0.0)
	for i := uint64(0); i < 100; i++ {
		if m.Read8(i*8) != i {
			t.Fatalf("word %d lost after clean shutdown", i)
		}
	}
}

// Property: after Persist(addr, n), a crash never loses that range.
func TestQuickPersistIsDurable(t *testing.T) {
	f := func(writes []uint16, seed int64) bool {
		m := New(Config{Size: 1 << 16, Seed: seed, Geoms: cache.SmallGeometry()})
		expect := make(map[uint64]uint64)
		for n, w := range writes {
			addr := (uint64(w) % 4096) &^ 7
			val := uint64(n + 1)
			m.Write8(addr, val)
			if n%2 == 0 {
				m.Persist(addr, 8)
				expect[addr] = val
			} else {
				delete(expect, addr) // later unpersisted write may tear
			}
		}
		m.Crash(0.5)
		for addr, val := range expect {
			if m.Read8(addr) != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
