package cache

import (
	"testing"
	"testing/quick"
)

func TestNewRejectsBadGeometry(t *testing.T) {
	for _, f := range []func(){
		func() { New("x", 3*LineSize, 1) }, // 3 sets: not power of two
		func() { New("x", LineSize, 0) },   // zero ways
		func() { New("x", LineSize/2, 1) }, // zero sets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	c := New("t", 8*LineSize, 2)
	if hit, _, _ := c.Access(0, false); hit {
		t.Fatal("cold access should miss")
	}
	if hit, _, _ := c.Access(8, false); !hit {
		t.Fatal("same-line access should hit")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped-ish: 2 ways, 4 sets. Lines 0, 4, 8 map to set 0.
	c := New("t", 8*LineSize, 2)
	a0 := uint64(0)
	a4 := uint64(4 * LineSize)
	a8 := uint64(8 * LineSize)
	c.Access(a0, true) // dirty
	c.Access(a4, false)
	c.Access(a0, false) // promote line 0; line 4 is now LRU
	_, ev, evicted := c.Access(a8, false)
	if !evicted {
		t.Fatal("third distinct line in 2-way set must evict")
	}
	if ev.Line != 4 {
		t.Fatalf("evicted line %d, want 4 (the LRU)", ev.Line)
	}
	if ev.Dirty {
		t.Fatal("line 4 was never written; must be clean")
	}
	if !c.Contains(a0) || !c.Contains(a8) || c.Contains(a4) {
		t.Fatal("residency after eviction is wrong")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := New("t", 8*LineSize, 2)
	c.Access(0, true)
	c.Access(4*LineSize, true)
	_, ev, evicted := c.Access(8*LineSize, false)
	if !evicted || !ev.Dirty || ev.Line != 0 {
		t.Fatalf("eviction = %+v/%v, want dirty line 0", ev, evicted)
	}
	if c.Stats().WriteBacks != 1 {
		t.Fatalf("WriteBacks = %d, want 1", c.Stats().WriteBacks)
	}
}

func TestFlushInvalidates(t *testing.T) {
	c := New("t", 8*LineSize, 2)
	c.Access(0, true)
	present, dirty := c.Flush(32) // same line as 0
	if !present || !dirty {
		t.Fatalf("flush = %v/%v, want present dirty", present, dirty)
	}
	if c.Contains(0) {
		t.Fatal("line resident after flush")
	}
	if hit, _, _ := c.Access(0, false); hit {
		t.Fatal("access after flush must miss (the paper's clflush effect)")
	}
	if p, _ := c.Flush(7 * LineSize); p {
		t.Fatal("flush of a never-cached line should find nothing")
	}
}

func TestInvalidateAllAndDirtyLines(t *testing.T) {
	c := New("t", 16*LineSize, 4)
	c.Access(0, true)
	c.Access(LineSize, false)
	c.Access(2*LineSize, true)
	dirty := c.DirtyLines()
	if len(dirty) != 2 {
		t.Fatalf("DirtyLines = %v, want 2 entries", dirty)
	}
	c.InvalidateAll()
	if c.Contains(0) || len(c.DirtyLines()) != 0 {
		t.Fatal("InvalidateAll left residue")
	}
}

func TestHierarchyFillAndLevels(t *testing.T) {
	h := NewHierarchy(SmallGeometry(), nil)
	lvl := h.Access(0, false)
	if lvl != Memory {
		t.Fatalf("cold access serviced by %v, want Memory", lvl)
	}
	lvl = h.Access(0, false)
	if lvl != L1 {
		t.Fatalf("warm access serviced by %v, want L1", lvl)
	}
	if h.MissesAt(L3) != 1 {
		t.Fatalf("L3 misses = %d, want 1", h.MissesAt(L3))
	}
}

func TestHierarchyL1EvictionFallsToL2(t *testing.T) {
	h := NewHierarchy(SmallGeometry(), nil)
	l1 := h.Levels()[0] // 4KB, 2-way: 32 sets
	sets := l1.setMask + 1
	// Three lines in the same L1 set: the first gets demoted to L2.
	a := uint64(0)
	b := sets * LineSize
	c := 2 * sets * LineSize
	h.Access(a, false)
	h.Access(b, false)
	h.Access(c, false)
	// a should now hit in L2, not L1.
	lvl := h.Access(a, false)
	if lvl != L2 {
		t.Fatalf("demoted line serviced by %v, want L2", lvl)
	}
}

func TestHierarchyDirtyLLCEvictionReportsWriteback(t *testing.T) {
	geoms := []Geometry{{Name: "only", Capacity: 2 * LineSize, Ways: 2}}
	var wbs []uint64
	h := NewHierarchy(geoms, func(line uint64) { wbs = append(wbs, line) })
	h.Access(0, true)
	h.Access(LineSize, true)
	h.Access(2*LineSize, false)
	if len(wbs) != 1 || wbs[0] != 0 {
		t.Fatalf("writebacks = %v, want [0]", wbs)
	}
}

func TestHierarchyFlushAllLevels(t *testing.T) {
	h := NewHierarchy(SmallGeometry(), nil)
	h.Access(0, true)
	present, dirty := h.Flush(0)
	if !present || !dirty {
		t.Fatalf("flush = %v/%v", present, dirty)
	}
	lvl := h.Access(0, false)
	if lvl != Memory {
		t.Fatalf("post-flush access serviced by %v, want Memory", lvl)
	}
}

func TestHierarchyFlushAllCollectsDirty(t *testing.T) {
	h := NewHierarchy(SmallGeometry(), nil)
	h.Access(0, true)
	h.Access(LineSize, false)
	h.Access(5*LineSize, true)
	dirty := h.FlushAll()
	if len(dirty) != 2 {
		t.Fatalf("FlushAll = %v, want 2 dirty lines", dirty)
	}
	if lvl := h.Access(0, false); lvl != Memory {
		t.Fatal("caches not empty after FlushAll")
	}
}

// Property: hits + misses == accesses for any access pattern.
func TestQuickHitMissAccounting(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New("q", 32*LineSize, 4)
		for _, a := range addrs {
			c.Access(uint64(a)%(1<<20), a%2 == 0)
		}
		s := c.Stats()
		return s.Hits+s.Misses == uint64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a cache never holds more distinct lines than its capacity,
// and re-accessing a just-accessed address always hits.
func TestQuickTemporalLocalityAlwaysHits(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New("q", 16*LineSize, 2)
		for _, a := range addrs {
			addr := uint64(a) % (1 << 18)
			c.Access(addr, false)
			hit, _, _ := c.Access(addr, false)
			if !hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the hierarchy reports each dirty line's writeback at most
// once (no duplicated persistence events for one store).
func TestQuickNoDuplicateWritebacks(t *testing.T) {
	f := func(addrs []uint16) bool {
		seen := make(map[uint64]int)
		h := NewHierarchy([]Geometry{
			{Name: "L1", Capacity: 2 * LineSize, Ways: 1},
			{Name: "L2", Capacity: 4 * LineSize, Ways: 1},
		}, func(line uint64) { seen[line]++ })
		dirtied := make(map[uint64]int)
		for _, a := range addrs {
			addr := uint64(a) % (1 << 13)
			line := addr >> LineShift
			// Count how many times we dirty each line while it is
			// outside the hierarchy (each such episode can cause at
			// most one writeback).
			dirtied[line]++
			h.Access(addr, true)
		}
		for line, n := range seen {
			if n > dirtied[line] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyPrefetchInstallsClean(t *testing.T) {
	var wbs []uint64
	h := NewHierarchy(SmallGeometry(), func(line uint64) { wbs = append(wbs, line) })
	h.Prefetch(5 * LineSize)
	if len(wbs) != 0 {
		t.Fatalf("prefetch into empty hierarchy wrote back %v", wbs)
	}
	// The prefetched line must be resident below L1 (installed in L2).
	if h.Levels()[0].Contains(5 * LineSize) {
		t.Fatal("prefetch must not pollute L1")
	}
	if !h.Levels()[1].Contains(5 * LineSize) {
		t.Fatal("prefetched line not in L2")
	}
	// A demand access then hits at L2.
	lvl := h.Access(5*LineSize, false)
	if lvl != L2 {
		t.Fatalf("post-prefetch access serviced by %v, want L2", lvl)
	}
}

func TestHierarchyPrefetchEvictionsReported(t *testing.T) {
	// Tiny single-level hierarchy: prefetches displace dirty lines,
	// which must surface as writebacks.
	var wbs []uint64
	h := NewHierarchy([]Geometry{{Name: "only", Capacity: LineSize, Ways: 1}}, func(line uint64) { wbs = append(wbs, line) })
	h.Access(0, true) // dirty line 0
	h.Prefetch(LineSize)
	if len(wbs) != 1 || wbs[0] != 0 {
		t.Fatalf("writebacks = %v, want [0]", wbs)
	}
}

func TestHierarchyPrefetchExistingLinePreservesDirty(t *testing.T) {
	h := NewHierarchy(SmallGeometry(), nil)
	h.Access(0, true)
	h.Prefetch(0) // line already resident and dirty
	_, dirty := h.Flush(0)
	if !dirty {
		t.Fatal("prefetch of a resident line cleared its dirty bit")
	}
}
