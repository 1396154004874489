package cache

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// refCache and refHierarchy keep the cache model's original layout, a
// set as a header over three slices (tags, valid and dirty bits), with
// every state transition as it was, as the differential oracle for the
// flat way array. They are test-only, the way substrate_bench_test.go
// keeps the seed's map-based dirty tracker.
type refSet struct {
	tags  []uint64
	valid []bool
	dirty []bool
}

type refCache struct {
	sets    []refSet
	ways    int
	setMask uint64
	stats   Stats
}

func newRefCache(capacity uint64, ways int) *refCache {
	nsets := capacity / LineSize / uint64(ways)
	c := &refCache{ways: ways, setMask: nsets - 1, sets: make([]refSet, nsets)}
	for i := range c.sets {
		c.sets[i] = refSet{
			tags:  make([]uint64, ways),
			valid: make([]bool, ways),
			dirty: make([]bool, ways),
		}
	}
	return c
}

func (c *refCache) setFor(line uint64) *refSet { return &c.sets[line&c.setMask] }

func (s *refSet) promote(i int) {
	if i == 0 {
		return
	}
	tag, valid, dirty := s.tags[i], s.valid[i], s.dirty[i]
	copy(s.tags[1:i+1], s.tags[:i])
	copy(s.valid[1:i+1], s.valid[:i])
	copy(s.dirty[1:i+1], s.dirty[:i])
	s.tags[0], s.valid[0], s.dirty[0] = tag, valid, dirty
}

func (c *refCache) hitMRU(line uint64, write bool) bool {
	s := c.setFor(line)
	if !s.valid[0] || s.tags[0] != line {
		return false
	}
	if write {
		s.dirty[0] = true
	}
	c.stats.Hits++
	return true
}

func (c *refCache) access(addr uint64, write bool) (hit bool, ev Evicted, evicted bool) {
	line := lineOf(addr)
	if c.hitMRU(line, write) {
		return true, Evicted{}, false
	}
	s := c.setFor(line)
	for i := 1; i < c.ways; i++ {
		if s.valid[i] && s.tags[i] == line {
			s.promote(i)
			if write {
				s.dirty[0] = true
			}
			c.stats.Hits++
			return true, Evicted{}, false
		}
	}
	c.stats.Misses++
	victim := c.ways - 1
	for i := 0; i < c.ways; i++ {
		if !s.valid[i] {
			victim = i
			break
		}
	}
	if s.valid[victim] {
		ev = Evicted{Line: s.tags[victim], Dirty: s.dirty[victim]}
		evicted = true
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.WriteBacks++
		}
	}
	s.tags[victim] = line
	s.valid[victim] = true
	s.dirty[victim] = write
	s.promote(victim)
	return false, ev, evicted
}

func (c *refCache) flush(addr uint64) (present, dirty bool) {
	line := lineOf(addr)
	s := c.setFor(line)
	for i := 0; i < c.ways; i++ {
		if s.valid[i] && s.tags[i] == line {
			present, dirty = true, s.dirty[i]
			s.valid[i] = false
			s.dirty[i] = false
			c.stats.Flushes++
			if dirty {
				c.stats.WriteBacks++
			}
			return present, dirty
		}
	}
	return false, false
}

func (c *refCache) contains(addr uint64) bool {
	line := lineOf(addr)
	s := c.setFor(line)
	for i := 0; i < c.ways; i++ {
		if s.valid[i] && s.tags[i] == line {
			return true
		}
	}
	return false
}

func (c *refCache) invalidateAll() {
	for i := range c.sets {
		s := &c.sets[i]
		for j := 0; j < c.ways; j++ {
			s.valid[j] = false
			s.dirty[j] = false
		}
	}
}

func (c *refCache) dirtyLines() []uint64 {
	var out []uint64
	for i := range c.sets {
		s := &c.sets[i]
		for j := 0; j < c.ways; j++ {
			if s.valid[j] && s.dirty[j] {
				out = append(out, s.tags[j])
			}
		}
	}
	return out
}

// refWord encodes a reference way as the flat layout's way word.
func refWord(tag uint64, valid, dirty bool) uint64 {
	if !valid {
		return 0
	}
	return wayWord(tag, dirty)
}

type refHierarchy struct{ levels []*refCache }

func newRefHierarchy(geoms []Geometry) *refHierarchy {
	h := &refHierarchy{}
	for _, g := range geoms {
		h.levels = append(h.levels, newRefCache(g.Capacity, g.Ways))
	}
	return h
}

func (h *refHierarchy) access(addr uint64, write bool) (serviced Level, writebacks []uint64) {
	if h.levels[0].hitMRU(lineOf(addr), write) {
		return L1, nil
	}
	for i, c := range h.levels {
		hit, ev, evicted := c.access(addr, write)
		if evicted {
			if i+1 < len(h.levels) {
				h.install(i+1, ev.Line, ev.Dirty, &writebacks)
			} else if ev.Dirty {
				writebacks = append(writebacks, ev.Line)
			}
		}
		if hit {
			return Level(i), writebacks
		}
	}
	return Memory, writebacks
}

func (h *refHierarchy) install(i int, line uint64, dirty bool, writebacks *[]uint64) {
	c := h.levels[i]
	s := c.setFor(line)
	for j := 0; j < c.ways; j++ {
		if s.valid[j] && s.tags[j] == line {
			s.promote(j)
			if dirty {
				s.dirty[0] = true
			}
			return
		}
	}
	victim := c.ways - 1
	for j := 0; j < c.ways; j++ {
		if !s.valid[j] {
			victim = j
			break
		}
	}
	if s.valid[victim] {
		evLine, evDirty := s.tags[victim], s.dirty[victim]
		c.stats.Evictions++
		if evDirty {
			c.stats.WriteBacks++
		}
		if i+1 < len(h.levels) {
			h.install(i+1, evLine, evDirty, writebacks)
		} else if evDirty {
			*writebacks = append(*writebacks, evLine)
		}
	}
	s.tags[victim] = line
	s.valid[victim] = true
	s.dirty[victim] = dirty
	s.promote(victim)
}

func (h *refHierarchy) prefetch(addr uint64) []uint64 {
	var writebacks []uint64
	i := min(1, len(h.levels)-1)
	h.install(i, lineOf(addr), false, &writebacks)
	return writebacks
}

func (h *refHierarchy) flush(addr uint64) (present, dirty bool) {
	for _, c := range h.levels {
		p, d := c.flush(addr)
		present = present || p
		dirty = dirty || d
	}
	return present, dirty
}

func (h *refHierarchy) flushAll() []uint64 {
	seen := make(map[uint64]bool)
	var dirty []uint64
	for _, c := range h.levels {
		for _, line := range c.dirtyLines() {
			if !seen[line] {
				seen[line] = true
				dirty = append(dirty, line)
			}
		}
		c.invalidateAll()
	}
	return dirty
}

func (h *refHierarchy) invalidateAll() {
	for _, c := range h.levels {
		c.invalidateAll()
	}
}

// TestFlatLayoutMatchesReference drives the flat way array and the
// original slice-per-set layout with one seeded stream of reads,
// writes, clflushes, prefetches and occasional FlushAll/InvalidateAll
// calls, and requires the same answer from both after every operation:
// the serviced level, the write-backs in order, Flush's (present,
// dirty), FlushAll's lines in order, and residency of the touched line
// at every level. At checkpoints it compares every level's Stats,
// DirtyLines in order, and every way word against the reference's
// tag, valid and dirty bits. Half the accesses go to a hot window twice the
// size of L1; half of the rest are folded onto 1/32 of the last
// level's sets, so its sets overflow and dirty lines leave the
// hierarchy within the run, which the coverage checks at the end pin.
func TestFlatLayoutMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		geoms []Geometry
		ops   int
	}{
		{"small", SmallGeometry(), 100000},
		{"paper", PaperGeometry(), 300000},
		{"one-level-1-way", []Geometry{{Name: "only", Capacity: 16 * LineSize, Ways: 1}}, 20000},
		{"3-way", []Geometry{
			{Name: "L1", Capacity: 32 * LineSize, Ways: 2},
			{Name: "L2", Capacity: 192 * LineSize, Ways: 3},
		}, 40000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstReference(t, tc.geoms, tc.ops)
		})
	}
}

func checkAgainstReference(t *testing.T, geoms []Geometry, ops int) {
	h, ref := NewHierarchy(geoms), newRefHierarchy(geoms)
	last := geoms[len(geoms)-1]
	lastSets := last.Capacity / LineSize / uint64(last.Ways)
	spanLines := 4 * last.Capacity / LineSize
	hotLines := 2 * geoms[0].Capacity / LineSize
	fold := (lastSets - 1) &^ (max(lastSets/32, 1) - 1)
	checkEvery := ops / 64

	r := rand.New(rand.NewPCG(1, uint64(len(geoms))))
	nextAddr := func() uint64 {
		var line uint64
		switch {
		case r.IntN(2) == 0:
			line = r.Uint64N(hotLines)
		case r.IntN(2) == 0:
			line = r.Uint64N(spanLines) &^ fold
		default:
			line = r.Uint64N(spanLines)
		}
		return line<<LineShift | r.Uint64N(LineSize/8)*8
	}

	var writebacks, dirtyFlushes, resets int
	checkpoint := func(op int) {
		t.Helper()
		for i, c := range h.Levels() {
			if got, want := c.Stats(), ref.levels[i].stats; got != want {
				t.Fatalf("op %d: %s stats %+v, reference %+v", op, c.Name(), got, want)
			}
			if got, want := c.DirtyLines(), ref.levels[i].dirtyLines(); !slices.Equal(got, want) {
				t.Fatalf("op %d: %s DirtyLines differ: %d lines, reference %d", op, c.Name(), len(got), len(want))
			}
			// Way by way: a hole's position is invisible to the exported
			// API (fills take any hole, and the valid lines keep their
			// order), so only this catches a Flush that compacts its set.
			for j, w := range c.ways {
				s := &ref.levels[i].sets[j/c.nways]
				k := j % c.nways
				if want := refWord(s.tags[k], s.valid[k], s.dirty[k]); w != want {
					t.Fatalf("op %d: %s set %d way %d holds %#x, reference %#x", op, c.Name(), j/c.nways, k, w, want)
				}
			}
		}
	}
	for op := 0; op < ops; op++ {
		addr := nextAddr()
		k, reset := r.IntN(100), r.IntN(ops/3)
		switch {
		case reset == 0: // about three FlushAll calls per run
			got, want := h.FlushAll(), ref.flushAll()
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: FlushAll returned %d lines, reference %d", op, len(got), len(want))
			}
			resets++
			checkpoint(op)
		case reset == 1: // and three InvalidateAll calls
			h.InvalidateAll()
			ref.invalidateAll()
			resets++
			checkpoint(op)
		case k < 70:
			write := k >= 50
			lvl, wbs := h.Access(addr, write)
			rlvl, rwbs := ref.access(addr, write)
			if lvl != rlvl || !slices.Equal(wbs, rwbs) {
				t.Fatalf("op %d: Access(%#x, %v) = %v, %v; reference %v, %v", op, addr, write, lvl, wbs, rlvl, rwbs)
			}
			writebacks += len(wbs)
		case k < 85:
			p, d := h.Flush(addr)
			rp, rd := ref.flush(addr)
			if p != rp || d != rd {
				t.Fatalf("op %d: Flush(%#x) = %v, %v; reference %v, %v", op, addr, p, d, rp, rd)
			}
			if d {
				dirtyFlushes++
			}
		default:
			wbs, rwbs := h.Prefetch(addr), ref.prefetch(addr)
			if !slices.Equal(wbs, rwbs) {
				t.Fatalf("op %d: Prefetch(%#x) wrote back %v, reference %v", op, addr, wbs, rwbs)
			}
			writebacks += len(wbs)
		}
		for i, c := range h.Levels() {
			if c.Contains(addr) != ref.levels[i].contains(addr) {
				t.Fatalf("op %d: %s residency of %#x differs", op, c.Name(), addr)
			}
		}
		if op%checkEvery == 0 {
			checkpoint(op)
		}
	}
	checkpoint(ops)

	// The stream must have reached every transition it is meant to
	// compare, or agreement would prove nothing.
	for _, c := range h.Levels() {
		if s := c.Stats(); s.Hits == 0 || s.Misses == 0 || s.Evictions == 0 || s.Flushes == 0 {
			t.Fatalf("%s never saw some transition: %+v", c.Name(), s)
		}
	}
	t.Logf("%s %+v; %d write-backs left the hierarchy, %d flushes found a dirty line, %d FlushAll/InvalidateAll calls",
		last.Name, h.Levels()[len(geoms)-1].Stats(), writebacks, dirtyFlushes, resets)
	if writebacks == 0 || dirtyFlushes == 0 || resets == 0 {
		t.Fatal("no write-back left the hierarchy, no flush found a dirty line, or the caches were never reset")
	}
}
