package cache

// Hierarchy chains L1, L2 and L3 into an inclusive-enough model: an
// access probes nearest-first; the first level that hits services it and
// the line is filled into every nearer level. A line evicted dirty from
// L3 is reported to the owner (the memsim layer), which writes the words
// back to the NVM region — silently persisting them, exactly like real
// hardware write-back. Dirty evictions from L1/L2 are folded into the
// next level down (the line is installed there dirty).
//
// This is a simplification of a real inclusive hierarchy (no back-
// invalidation on L3 eviction), which is fine for the paper's metrics:
// L3 miss counts depend on L3 contents, and persistence correctness
// depends only on which dirty lines have left the hierarchy.
type Hierarchy struct {
	levels []*Cache // nearest first: L1, L2, L3
}

// Geometry describes one level of the hierarchy.
type Geometry struct {
	Name     string
	Capacity uint64
	Ways     int
}

// PaperGeometry returns the cache geometry of the paper's Xeon E5-2620
// (Table 2 lists socket totals: 384 KB L1 / 1.5 MB L2 / 15 MB L3). The
// workload is single-threaded, so we model the caches one core actually
// sees on that Sandy Bridge part: 32 KB 8-way L1D and 256 KB 8-way
// private L2, plus the full 15 MB shared L3 (15-way, giving a
// power-of-two set count), all with 64-byte lines.
func PaperGeometry() []Geometry {
	return []Geometry{
		{Name: "L1", Capacity: 32 << 10, Ways: 8},
		{Name: "L2", Capacity: 256 << 10, Ways: 8},
		{Name: "L3", Capacity: 15 << 20, Ways: 15},
	}
}

// SmallGeometry returns a scaled-down hierarchy for fast unit tests.
func SmallGeometry() []Geometry {
	return []Geometry{
		{Name: "L1", Capacity: 4 << 10, Ways: 2},
		{Name: "L2", Capacity: 16 << 10, Ways: 4},
		{Name: "L3", Capacity: 64 << 10, Ways: 4},
	}
}

// NewHierarchy builds a hierarchy from nearest to farthest level.
func NewHierarchy(geoms []Geometry) *Hierarchy {
	if len(geoms) == 0 {
		panic("cache: hierarchy needs at least one level")
	}
	h := &Hierarchy{}
	for _, g := range geoms {
		h.levels = append(h.levels, New(g.Name, g.Capacity, g.Ways))
	}
	return h
}

// Levels returns the underlying caches, nearest first.
func (h *Hierarchy) Levels() []*Cache { return h.levels }

// Access runs addr through the hierarchy. It returns the level that
// serviced the access (Memory if every cache missed) and the set of
// dirty lines that left the hierarchy entirely (LLC dirty evictions),
// which the caller must write back to the NVM region.
func (h *Hierarchy) Access(addr uint64, write bool) (serviced Level, writebacks []uint64) {
	// Fast path: an L1 MRU hit needs no fills, no evictions and no
	// write-backs — it short-circuits the per-level loop (and its slice
	// bookkeeping) entirely. State transitions are identical to the
	// general path below.
	if h.levels[0].hitMRU(lineOf(addr), write) {
		return L1, nil
	}
	for i, c := range h.levels {
		hit, ev, evicted := c.Access(addr, write)
		if evicted {
			if i+1 < len(h.levels) {
				// Fold the displaced line into the next level down,
				// preserving its dirtiness, without counting it as a
				// demand access.
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

// install places a line into level i (and handles the ripple of
// evictions) without touching hit/miss statistics — it models the
// background movement of a displaced line, not a demand access.
func (h *Hierarchy) install(i int, line uint64, dirty bool, writebacks *[]uint64) {
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

// Prefetch installs the line containing addr clean into the L2 level
// (or the only level), without touching demand hit/miss statistics —
// modelling a hardware streamer prefetch. It returns any dirty lines
// the install displaced out of the hierarchy, which the caller must
// write back.
func (h *Hierarchy) Prefetch(addr uint64) []uint64 {
	var writebacks []uint64
	i := 1
	if i >= len(h.levels) {
		i = len(h.levels) - 1
	}
	h.install(i, lineOf(addr), false, &writebacks)
	return writebacks
}

// Flush invalidates the line containing addr from every level (clflush
// semantics) and reports whether any copy anywhere was dirty, i.e.
// whether the flush implies a write of the line to NVM.
func (h *Hierarchy) Flush(addr uint64) (present, dirty bool) {
	for _, c := range h.levels {
		p, d := c.Flush(addr)
		present = present || p
		dirty = dirty || d
	}
	return present, dirty
}

// FlushAll writes back and invalidates every dirty line in the whole
// hierarchy, returning the lines that were dirty anywhere (wbinvd-like;
// used between experiment phases and at clean shutdown).
func (h *Hierarchy) FlushAll() []uint64 {
	seen := make(map[uint64]bool)
	var dirty []uint64
	for _, c := range h.levels {
		for _, line := range c.DirtyLines() {
			if !seen[line] {
				seen[line] = true
				dirty = append(dirty, line)
			}
		}
		c.InvalidateAll()
	}
	return dirty
}

// InvalidateAll drops all lines at all levels without write-back. Only
// meaningful for simulating a cold cache where the region's persistence
// state is managed separately (e.g. right after a simulated reboot).
func (h *Hierarchy) InvalidateAll() {
	for _, c := range h.levels {
		c.InvalidateAll()
	}
}

// MissesAt returns the miss count of the named level (L3 for the paper's
// figures).
func (h *Hierarchy) MissesAt(l Level) uint64 {
	return h.levels[int(l)].stats.Misses
}
