// Package cache implements a set-associative, write-back, write-allocate
// CPU cache simulator with true-LRU replacement, plus a multi-level
// hierarchy configured with the geometry of the Xeon E5-2620 used in the
// paper's evaluation (Table 2: 384 KB L1 / 1.5 MB L2 / 15 MB L3, 64-byte
// lines).
//
// The simulator is a timing/occupancy model, not a data store: it tracks
// tags and dirty bits only; the data itself lives in the nvm.Region. Its
// two jobs are (1) producing the L3 miss counts reported in Figures 2(b)
// and 6 of the paper, and (2) telling the latency model which level
// serviced each access. clflush invalidates the line from every level —
// the very effect the paper highlights ("clflush ... will incur a cache
// miss when reading the same memory address later").
package cache

import "fmt"

// LineSize is the cacheline size in bytes, matching x86.
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// Level identifies a cache level or memory for access classification.
type Level int

// Cache levels, ordered nearest-first. Memory means all levels missed.
const (
	L1 Level = iota
	L2
	L3
	Memory
)

// Stats holds per-cache counters.
type Stats struct {
	Hits       uint64 // accesses serviced by this cache
	Misses     uint64 // accesses passed down to the next level
	Evictions  uint64 // lines displaced by fills
	WriteBacks uint64 // displaced or flushed lines that were dirty
	Flushes    uint64 // clflush invalidations that found the line here
}

// set is one associativity set. Ways are kept in LRU order:
// index 0 is most recently used, the last index is the victim.
type set struct {
	tags  []uint64
	valid []bool
	dirty []bool
}

// Cache is a single set-associative cache level.
type Cache struct {
	name     string
	sets     []set
	ways     int
	setMask  uint64
	stats    Stats
	capacity uint64
}

// New creates a cache of the given capacity in bytes and associativity.
// Capacity must be a multiple of ways*LineSize and the resulting set
// count must be a power of two.
func New(name string, capacity uint64, ways int) *Cache {
	if ways <= 0 {
		panic("cache: ways must be positive")
	}
	lines := capacity / LineSize
	nsets := lines / uint64(ways)
	if nsets == 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d is not a power of two (capacity %d, ways %d)", name, nsets, capacity, ways))
	}
	c := &Cache{name: name, ways: ways, setMask: nsets - 1, capacity: capacity}
	c.sets = make([]set, nsets)
	for i := range c.sets {
		c.sets[i] = set{
			tags:  make([]uint64, ways),
			valid: make([]bool, ways),
			dirty: make([]bool, ways),
		}
	}
	return c
}

// Name returns the label given at construction.
func (c *Cache) Name() string { return c.name }

// Capacity returns the cache capacity in bytes.
func (c *Cache) Capacity() uint64 { return c.capacity }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// lineOf returns the line-aligned address of addr.
func lineOf(addr uint64) uint64 { return addr >> LineShift }

func (c *Cache) setFor(line uint64) *set { return &c.sets[line&c.setMask] }

// promote moves way i of s to the MRU position.
func (s *set) promote(i int) {
	if i == 0 {
		return // already MRU
	}
	tag, valid, dirty := s.tags[i], s.valid[i], s.dirty[i]
	copy(s.tags[1:i+1], s.tags[:i])
	copy(s.valid[1:i+1], s.valid[:i])
	copy(s.dirty[1:i+1], s.dirty[:i])
	s.tags[0], s.valid[0], s.dirty[0] = tag, valid, dirty
}

// hitMRU services the access if the line is already in the MRU way of
// its set — the overwhelmingly common case for the word-by-word access
// streams the memsim front-end generates (several accesses per line
// before moving on). It performs exactly the state transitions the
// general path would (Hits counter, dirty bit) and no others: the line
// is already MRU, so promote would be a no-op.
func (c *Cache) hitMRU(line uint64, write bool) bool {
	s := &c.sets[line&c.setMask]
	if !s.valid[0] || s.tags[0] != line {
		return false
	}
	if write {
		s.dirty[0] = true
	}
	c.stats.Hits++
	return true
}

// Evicted describes a line displaced by a fill.
type Evicted struct {
	Line  uint64 // line number (address >> LineShift)
	Dirty bool
}

// Access looks up the line containing addr, filling it on a miss.
// write marks the line dirty on success. It reports whether the access
// hit, and, when the fill displaced a valid line, the eviction details.
func (c *Cache) Access(addr uint64, write bool) (hit bool, ev Evicted, evicted bool) {
	line := lineOf(addr)
	if c.hitMRU(line, write) {
		return true, Evicted{}, false
	}
	s := c.setFor(line)
	// Way 0 was checked by the MRU fast path; scan the rest.
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
	// Fill: victim is the LRU way (last). Prefer an invalid way.
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

// Flush invalidates the line containing addr if present, returning
// whether it was present and whether it was dirty. Models clflush at
// this level.
func (c *Cache) Flush(addr uint64) (present, dirty bool) {
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

// Contains reports whether the line holding addr is resident (test hook).
func (c *Cache) Contains(addr uint64) bool {
	line := lineOf(addr)
	s := c.setFor(line)
	for i := 0; i < c.ways; i++ {
		if s.valid[i] && s.tags[i] == line {
			return true
		}
	}
	return false
}

// InvalidateAll drops every line (e.g. to model a cold start between
// measurement phases). Dirty contents are NOT written back; callers that
// need write-back semantics should use FlushAll on the hierarchy.
func (c *Cache) InvalidateAll() {
	for i := range c.sets {
		s := &c.sets[i]
		for j := 0; j < c.ways; j++ {
			s.valid[j] = false
			s.dirty[j] = false
		}
	}
}

// DirtyLines returns all currently dirty resident lines (test hook and
// FlushAll support).
func (c *Cache) DirtyLines() []uint64 {
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
