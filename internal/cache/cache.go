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

// A way word holds one cached line: 0 when the way is invalid, else
// line<<2 | wayValid, with wayDirty set while the line is dirty. The
// valid bit keeps line 0 distinct from an invalid way, and a dirty bit
// is never set on an invalid way, so a word with wayDirty is resident.
const (
	wayValid uint64 = 1
	wayDirty uint64 = 2
)

// wayWord returns the way word of resident line.
func wayWord(line uint64, dirty bool) uint64 {
	w := line<<2 | wayValid
	if dirty {
		w |= wayDirty
	}
	return w
}

// Cache is a single set-associative cache level. Its ways are one flat
// array of way words: set s owns ways[s*nways : s*nways+nways], kept in
// LRU order — the set's first way is most recently used, its last way
// is the victim — so a set lookup reads one contiguous run of words.
type Cache struct {
	name     string
	ways     []uint64
	nways    int
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
	return &Cache{
		name:     name,
		ways:     make([]uint64, nsets*uint64(ways)),
		nways:    ways,
		setMask:  nsets - 1,
		capacity: capacity,
	}
}

// Name returns the label given at construction.
func (c *Cache) Name() string { return c.name }

// Capacity returns the cache capacity in bytes.
func (c *Cache) Capacity() uint64 { return c.capacity }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// lineOf returns the line-aligned address of addr.
func lineOf(addr uint64) uint64 { return addr >> LineShift }

// setFor returns the ways of the set line maps to, MRU first.
func (c *Cache) setFor(line uint64) []uint64 {
	i := int(line&c.setMask) * c.nways
	return c.ways[i : i+c.nways : i+c.nways]
}

// find returns the way of s holding line, or -1.
func find(s []uint64, line uint64) int {
	key := wayWord(line, false)
	for i, w := range s {
		if w&^wayDirty == key {
			return i
		}
	}
	return -1
}

// promote moves way i of s to the MRU position.
func promote(s []uint64, i int) {
	w := s[i]
	copy(s[1:i+1], s[:i])
	s[0] = w
}

// fill places line in s as its MRU way. It takes the first invalid
// way, else the LRU (last) way, counting the eviction of a valid line,
// and returns the displaced way's word: 0 when the way was invalid.
func (c *Cache) fill(s []uint64, line uint64, dirty bool) (old uint64) {
	victim := len(s) - 1
	for i, w := range s {
		if w == 0 {
			victim = i
			break
		}
	}
	old = s[victim]
	if old != 0 {
		c.stats.Evictions++
		if old&wayDirty != 0 {
			c.stats.WriteBacks++
		}
	}
	s[victim] = wayWord(line, dirty)
	promote(s, victim)
	return old
}

// hitMRU services the access if the line is already in the MRU way of
// its set — the overwhelmingly common case for the word-by-word access
// streams the memsim front-end generates (several accesses per line
// before moving on). It performs exactly the state transitions the
// general path would (Hits counter, dirty bit) and no others: the line
// is already MRU, so promote would be a no-op.
func (c *Cache) hitMRU(line uint64, write bool) bool {
	w := &c.ways[int(line&c.setMask)*c.nways]
	if *w&^wayDirty != wayWord(line, false) {
		return false
	}
	if write {
		*w |= wayDirty
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
	if i := find(s[1:], line); i >= 0 {
		promote(s, i+1)
		if write {
			s[0] |= wayDirty
		}
		c.stats.Hits++
		return true, Evicted{}, false
	}
	c.stats.Misses++
	if old := c.fill(s, line, write); old != 0 {
		return false, Evicted{Line: old >> 2, Dirty: old&wayDirty != 0}, true
	}
	return false, Evicted{}, false
}

// Flush invalidates the line containing addr if present, returning
// whether it was present and whether it was dirty. Models clflush at
// this level. The way is left in place as an invalid hole, which a
// later fill of the set takes before it evicts the LRU way.
func (c *Cache) Flush(addr uint64) (present, dirty bool) {
	line := lineOf(addr)
	s := c.setFor(line)
	i := find(s, line)
	if i < 0 {
		return false, false
	}
	dirty = s[i]&wayDirty != 0
	s[i] = 0
	c.stats.Flushes++
	if dirty {
		c.stats.WriteBacks++
	}
	return true, dirty
}

// Contains reports whether the line holding addr is resident (test hook).
func (c *Cache) Contains(addr uint64) bool {
	line := lineOf(addr)
	return find(c.setFor(line), line) >= 0
}

// InvalidateAll drops every line (e.g. to model a cold start between
// measurement phases). Dirty contents are NOT written back; callers that
// need write-back semantics should use FlushAll on the hierarchy.
func (c *Cache) InvalidateAll() { clear(c.ways) }

// DirtyLines returns all currently dirty resident lines, set by set and
// MRU first within a set (test hook and FlushAll support).
func (c *Cache) DirtyLines() []uint64 {
	var out []uint64
	for _, w := range c.ways {
		if w&wayDirty != 0 {
			out = append(out, w>>2)
		}
	}
	return out
}
