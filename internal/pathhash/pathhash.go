// Package pathhash implements path hashing (Zuo & Hua, "A write-
// friendly hashing scheme for non-volatile memory systems", MSST 2017),
// the second NVM-friendly baseline of the paper's evaluation.
//
// Storage cells are organised as an inverted complete binary tree. The
// top level (level 0) holds N hash-addressable cells; level d below
// holds N/2^d cells, and the cell at position p of level d is shared by
// the two level-(d-1) cells 2p and 2p+1 ("position sharing"). With
// "path shortening", only the top `Levels` levels are allocated. Each
// key has two root positions (two hash functions); its items may sit
// anywhere on the two downward paths, so a request probes up to
// 2*Levels cells.
//
// Crucially for the paper's argument, the cells of a path live in
// DIFFERENT level arrays — they are not contiguous in memory, so every
// probe step is a fresh cacheline: "the cells in each collision
// addressing path are not contiguous in memory space ... which
// increases the number of memory access and L3 cache miss" (§2.3).
//
// Like the other baselines, the table optionally carries an undo WAL
// (the paper's Path-L variant).
package pathhash

import (
	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
	"grouphash/internal/wal"
	"grouphash/internal/xhash"
)

// DefaultLevels is the paper's setting: "we set the reserved levels
// to 20".
const DefaultLevels = 20

// Options configures a table.
type Options struct {
	// Cells is the top-level size N (power of two).
	Cells uint64
	// Levels is the number of reserved levels including the top;
	// 0 means min(DefaultLevels, log2(Cells)+1).
	Levels int
	// KeyBytes is 8 or 16.
	KeyBytes int
	// Seed selects the hash-function pair.
	Seed uint64
	// Logged attaches an undo WAL (the paper's Path-L variant).
	Logged bool
}

// Table is a path-hashing table over persistent memory.
type Table struct {
	mem    hashtab.Mem
	l      layout.Layout
	h1, h2 xhash.Func
	levels []hashtab.Cells // levels[0] is the top (hash-addressable) level
	count  hashtab.Count
	log    *wal.Log
	total  uint64
}

// New allocates a table in mem.
func New(mem hashtab.Mem, opts Options) *Table {
	if opts.Cells == 0 || opts.Cells&(opts.Cells-1) != 0 {
		panic("pathhash: Cells must be a nonzero power of two")
	}
	if opts.KeyBytes == 0 {
		opts.KeyBytes = 8
	}
	maxLevels := 1
	for c := opts.Cells; c > 1; c >>= 1 {
		maxLevels++
	}
	if opts.Levels == 0 {
		opts.Levels = DefaultLevels
	}
	if opts.Levels > maxLevels {
		opts.Levels = maxLevels
	}
	l := layout.ForKeySize(opts.KeyBytes)
	t := &Table{
		mem:   mem,
		l:     l,
		h1:    xhash.NewFunc(opts.Seed*2+11, opts.Cells, l.KeyWords() == 2),
		h2:    xhash.NewFunc(opts.Seed*2+12, opts.Cells, l.KeyWords() == 2),
		count: hashtab.NewCount(mem),
	}
	// Allocate the level arrays separately so path cells are spread
	// across distinct memory areas, as in the original layout.
	for d := 0; d < opts.Levels; d++ {
		n := opts.Cells >> uint(d)
		t.levels = append(t.levels, hashtab.NewCells(mem, l, n))
		t.total += n
	}
	if opts.Logged {
		t.log = wal.New(mem, l)
	}
	return t
}

// Name implements hashtab.Table.
func (t *Table) Name() string {
	if t.log != nil {
		return "path-L"
	}
	return "path"
}

// Levels returns the number of reserved levels.
func (t *Table) Levels() int { return len(t.levels) }

// Len returns the number of stored items.
func (t *Table) Len() uint64 { return t.count.Get() }

// Capacity returns the total cells across all levels.
func (t *Table) Capacity() uint64 { return t.total }

// LoadFactor returns Len/Capacity, 0 on a zero-capacity table.
func (t *Table) LoadFactor() float64 {
	if t.Capacity() == 0 {
		return 0
	}
	return float64(t.Len()) / float64(t.Capacity())
}

func (t *Table) logCell(c *hashtab.Cells, i uint64) {
	if t.log == nil {
		return
	}
	meta, k, v := c.Snapshot(i)
	t.log.LogCell(c.Addr(i), meta, k, v)
}

func (t *Table) commit() {
	if t.log != nil {
		t.log.Commit()
	}
}

// pathCell returns the cells array and index of level d on the path
// rooted at top-level position p.
func (t *Table) pathCell(p uint64, d int) (*hashtab.Cells, uint64) {
	return &t.levels[d], p >> uint(d)
}

// Insert walks the two paths level by level (shallowest first,
// alternating between the two roots) and places the item in the first
// empty cell found. ErrTableFull means both paths are fully occupied.
func (t *Table) Insert(k layout.Key, v uint64) error {
	if !t.l.ValidKey(k) {
		return hashtab.ErrInvalidKey
	}
	p1 := t.h1.Index(k.Lo, k.Hi)
	p2 := t.h2.Index(k.Lo, k.Hi)
	for d := 0; d < len(t.levels); d++ {
		for _, p := range [2]uint64{p1, p2} {
			c, i := t.pathCell(p, d)
			if !c.Occupied(i) {
				t.logCell(c, i)
				c.InsertAt(i, k, v)
				t.count.Inc()
				t.commit()
				return nil
			}
		}
	}
	return hashtab.ErrTableFull
}

// Lookup probes every cell on both paths.
func (t *Table) Lookup(k layout.Key) (uint64, bool) {
	p1 := t.h1.Index(k.Lo, k.Hi)
	p2 := t.h2.Index(k.Lo, k.Hi)
	for d := 0; d < len(t.levels); d++ {
		for _, p := range [2]uint64{p1, p2} {
			c, i := t.pathCell(p, d)
			if c.Matches(i, k) {
				return c.Value(i), true
			}
		}
	}
	return 0, false
}

// Update overwrites the value of an existing key in place.
func (t *Table) Update(k layout.Key, v uint64) bool {
	p1 := t.h1.Index(k.Lo, k.Hi)
	p2 := t.h2.Index(k.Lo, k.Hi)
	for d := 0; d < len(t.levels); d++ {
		for _, p := range [2]uint64{p1, p2} {
			c, i := t.pathCell(p, d)
			if c.Matches(i, k) {
				addr := t.l.ValOff(c.Addr(i))
				t.mem.AtomicWrite8(addr, v)
				t.mem.Persist(addr, layout.WordSize)
				return true
			}
		}
	}
	return false
}

// Delete removes k from whichever path cell holds it.
func (t *Table) Delete(k layout.Key) bool {
	p1 := t.h1.Index(k.Lo, k.Hi)
	p2 := t.h2.Index(k.Lo, k.Hi)
	for d := 0; d < len(t.levels); d++ {
		for _, p := range [2]uint64{p1, p2} {
			c, i := t.pathCell(p, d)
			if c.Matches(i, k) {
				t.logCell(c, i)
				c.DeleteAt(i)
				t.count.Dec()
				t.commit()
				return true
			}
		}
	}
	return false
}

// Recover rolls back any in-flight logged operation, scrubs payloads
// behind zero bitmaps on every level, and recounts.
func (t *Table) Recover() (hashtab.RecoveryReport, error) {
	var rep hashtab.RecoveryReport
	if t.log != nil {
		rep.UndoneOps = t.log.Recover()
	}
	n := uint64(0)
	for d := range t.levels {
		c := &t.levels[d]
		for i := uint64(0); i < c.N; i++ {
			rep.CellsScanned++
			if c.Occupied(i) {
				n++
				continue
			}
			if !c.PayloadZero(i) {
				c.ClearPayload(i)
				rep.CellsCleared++
			}
		}
	}
	rep.CountCorrected = t.count.Get() != n
	t.count.Set(n)
	return rep, nil
}

// CheckConsistency audits the structural invariants without repairing:
// the persistent count matches the occupied cells, empty cells hide no
// payload, every stored key is valid, and every occupied cell at level
// d lies on one of its key's two root paths (position p>>d — an item
// anywhere else would be invisible to Lookup).
func (t *Table) CheckConsistency() []string {
	var bad []string
	n := uint64(0)
	for d := range t.levels {
		c := &t.levels[d]
		for i := uint64(0); i < c.N; i++ {
			if !c.Occupied(i) {
				if !c.PayloadZero(i) {
					bad = append(bad, "empty cell has a non-zero payload")
				}
				continue
			}
			n++
			k := c.Key(i)
			if !t.l.ValidKey(k) {
				bad = append(bad, "occupied cell holds an invalid key")
				continue
			}
			p1 := t.h1.Index(k.Lo, k.Hi) >> uint(d)
			p2 := t.h2.Index(k.Lo, k.Hi) >> uint(d)
			if p1 != i && p2 != i {
				bad = append(bad, "cell holds a key whose root paths do not pass through it")
			}
		}
	}
	if t.count.Get() != n {
		bad = append(bad, "persistent count does not match occupied cells")
	}
	return bad
}
