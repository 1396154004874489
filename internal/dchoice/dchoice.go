// Package dchoice implements plain 2-choice hashing (Azar et al.'s
// two-choice paradigm with single-slot buckets): each key may sit in
// one of two hashed cells, nothing else. The paper excludes it from the
// evaluation because "2-choice hashing has too low space utilization
// ratio" (§4.1); the exclusion experiment (ghbench -exp excluded)
// measures that ratio so the claim is reproduced rather than assumed.
//
// Cells use the shared commit protocol, so the scheme is as crash
// consistent as group hashing — it just wastes space.
package dchoice

import (
	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
	"grouphash/internal/xhash"
)

// Options configures a table.
type Options struct {
	// Cells is the table size (power of two).
	Cells uint64
	// KeyBytes is 8 or 16.
	KeyBytes int
	// Seed selects the hash-function pair.
	Seed uint64
}

// Table is a 2-choice hash table over persistent memory.
type Table struct {
	mem    hashtab.Mem
	l      layout.Layout
	h1, h2 xhash.Func
	cells  hashtab.Cells
	count  hashtab.Count
}

// New allocates a table in mem.
func New(mem hashtab.Mem, opts Options) *Table {
	if opts.Cells == 0 || opts.Cells&(opts.Cells-1) != 0 {
		panic("dchoice: Cells must be a nonzero power of two")
	}
	if opts.KeyBytes == 0 {
		opts.KeyBytes = 8
	}
	l := layout.ForKeySize(opts.KeyBytes)
	return &Table{
		mem:   mem,
		l:     l,
		h1:    xhash.NewFunc(opts.Seed*2+21, opts.Cells, l.KeyWords() == 2),
		h2:    xhash.NewFunc(opts.Seed*2+22, opts.Cells, l.KeyWords() == 2),
		cells: hashtab.NewCells(mem, l, opts.Cells),
		count: hashtab.NewCount(mem),
	}
}

// Name implements hashtab.Table.
func (t *Table) Name() string { return "2choice" }

// Len returns the number of stored items.
func (t *Table) Len() uint64 { return t.count.Get() }

// Capacity returns the cell count.
func (t *Table) Capacity() uint64 { return t.cells.N }

// LoadFactor returns Len/Capacity.
func (t *Table) LoadFactor() float64 { return float64(t.Len()) / float64(t.Capacity()) }

func (t *Table) candidates(k layout.Key) (uint64, uint64) {
	return t.h1.Index(k.Lo, k.Hi), t.h2.Index(k.Lo, k.Hi)
}

// Insert places the item in whichever candidate cell is free.
func (t *Table) Insert(k layout.Key, v uint64) error {
	if !t.l.ValidKey(k) {
		return hashtab.ErrInvalidKey
	}
	i1, i2 := t.candidates(k)
	for _, i := range [2]uint64{i1, i2} {
		if !t.cells.Occupied(i) {
			t.cells.InsertAt(i, k, v)
			t.count.Inc()
			return nil
		}
	}
	return hashtab.ErrTableFull
}

// Lookup checks both candidate cells.
func (t *Table) Lookup(k layout.Key) (uint64, bool) {
	i1, i2 := t.candidates(k)
	for _, i := range [2]uint64{i1, i2} {
		if t.cells.Matches(i, k) {
			return t.cells.Value(i), true
		}
	}
	return 0, false
}

// Update overwrites an existing key's value in place.
func (t *Table) Update(k layout.Key, v uint64) bool {
	i1, i2 := t.candidates(k)
	for _, i := range [2]uint64{i1, i2} {
		if t.cells.Matches(i, k) {
			addr := t.l.ValOff(t.cells.Addr(i))
			t.mem.AtomicWrite8(addr, v)
			t.mem.Persist(addr, layout.WordSize)
			return true
		}
	}
	return false
}

// Delete removes k from whichever candidate cell holds it.
func (t *Table) Delete(k layout.Key) bool {
	i1, i2 := t.candidates(k)
	for _, i := range [2]uint64{i1, i2} {
		if t.cells.Matches(i, k) {
			t.cells.DeleteAt(i)
			t.count.Dec()
			return true
		}
	}
	return false
}
