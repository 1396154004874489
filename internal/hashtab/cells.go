package hashtab

import (
	"grouphash/internal/layout"
)

// Cells is a fixed array of persistent hash cells, the building block of
// every scheme here. It factors out the cell-level persistence protocol
// so all tables commit updates identically:
//
//	insert:  write payload → persist payload → atomic commit-word store →
//	         persist commit word                          (§3.4, Alg. 1)
//	delete:  atomic commit-word clear → persist → clear payload →
//	         persist payload                              (§3.4, Alg. 3)
//
// The commit word is the cell's bitmap in the paper's sense: the key
// word itself under the compact layout, a meta word with an occupancy
// bit and key tag under the 16-byte-key layout (see package layout).
//
// Pass a Cells by pointer. A by-value copy of its six-word struct is
// spilled and reloaded in a way that stalls each access until the
// previous one's cache miss completes (TestCellsPassedByPointer).
type Cells struct {
	Mem  Mem
	L    layout.Layout
	Base uint64 // address of cell 0
	N    uint64 // number of cells
}

// NewCells allocates an array of n cells from mem. Cells start zeroed
// (empty) because regions are zero-initialised.
func NewCells(mem Mem, l layout.Layout, n uint64) Cells {
	base := mem.Alloc(n*l.CellSize(), layout.WordSize)
	return Cells{Mem: mem, L: l, Base: base, N: n}
}

// Addr returns the base address of cell i.
func (c *Cells) Addr(i uint64) uint64 { return c.Base + i*c.L.CellSize() }

// Commit reads the commit word of cell i.
func (c *Cells) Commit(i uint64) uint64 { return c.Mem.Read8(c.L.CommitOff(c.Addr(i))) }

// Occupied reports whether cell i holds a live item.
func (c *Cells) Occupied(i uint64) bool { return c.L.Occupied(c.Commit(i)) }

// Key reads the key stored in cell i.
func (c *Cells) Key(i uint64) layout.Key {
	base := c.Addr(i)
	k := layout.Key{Lo: c.Mem.Read8(c.L.KeyOff(base, 0))}
	if c.L.KeyWords() == 2 {
		k.Hi = c.Mem.Read8(c.L.KeyOff(base, 1))
	}
	return k
}

// Value reads the value stored in cell i.
func (c *Cells) Value(i uint64) uint64 { return c.Mem.Read8(c.L.ValOff(c.Addr(i))) }

// Matches reports whether cell i is occupied and holds key k. Under the
// compact layout the commit word IS the key, so this is a single read;
// under the meta layout the tag filters most mismatches before the key
// words are touched.
func (c *Cells) Matches(i uint64, k layout.Key) bool {
	commit := c.Commit(i)
	if !c.L.CommitMatches(commit, k) {
		return false
	}
	if c.L.Compact() {
		return true // commit word equality was a full key compare
	}
	return c.Key(i) == c.L.Canon(k)
}

// WritePayload stores the non-commit words of cell i: the value (and,
// under the meta layout, the key words). Nothing is published yet.
func (c *Cells) WritePayload(i uint64, k layout.Key, v uint64) {
	base := c.Addr(i)
	if !c.L.Compact() {
		c.Mem.Write8(c.L.KeyOff(base, 0), k.Lo)
		c.Mem.Write8(c.L.KeyOff(base, 1), k.Hi)
	}
	c.Mem.Write8(c.L.ValOff(base), v)
}

// PersistPayload makes the non-commit words of cell i durable.
func (c *Cells) PersistPayload(i uint64) {
	base := c.Addr(i)
	c.Mem.Persist(c.L.PayloadOff(base), c.L.PayloadLen())
}

// CommitOccupied atomically publishes cell i as occupied by k and
// persists the commit word — the 8-byte failure-atomic commit of an
// insert.
func (c *Cells) CommitOccupied(i uint64, k layout.Key) {
	addr := c.L.CommitOff(c.Addr(i))
	c.Mem.AtomicWrite8(addr, c.L.CommitWord(k))
	c.Mem.Persist(addr, layout.WordSize)
}

// CommitEmpty atomically retires cell i and persists the commit word —
// the 8-byte failure-atomic commit of a delete. Per §3.4 this happens
// BEFORE the payload is cleared.
func (c *Cells) CommitEmpty(i uint64) {
	addr := c.L.CommitOff(c.Addr(i))
	c.Mem.AtomicWrite8(addr, 0)
	c.Mem.Persist(addr, layout.WordSize)
}

// ClearPayload zeroes and persists the non-commit words of cell i (the
// post-commit half of a delete, and the recovery scrub of Algorithm 4).
func (c *Cells) ClearPayload(i uint64) {
	base := c.Addr(i)
	if !c.L.Compact() {
		c.Mem.Write8(c.L.KeyOff(base, 0), 0)
		c.Mem.Write8(c.L.KeyOff(base, 1), 0)
	}
	c.Mem.Write8(c.L.ValOff(base), 0)
	c.PersistPayload(i)
}

// PayloadZero reports whether the non-commit words of cell i are all
// zero (used by recovery and its verification).
func (c *Cells) PayloadZero(i uint64) bool {
	base := c.Addr(i)
	if !c.L.Compact() {
		if c.Mem.Read8(c.L.KeyOff(base, 0)) != 0 || c.Mem.Read8(c.L.KeyOff(base, 1)) != 0 {
			return false
		}
	}
	return c.Mem.Read8(c.L.ValOff(base)) == 0
}

// InsertAt runs the full insert commit protocol on cell i.
func (c *Cells) InsertAt(i uint64, k layout.Key, v uint64) {
	c.WritePayload(i, k, v)
	c.PersistPayload(i)
	c.CommitOccupied(i, k)
}

// DeleteAt runs the full delete commit protocol on cell i.
func (c *Cells) DeleteAt(i uint64) {
	c.CommitEmpty(i)
	c.ClearPayload(i)
}

// Snapshot reads cell i as one record (verification, logging and
// expansion): its commit word, key and value.
func (c *Cells) Snapshot(i uint64) (commit uint64, k layout.Key, v uint64) {
	return c.Commit(i), c.Key(i), c.Value(i)
}
