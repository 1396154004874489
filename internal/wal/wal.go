// Package wal implements the undo write-ahead log that the paper adds
// to the baseline hashing schemes (Linear-L, PFHT-L, Path-L) to give
// them the crash consistency group hashing gets for free.
//
// The log records the pre-image of every cell a mutating operation is
// about to touch. Protocol per mutation:
//
//  1. append an entry holding the target cell's old image; persist it;
//  2. atomically raise the entry count (making the entries reachable);
//     persist;
//  3. perform the actual cell mutation (with its own persists);
//  4. atomically reset the entry count to zero (commit); persist.
//
// Steps 1–2 are the paper's "duplicate copy writes": every logged
// mutation costs two extra persist barriers and a cell-image write
// before any real work happens, and one more barrier to commit. That is
// what produces the ~1.95× slowdown and ~2.16× L3-miss inflation of
// Figure 2.
//
// Recovery: a non-zero entry count means a crash interrupted a mutation;
// the recorded pre-images are written back newest-first, restoring the
// table to its state before the interrupted operation, then the count is
// cleared. Because the count is raised only after the entries are
// durable and cleared only after the mutation is durable, recovery never
// sees half-written log entries that matter.
package wal

import (
	"fmt"

	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
)

// MaxEntries is the log capacity in cell pre-images. A single logical
// operation may log several cells (linear probing's shift-delete touches
// a whole cluster), so the capacity is generous; exceeding it panics, as
// it would corrupt recovery.
const MaxEntries = 4096

// Entry words: addr, meta, keyLo, keyHi, value.
const entryWords = 5

// Log is an undo log living in the same persistent region as the table
// it protects.
type Log struct {
	mem  hashtab.Mem
	l    layout.Layout
	base uint64 // header word: active entry count
	ents uint64 // first entry address
}

// Bytes returns the persistent footprint of a log.
func Bytes() uint64 { return (1 + MaxEntries*entryWords) * layout.WordSize }

// New allocates a log from mem for cells of the given layout.
func New(mem hashtab.Mem, l layout.Layout) *Log {
	base := mem.Alloc(Bytes(), 64)
	return &Log{mem: mem, l: l, base: base, ents: base + layout.WordSize}
}

func (g *Log) entryAddr(i uint64) uint64 { return g.ents + i*entryWords*layout.WordSize }

// count reads the active-entry counter.
func (g *Log) count() uint64 { return g.mem.Read8(g.base) }

// LogCell appends the pre-image of the cell at addr (commit word, key,
// value as currently stored) and publishes it. Must be called before
// the cell is modified. addr is the cell base address.
func (g *Log) LogCell(addr, commit uint64, k layout.Key, v uint64) {
	n := g.count()
	if n >= MaxEntries {
		panic(fmt.Sprintf("wal: log overflow (%d entries)", n))
	}
	e := g.entryAddr(n)
	g.mem.Write8(e, addr)
	g.mem.Write8(e+8, commit)
	g.mem.Write8(e+16, k.Lo)
	g.mem.Write8(e+24, k.Hi)
	g.mem.Write8(e+32, v)
	g.mem.Persist(e, entryWords*layout.WordSize)
	g.mem.AtomicWrite8(g.base, n+1)
	g.mem.Persist(g.base, layout.WordSize)
}

// Commit marks the in-flight operation complete, discarding its undo
// entries.
func (g *Log) Commit() {
	g.mem.AtomicWrite8(g.base, 0)
	g.mem.Persist(g.base, layout.WordSize)
}

// Recover rolls back the in-flight operation, if any, restoring the
// logged pre-images newest-first, and returns the number of cells
// restored.
func (g *Log) Recover() uint64 {
	n := g.count()
	if n == 0 {
		return 0
	}
	for i := n; i > 0; i-- {
		e := g.entryAddr(i - 1)
		addr := g.mem.Read8(e)
		commit := g.mem.Read8(e + 8)
		k := layout.Key{Lo: g.mem.Read8(e + 16), Hi: g.mem.Read8(e + 24)}
		v := g.mem.Read8(e + 32)
		// Restore the payload first, then the commit word, so a crash
		// during recovery itself never exposes an occupied cell with a
		// torn payload; recovery is idempotent and re-runs from the log.
		if !g.l.Compact() {
			g.mem.Write8(g.l.KeyOff(addr, 0), k.Lo)
			g.mem.Write8(g.l.KeyOff(addr, 1), k.Hi)
		}
		g.mem.Write8(g.l.ValOff(addr), v)
		g.mem.Persist(g.l.PayloadOff(addr), g.l.PayloadLen())
		g.mem.AtomicWrite8(g.l.CommitOff(addr), commit)
		g.mem.Persist(g.l.CommitOff(addr), layout.WordSize)
	}
	g.Commit()
	return n
}
