// Package pfht implements PFHT (Debnath et al., "Revisiting hash table
// design for phase change memory", OSR 2016), the NVM-friendly cuckoo
// baseline of the paper's evaluation: two hash functions over buckets
// of four contiguous cells, at most ONE displacement per insert (to
// bound cascading NVM writes), and an extra stash sized at 3% of the
// table that overflow items fall into and that lookups search linearly.
//
// Bucket cells are contiguous, so intra-bucket probing is cacheline
// friendly; the stash's linear search is what degrades PFHT at load
// factor 0.75 in Figures 5 and 6 ("more items are stored in the extra
// stash ... PFHT needs to spend more time to linearly search").
//
// Like the other baselines, the table optionally carries an undo WAL
// (the paper's PFHT-L); without it, interrupted inserts/displacements
// can leave torn or duplicated items.
package pfht

import (
	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
	"grouphash/internal/wal"
	"grouphash/internal/xhash"
)

// BucketSize is the number of cells per bucket (the paper: "each bucket
// contains 4 hash cells").
const BucketSize = 4

// StashFraction is the stash size relative to the table ("an extra
// stash with 3% size of the hash table").
const StashFraction = 0.03

// Options configures a table.
type Options struct {
	// Cells is the main-table size in cells (power of two, multiple of
	// BucketSize).
	Cells uint64
	// KeyBytes is 8 or 16.
	KeyBytes int
	// Seed selects the hash-function pair.
	Seed uint64
	// Logged attaches an undo WAL (the paper's PFHT-L variant).
	Logged bool
}

// Table is a PFHT hash table over persistent memory.
type Table struct {
	mem     hashtab.Mem
	l       layout.Layout
	h1, h2  xhash.Func
	cells   hashtab.Cells // main table: nbuckets * BucketSize cells
	stash   hashtab.Cells
	count   hashtab.Count // items in the main table + stash
	stashed hashtab.Count // items currently in the stash
	log     *wal.Log
}

// New allocates a table in mem.
func New(mem hashtab.Mem, opts Options) *Table {
	if opts.Cells == 0 || opts.Cells&(opts.Cells-1) != 0 {
		panic("pfht: Cells must be a nonzero power of two")
	}
	if opts.Cells%BucketSize != 0 {
		panic("pfht: Cells must be a multiple of the bucket size")
	}
	if opts.KeyBytes == 0 {
		opts.KeyBytes = 8
	}
	l := layout.ForKeySize(opts.KeyBytes)
	nbuckets := opts.Cells / BucketSize
	stashCells := uint64(float64(opts.Cells) * StashFraction)
	if stashCells == 0 {
		stashCells = 1
	}
	t := &Table{
		mem:     mem,
		l:       l,
		h1:      xhash.NewFunc(opts.Seed*2+1, nbuckets, l.KeyWords() == 2),
		h2:      xhash.NewFunc(opts.Seed*2+2, nbuckets, l.KeyWords() == 2),
		cells:   hashtab.NewCells(mem, l, opts.Cells),
		stash:   hashtab.NewCells(mem, l, stashCells),
		count:   hashtab.NewCount(mem),
		stashed: hashtab.NewCount(mem),
	}
	if opts.Logged {
		t.log = wal.New(mem, l)
	}
	return t
}

// Name implements hashtab.Table.
func (t *Table) Name() string {
	if t.log != nil {
		return "pfht-L"
	}
	return "pfht"
}

// Len returns the number of stored items.
func (t *Table) Len() uint64 { return t.count.Get() }

// Capacity returns main-table plus stash cells.
func (t *Table) Capacity() uint64 { return t.cells.N + t.stash.N }

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

// bucketCell returns the cell index of slot s of bucket b.
func bucketCell(b uint64, s int) uint64 { return b*BucketSize + uint64(s) }

// emptySlot returns the first empty slot in bucket b, or -1.
func (t *Table) emptySlot(b uint64) int {
	for s := 0; s < BucketSize; s++ {
		if !t.cells.Occupied(bucketCell(b, s)) {
			return s
		}
	}
	return -1
}

// insertIntoBucket runs the commit protocol for slot s of bucket b.
func (t *Table) insertIntoBucket(b uint64, s int, k layout.Key, v uint64) {
	i := bucketCell(b, s)
	t.logCell(&t.cells, i)
	t.cells.InsertAt(i, k, v)
	t.count.Inc()
	t.commit()
}

// Insert places (k, v) in one of its two buckets; if both are full, it
// attempts at most one displacement (moving an existing item of either
// bucket to that item's alternate bucket); failing that the item goes
// to the stash. ErrTableFull means both buckets, every displacement
// candidate's alternate, and the stash are full.
func (t *Table) Insert(k layout.Key, v uint64) error {
	if !t.l.ValidKey(k) {
		return hashtab.ErrInvalidKey
	}
	b1 := t.h1.Index(k.Lo, k.Hi)
	b2 := t.h2.Index(k.Lo, k.Hi)
	if s := t.emptySlot(b1); s >= 0 {
		t.insertIntoBucket(b1, s, k, v)
		return nil
	}
	if s := t.emptySlot(b2); s >= 0 {
		t.insertIntoBucket(b2, s, k, v)
		return nil
	}
	// One displacement: find an item in either bucket whose alternate
	// bucket has room, move it, and take its slot.
	for _, b := range [2]uint64{b1, b2} {
		for s := 0; s < BucketSize; s++ {
			i := bucketCell(b, s)
			ki := t.cells.Key(i)
			alt := t.altBucket(ki, b)
			if alt == b {
				continue // both hashes agree: nowhere to go
			}
			as := t.emptySlot(alt)
			if as < 0 {
				continue
			}
			vi := t.cells.Value(i)
			ai := bucketCell(alt, as)
			// Move i -> ai, then overwrite i with the new item.
			t.logCell(&t.cells, ai)
			t.cells.InsertAt(ai, ki, vi)
			t.logCell(&t.cells, i)
			t.cells.WritePayload(i, k, v)
			t.cells.PersistPayload(i)
			t.cells.CommitOccupied(i, k)
			t.count.Inc()
			t.commit()
			return nil
		}
	}
	// Stash.
	for i := uint64(0); i < t.stash.N; i++ {
		if !t.stash.Occupied(i) {
			t.logCell(&t.stash, i)
			t.stash.InsertAt(i, k, v)
			t.count.Inc()
			t.stashed.Inc()
			t.commit()
			return nil
		}
	}
	return hashtab.ErrTableFull
}

// altBucket returns the other bucket of key k given one of its buckets.
func (t *Table) altBucket(k layout.Key, b uint64) uint64 {
	b1 := t.h1.Index(k.Lo, k.Hi)
	if b1 != b {
		return b1
	}
	return t.h2.Index(k.Lo, k.Hi)
}

// Lookup checks both buckets, then linearly searches the stash until it
// has seen as many occupied stash cells as the stash holds.
func (t *Table) Lookup(k layout.Key) (uint64, bool) {
	b1 := t.h1.Index(k.Lo, k.Hi)
	for s := 0; s < BucketSize; s++ {
		if t.cells.Matches(bucketCell(b1, s), k) {
			return t.cells.Value(bucketCell(b1, s)), true
		}
	}
	b2 := t.h2.Index(k.Lo, k.Hi)
	for s := 0; s < BucketSize; s++ {
		if t.cells.Matches(bucketCell(b2, s), k) {
			return t.cells.Value(bucketCell(b2, s)), true
		}
	}
	remaining := t.stashed.Get()
	for i := uint64(0); i < t.stash.N && remaining > 0; i++ {
		if !t.stash.Occupied(i) {
			continue
		}
		if t.stash.Matches(i, k) {
			return t.stash.Value(i), true
		}
		remaining--
	}
	return 0, false
}

// Update overwrites the value of an existing key in place.
func (t *Table) Update(k layout.Key, v uint64) bool {
	set := func(c *hashtab.Cells, i uint64) bool {
		addr := t.l.ValOff(c.Addr(i))
		t.mem.AtomicWrite8(addr, v)
		t.mem.Persist(addr, layout.WordSize)
		return true
	}
	for _, b := range [2]uint64{t.h1.Index(k.Lo, k.Hi), t.h2.Index(k.Lo, k.Hi)} {
		for s := 0; s < BucketSize; s++ {
			if i := bucketCell(b, s); t.cells.Matches(i, k) {
				return set(&t.cells, i)
			}
		}
	}
	remaining := t.stashed.Get()
	for i := uint64(0); i < t.stash.N && remaining > 0; i++ {
		if !t.stash.Occupied(i) {
			continue
		}
		if t.stash.Matches(i, k) {
			return set(&t.stash, i)
		}
		remaining--
	}
	return false
}

// Delete removes k from a bucket or the stash.
func (t *Table) Delete(k layout.Key) bool {
	for _, b := range [2]uint64{t.h1.Index(k.Lo, k.Hi), t.h2.Index(k.Lo, k.Hi)} {
		for s := 0; s < BucketSize; s++ {
			i := bucketCell(b, s)
			if t.cells.Matches(i, k) {
				t.logCell(&t.cells, i)
				t.cells.DeleteAt(i)
				t.count.Dec()
				t.commit()
				return true
			}
		}
	}
	remaining := t.stashed.Get()
	for i := uint64(0); i < t.stash.N && remaining > 0; i++ {
		if !t.stash.Occupied(i) {
			continue
		}
		if t.stash.Matches(i, k) {
			t.logCell(&t.stash, i)
			t.stash.DeleteAt(i)
			t.count.Dec()
			t.stashed.Dec()
			t.commit()
			return true
		}
		remaining--
	}
	return false
}

// Recover rolls back any in-flight logged operation, scrubs payloads
// behind zero bitmaps in table and stash, and recounts both counters.
func (t *Table) Recover() (hashtab.RecoveryReport, error) {
	var rep hashtab.RecoveryReport
	if t.log != nil {
		rep.UndoneOps = t.log.Recover()
	}
	n, ns := uint64(0), uint64(0)
	for i := uint64(0); i < t.cells.N; i++ {
		rep.CellsScanned++
		if t.cells.Occupied(i) {
			n++
			continue
		}
		if !t.cells.PayloadZero(i) {
			t.cells.ClearPayload(i)
			rep.CellsCleared++
		}
	}
	for i := uint64(0); i < t.stash.N; i++ {
		rep.CellsScanned++
		if t.stash.Occupied(i) {
			ns++
			continue
		}
		if !t.stash.PayloadZero(i) {
			t.stash.ClearPayload(i)
			rep.CellsCleared++
		}
	}
	rep.CountCorrected = t.count.Get() != n+ns || t.stashed.Get() != ns
	t.count.Set(n + ns)
	t.stashed.Set(ns)
	return rep, nil
}

// CheckConsistency audits the structural invariants without repairing:
// both persistent counters match the occupied cells, empty cells hide
// no payload, every stored key is valid, and every main-table item sits
// in one of its two buckets (a displaced item that landed elsewhere
// would be invisible to Lookup).
func (t *Table) CheckConsistency() []string {
	var bad []string
	n, ns := uint64(0), uint64(0)
	for i := uint64(0); i < t.cells.N; i++ {
		if !t.cells.Occupied(i) {
			if !t.cells.PayloadZero(i) {
				bad = append(bad, "empty cell has a non-zero payload")
			}
			continue
		}
		n++
		k := t.cells.Key(i)
		if !t.l.ValidKey(k) {
			bad = append(bad, "occupied cell holds an invalid key")
			continue
		}
		b := i / BucketSize
		if t.h1.Index(k.Lo, k.Hi) != b && t.h2.Index(k.Lo, k.Hi) != b {
			bad = append(bad, "cell holds a key that hashes to neither of its buckets")
		}
	}
	for i := uint64(0); i < t.stash.N; i++ {
		if !t.stash.Occupied(i) {
			if !t.stash.PayloadZero(i) {
				bad = append(bad, "empty stash cell has a non-zero payload")
			}
			continue
		}
		ns++
		if !t.l.ValidKey(t.stash.Key(i)) {
			bad = append(bad, "occupied stash cell holds an invalid key")
		}
	}
	if t.count.Get() != n+ns {
		bad = append(bad, "persistent count does not match occupied cells")
	}
	if t.stashed.Get() != ns {
		bad = append(bad, "persistent stash count does not match occupied stash cells")
	}
	return bad
}
