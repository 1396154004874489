// Package core implements group hashing, the write-efficient and
// consistent hashing scheme of the paper (§3).
//
// Layout (Figure 3): storage cells are split into two equally sized
// levels. Level-1 cells are addressable by the hash function; level-2
// cells are non-addressable collision-resolution cells. Both levels are
// divided into groups of group_size contiguous cells, and level-1 group
// g shares level-2 group g: an item whose level-1 cell is occupied goes
// to the first empty cell of the matching level-2 group. Because a
// group is contiguous, collision probing walks sequential cachelines —
// the group-sharing cache-efficiency argument of §3.2.
//
// Consistency (§3.3): every cell carries a bitmap bit inside an 8-byte
// meta word. Inserts persist the payload first, then atomically set the
// meta word; deletes atomically clear the meta word first, then scrub
// the payload. A crash at any point leaves the table recoverable by the
// Algorithm-4 scan implemented in Recover; no logging or copy-on-write
// is ever needed.
//
// Beyond the paper, the package provides persistent-handle reopening
// (Open), online expansion with an atomic root switch (Expand, and its
// stop-less concurrent form in Concurrent), a concurrency wrapper with
// per-group striped locking (Concurrent), and a DRAM fingerprint
// sidecar that screens group probes with word-wide tag compares before
// any persistent cell is touched (fingerprint.go).
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
	"grouphash/internal/xhash"
)

// Magic identifies a group-hash table header in a persistent region.
const Magic = 0x47524f5550480001 // "GROUPH" + format version 1

// DefaultGroupSize is the paper's default (§4.1): 256 cells per group,
// chosen in §4.5 as the knee where space utilisation exceeds 80% while
// request latency stays low.
const DefaultGroupSize = 256

// Options configures a new table.
type Options struct {
	// Cells is the number of level-1 (hash-addressable) cells; the
	// table's total capacity is twice this (level 2 is the same size).
	// Must be a power of two.
	Cells uint64
	// GroupSize is the number of cells per group (power of two,
	// ≤ Cells). 0 means DefaultGroupSize.
	GroupSize uint64
	// KeyBytes is 8 or 16 (the paper's trace item formats).
	KeyBytes int
	// Seed selects the hash function.
	Seed uint64
	// TwoChoice enables the second hash function the paper weighs in
	// §4.4: each key gets two candidate level-1 cells (and both
	// matched level-2 groups), raising space utilisation at the cost
	// of probing two non-contiguous regions — "the continuity of the
	// collision resolution cells is damaged". Off by default, as in
	// the paper.
	TwoChoice bool
}

func (o *Options) normalize() error {
	if o.GroupSize == 0 {
		o.GroupSize = DefaultGroupSize
	}
	if o.KeyBytes == 0 {
		o.KeyBytes = 8
	}
	if o.Cells == 0 || o.Cells&(o.Cells-1) != 0 {
		return fmt.Errorf("core: Cells (%d) must be a nonzero power of two", o.Cells)
	}
	if o.GroupSize&(o.GroupSize-1) != 0 {
		return fmt.Errorf("core: GroupSize (%d) must be a power of two", o.GroupSize)
	}
	if o.GroupSize > o.Cells {
		return fmt.Errorf("core: GroupSize (%d) exceeds Cells (%d)", o.GroupSize, o.Cells)
	}
	if o.KeyBytes != 8 && o.KeyBytes != 16 {
		return fmt.Errorf("core: KeyBytes must be 8 or 16, got %d", o.KeyBytes)
	}
	return nil
}

// Persistent header words, relative to the header base. The header is
// the paper's "Global info." block (Figure 4) extended with the
// two-slot root record that makes expansion failure-atomic.
const (
	hdrMagic     = 0  // Magic
	hdrKeyBytes  = 1  // 8 or 16
	hdrGroupSize = 2  // cells per group
	hdrSeed      = 3  // hash seed
	hdrCount     = 4  // number of occupied cells (the paper's count)
	hdrSlot      = 5  // which root slot is current: 0 or 1
	hdrSlot0     = 6  // slot 0: tab1 base, tab2 base, level-1 cell count
	hdrSlot1     = 9  // slot 1: same three words
	hdrFlags     = 12 // bit 0: two-choice hashing
	hdrWords     = 13 // header size in words
)

// header flag bits.
const flagTwoChoice = 1

// HeaderBytes is the persistent footprint of the table header.
const HeaderBytes = hdrWords * layout.WordSize

// view bundles one generation of the table's roots: the cell arrays
// and the hash functions addressing them, plus the volatile per-view
// derived state — the 1-byte-per-cell fingerprint sidecar (fp,
// nil = off; see fingerprint.go). Expansion builds a complete new view
// and publishes it with a single atomic pointer swap (mirroring the
// persistent header-slot flip), so readers always see a matched
// (hash, arrays, sidecar) tuple — never a new hash over old arrays or
// vice versa.
type view struct {
	h, h2      xhash.Func
	tab1, tab2 hashtab.Cells
	fp         []uint64
}

// Table is a group-hash table over persistent memory. Not safe for
// concurrent use; see Concurrent.
type Table struct {
	mem hashtab.Mem
	l   layout.Layout
	hdr uint64 // header base address
	two bool
	gsz uint64
	// vp is the current view. Sequential callers could use a plain
	// field, but the concurrent wrapper's optimistic readers load the
	// view with no lock held while an online expansion commits a new
	// one, so the publication itself must be atomic.
	vp atomic.Pointer[view]
	// fpOn makes newly built views carry the fingerprint sidecar
	// (fingerprint.go). Set by default on ConcurrentReader backends at
	// Create/Open, toggled by Enable/DisableFingerprints.
	fpOn bool
	// rehashWorkers overrides the worker count of rehashInto's parallel
	// migration: 0 = auto (GOMAXPROCS on eligible backends), 1 = force
	// sequential, n > 1 = force an n-worker pool. See SetRehashWorkers.
	rehashWorkers int
	// expandFailures forces the next n attempts of rebuild — Expand's
	// and the online fallback's — to fail (test hook for the
	// tripling-retry/reclaim path).
	expandFailures int

	// The counters below are the only fields the table writes while it
	// serves ops; every op reads the fields above. The pads keep the
	// counters on a cache line of their own, so a writer publishing a
	// tally does not evict the line every other core's next op reads
	// (TestTableCountersOwnCacheLine).
	_ [64]byte
	// fpHits / fpSkips count cells dereferenced on a tag match and
	// cells screened out by the filter, across all filtered group
	// scans. Probes add to a caller-owned fpTally; publishTally moves it
	// here. Exposed via FingerprintStats for the stats registry.
	fpHits, fpSkips atomic.Uint64
	// countPersists counts setCount calls — persist barriers on the
	// count word, the hottest word in the table. ApplyBatch amortises
	// these (one per stripe-run instead of one per mutation); the
	// counter makes the amortisation measurable, since the native
	// backend's Persist is a hardware no-op the bench could not observe.
	countPersists atomic.Uint64
	_             [64]byte
}

// cur returns the current view. Callers load it once per operation so
// every probe of that operation sees one coherent generation.
func (t *Table) cur() *view { return t.vp.Load() }

// secondSeed derives the second hash function's seed from the first.
func secondSeed(seed uint64) uint64 { return seed ^ 0x6a09e667f3bcc909 }

// newView allocates fresh cell arrays for the given level-1 cell count
// and builds the matching hash functions. The cells start empty, so a
// fingerprint sidecar (when armed) starts all-zero and is maintained
// incrementally by whatever populates the view.
func (t *Table) newView(cells uint64, seed uint64) *view {
	vw := &view{
		h:    xhash.NewFunc(seed, cells, t.l.KeyWords() == 2),
		h2:   xhash.NewFunc(secondSeed(seed), cells, t.l.KeyWords() == 2),
		tab1: hashtab.NewCells(t.mem, t.l, cells),
		tab2: hashtab.NewCells(t.mem, t.l, cells),
	}
	if t.fpOn {
		vw.fp = newFp(cells)
	}
	return vw
}

// defaultFpOn reports whether a fresh table on mem should arm the
// fingerprint sidecar: on for concurrent-read-safe (production)
// backends, off for the simulated machine so the paper experiments
// keep measuring the paper's exact probe sequence (the sidecar, being
// DRAM-resident, would short-circuit the charged cell reads the
// figures count). EnableFingerprints overrides either way.
func defaultFpOn(mem hashtab.Mem, gsz uint64) bool {
	_, ok := mem.(hashtab.ConcurrentReader)
	return ok && fpEligible(gsz)
}

// Create allocates and initialises a new table in mem and returns its
// handle. The header address (Header) is the table's persistent root:
// keep it (e.g. at a well-known offset) to Open the table after a
// restart.
func Create(mem hashtab.Mem, opts Options) (*Table, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	l := layout.ForKeySize(opts.KeyBytes)
	hdr := mem.Alloc(HeaderBytes, 64)
	t := &Table{
		mem: mem, l: l, hdr: hdr,
		two: opts.TwoChoice,
		gsz: opts.GroupSize,
	}
	t.fpOn = defaultFpOn(mem, t.gsz)
	vw := t.newView(opts.Cells, opts.Seed)
	t.vp.Store(vw)

	w := func(i int, v uint64) { mem.Write8(hdr+uint64(i)*layout.WordSize, v) }
	w(hdrKeyBytes, uint64(opts.KeyBytes))
	w(hdrGroupSize, opts.GroupSize)
	w(hdrSeed, opts.Seed)
	w(hdrCount, 0)
	w(hdrSlot, 0)
	w(hdrSlot0+0, vw.tab1.Base)
	w(hdrSlot0+1, vw.tab2.Base)
	w(hdrSlot0+2, opts.Cells)
	var flags uint64
	if opts.TwoChoice {
		flags |= flagTwoChoice
	}
	w(hdrFlags, flags)
	mem.Persist(hdr, HeaderBytes)
	// Magic last: a crash before this point leaves no valid table.
	mem.AtomicWrite8(hdr+hdrMagic*layout.WordSize, Magic)
	mem.Persist(hdr+hdrMagic*layout.WordSize, layout.WordSize)

	return t, nil
}

// ErrNoTable is returned by Open when the header does not carry a valid
// table magic.
var ErrNoTable = errors.New("core: no group-hash table at this address")

// Open reconstructs a handle from the persistent header at hdr, e.g.
// after a restart. It does not run recovery; call Recover next if the
// shutdown was not clean.
func Open(mem hashtab.Mem, hdr uint64) (*Table, error) {
	rd := func(i int) uint64 { return mem.Read8(hdr + uint64(i)*layout.WordSize) }
	if rd(hdrMagic) != Magic {
		return nil, ErrNoTable
	}
	keyBytes := int(rd(hdrKeyBytes))
	if keyBytes != 8 && keyBytes != 16 {
		return nil, fmt.Errorf("core: corrupt header: key size %d", keyBytes)
	}
	l := layout.ForKeySize(keyBytes)
	slot := rd(hdrSlot)
	if slot > 1 {
		return nil, fmt.Errorf("core: corrupt header: slot %d", slot)
	}
	base := hdrSlot0
	if slot == 1 {
		base = hdrSlot1
	}
	cells := rd(base + 2)
	if cells == 0 || cells&(cells-1) != 0 {
		return nil, fmt.Errorf("core: corrupt header: cell count %d", cells)
	}
	t := &Table{
		mem: mem, l: l, hdr: hdr,
		two: rd(hdrFlags)&flagTwoChoice != 0,
		gsz: rd(hdrGroupSize),
	}
	vw := &view{
		h:    xhash.NewFunc(rd(hdrSeed), cells, l.KeyWords() == 2),
		h2:   xhash.NewFunc(secondSeed(rd(hdrSeed)), cells, l.KeyWords() == 2),
		tab1: hashtab.Cells{Mem: mem, L: l, Base: rd(base + 0), N: cells},
		tab2: hashtab.Cells{Mem: mem, L: l, Base: rd(base + 1), N: cells},
	}
	if t.gsz == 0 || t.gsz&(t.gsz-1) != 0 || t.gsz > cells {
		return nil, fmt.Errorf("core: corrupt header: group size %d", t.gsz)
	}
	if t.fpOn = defaultFpOn(mem, t.gsz); t.fpOn {
		// The sidecar is derived state: rebuild it from the persistent
		// cells.
		vw.buildFp(l)
	}
	t.vp.Store(vw)
	return t, nil
}

// Header returns the table's persistent root address.
func (t *Table) Header() uint64 { return t.hdr }

// Name implements hashtab.Table.
func (t *Table) Name() string {
	if t.two {
		return "group-2c"
	}
	return "group"
}

// TwoChoice reports whether the second hash function is active.
func (t *Table) TwoChoice() bool { return t.two }

// ValidKey reports whether the table's cell layout can store k.
func (t *Table) ValidKey(k layout.Key) bool { return t.l.ValidKey(k) }

// homesIn returns the candidate level-1 cells of k under vw: one under
// the paper's default, two in two-choice mode (§4.4).
func (t *Table) homesIn(vw *view, k layout.Key) (i1, i2 uint64, n int) {
	i1 = vw.h.Index(k.Lo, k.Hi)
	if !t.two {
		return i1, 0, 1
	}
	i2 = vw.h2.Index(k.Lo, k.Hi)
	if i2 == i1 {
		return i1, 0, 1
	}
	return i1, i2, 2
}

// GroupSize returns the cells-per-group parameter.
func (t *Table) GroupSize() uint64 { return t.gsz }

// Cells returns the number of level-1 cells (half the capacity).
func (t *Table) Cells() uint64 { return t.cur().tab1.N }

// Capacity returns the total number of cells across both levels.
func (t *Table) Capacity() uint64 {
	vw := t.cur()
	return vw.tab1.N + vw.tab2.N
}

// Len returns the persistent count of occupied cells.
func (t *Table) Len() uint64 { return t.mem.Read8(t.countAddr()) }

// LoadFactor returns Len / Capacity.
func (t *Table) LoadFactor() float64 { return float64(t.Len()) / float64(t.Capacity()) }

func (t *Table) countAddr() uint64 { return t.hdr + hdrCount*layout.WordSize }

// setCount atomically updates and persists the occupied-cell count —
// the "AtomicInc(group->count); Persist(group->count)" steps of
// Algorithms 1 and 3.
func (t *Table) setCount(n uint64) {
	t.mem.AtomicWrite8(t.countAddr(), n)
	t.mem.Persist(t.countAddr(), layout.WordSize)
	t.countPersists.Add(1)
}

// CountPersists returns the number of count-word persist barriers
// issued so far (setCount calls). Mutations÷CountPersists is the
// amortisation ApplyBatch achieves.
func (t *Table) CountPersists() uint64 { return t.countPersists.Load() }

// groupStart returns the first cell index of the group containing
// level-1 index k (the "j = k - k % group_size" of the algorithms).
func (t *Table) groupStart(k uint64) uint64 { return k &^ (t.gsz - 1) }
