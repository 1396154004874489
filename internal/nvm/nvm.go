// Package nvm models a byte-addressable non-volatile memory region with
// the failure semantics assumed by the group-hashing paper (ICPP 2018):
//
//   - The failure-atomicity unit is an aligned 8-byte word. A single
//     aligned 8-byte store is either entirely old or entirely new after a
//     crash; it is never torn. Larger writes tear at word boundaries.
//   - Ordinary stores land in the (volatile) CPU cache and reach the
//     persistence domain at an arbitrary later time: on a crash, each
//     un-persisted dirty word independently may or may not have made it
//     to NVM. This models both write-back caching and the reordering
//     performed by the CPU and memory controller.
//   - A persist barrier (clflush of the covered lines followed by an
//     mfence, driven by the memsim layer) makes a range durable before
//     the program proceeds.
//
// The region keeps the current (volatile) image in a flat byte slice and
// tracks, for every dirty word, the value it last had in the persistence
// domain. The persisted image is therefore implicit: it equals the
// volatile image with the dirty words rolled back. Crash() materialises
// a legal post-failure image by rolling back a pseudo-random subset of
// the dirty words, seeded for reproducibility. Dirty words are tracked
// by the paged two-level bitmap of paged.go, so the tracking itself is
// O(words/64) bitmask work with no per-store allocation.
//
// Addresses are byte offsets from the start of the region. The zero
// offset is valid; the region performs its own bounds checking and
// panics on out-of-range access, mirroring a wild pointer in C.
package nvm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// WordSize is the failure-atomicity unit of the modelled NVM, in bytes.
// The paper (and the persistent-memory literature it cites, e.g. PMFS,
// FAST&FAIR, WORT) assumes aligned 8-byte stores are failure atomic.
const WordSize = 8

// Stats aggregates write-traffic counters for a region. All counters are
// cumulative since the region was created.
type Stats struct {
	// Stores is the number of 8-byte stores issued to the region,
	// including atomic stores (every store is one word, so the bytes
	// stored are 8 × Stores).
	Stores uint64
	// WordsDirtied counts transitions of a clean word to dirty. A word
	// overwritten repeatedly between persists is counted once; this is
	// the number of words that must eventually be written to the NVM
	// media and is the paper's notion of "NVM writes".
	WordsDirtied uint64
	// WordsPersisted counts dirty words made durable by an explicit
	// persist (flush) as opposed to a cache eviction.
	WordsPersisted uint64
	// WordsEvicted counts dirty words made durable because the cache
	// model evicted their line.
	WordsEvicted uint64
	// AtomicStores counts 8-byte failure-atomic stores. Every atomic
	// store is also counted in Stores: AtomicStores is a strict subset
	// of Stores, never a disjoint class, so Stores - AtomicStores is
	// the number of ordinary stores.
	AtomicStores uint64
}

// Region is an emulated NVM device. It is not safe for concurrent use;
// the memsim layer (and the concurrent table wrapper above it) serialise
// access, matching the single-memory-controller view of the hardware.
type Region struct {
	cur []byte
	// Paged dirty-word tracker (see paged.go): pages holds the lazily
	// allocated per-page bitmaps and shadow values, summary has one bit
	// per page with any dirty word, dirty is the live dirty-word count.
	pages   []*dirtyPage
	summary []uint64
	dirty   int
	stats   Stats
	rng     *rand.Rand
	wear    []uint32 // per-word media-write counters (nil = tracking off)
}

// NewRegion creates a region of the given size in bytes, rounded up to a
// whole number of words, with all bytes zero and everything persisted.
// The seed drives crash injection only.
func NewRegion(size uint64, seed int64) *Region {
	size = (size + WordSize - 1) &^ uint64(WordSize-1)
	r := &Region{
		cur: make([]byte, size),
		rng: rand.New(rand.NewSource(seed)),
	}
	r.newTracking(size)
	return r
}

// Size returns the region size in bytes.
func (r *Region) Size() uint64 { return uint64(len(r.cur)) }

// Stats returns a copy of the current counters.
func (r *Region) Stats() Stats { return r.stats }

// DirtyWords returns the number of words whose latest value has not yet
// reached the persistence domain.
func (r *Region) DirtyWords() int { return r.dirty }

func (r *Region) check(addr, n uint64) {
	if addr+n > uint64(len(r.cur)) || addr+n < addr {
		panic(fmt.Sprintf("nvm: access [%d,%d) out of range of %d-byte region", addr, addr+n, len(r.cur)))
	}
}

// wordAt returns the current value of the aligned word containing addr.
func (r *Region) wordAt(w uint64) uint64 {
	return binary.LittleEndian.Uint64(r.cur[w : w+WordSize])
}

// touchWord records the persisted value of word w before it is first
// modified, marking it dirty: a bitmap test plus a shadow-array store,
// with no hashing and no allocation past the page's first dirtying.
func (r *Region) touchWord(w uint64) {
	wi := w / WordSize
	pg := r.pageFor(wi >> pageWordsLog)
	idx := wi & (pageWords - 1)
	mask := uint64(1) << (idx & 63)
	if pg.bits[idx>>6]&mask != 0 {
		return
	}
	pg.bits[idx>>6] |= mask
	pg.count++
	pg.shadow[idx] = r.wordAt(w)
	p := wi >> pageWordsLog
	r.summary[p>>6] |= 1 << (p & 63)
	r.dirty++
	r.stats.WordsDirtied++
}

// Load8 reads the aligned 8-byte word at addr from the volatile image.
func (r *Region) Load8(addr uint64) uint64 {
	r.check(addr, WordSize)
	if addr%WordSize != 0 {
		panic(fmt.Sprintf("nvm: misaligned 8-byte load at %d", addr))
	}
	return r.wordAt(addr)
}

// Store8 writes an aligned 8-byte word. The store is failure atomic by
// construction (it covers exactly one word) but, like any store, is not
// durable until persisted or evicted.
func (r *Region) Store8(addr, val uint64) {
	r.check(addr, WordSize)
	if addr%WordSize != 0 {
		panic(fmt.Sprintf("nvm: misaligned 8-byte store at %d", addr))
	}
	r.touchWord(addr)
	binary.LittleEndian.PutUint64(r.cur[addr:addr+WordSize], val)
	r.stats.Stores++
}

// AtomicStore8 is Store8 with the additional documented guarantee that
// the word is the commit point of a failure-atomic update protocol. The
// region models all aligned word stores as atomic, so the distinction is
// purely statistical, but keeping it separate lets the harness count the
// paper's "8-byte failure-atomic writes". Per the Stats contract the
// store is counted in BOTH Stores and AtomicStores: AtomicStores is a
// subset classification, not a separate traffic class.
func (r *Region) AtomicStore8(addr, val uint64) {
	r.Store8(addr, val)
	r.stats.AtomicStores++
}

// PersistRange makes [addr, addr+n) durable, as if every covered
// cacheline had been flushed and a fence executed. It returns the number
// of dirty words persisted, which the latency model charges for.
func (r *Region) PersistRange(addr, n uint64) int {
	if n == 0 {
		return 0
	}
	r.check(addr, n)
	if r.dirty == 0 {
		return 0
	}
	persisted := r.cleanWords(addr/WordSize, (addr+n-1)/WordSize)
	r.stats.WordsPersisted += uint64(persisted)
	return persisted
}

// Evict makes [addr, addr+n) durable because the cache model wrote the
// line back. Semantically identical to PersistRange but counted apart:
// evictions are silent background traffic, not consistency-protocol cost.
func (r *Region) Evict(addr, n uint64) int {
	if n == 0 {
		return 0
	}
	r.check(addr, n)
	if r.dirty == 0 {
		return 0
	}
	evicted := r.cleanWords(addr/WordSize, (addr+n-1)/WordSize)
	r.stats.WordsEvicted += uint64(evicted)
	return evicted
}

// DirtyInRange reports the number of dirty words in [addr, addr+n).
func (r *Region) DirtyInRange(addr, n uint64) int {
	if n == 0 {
		return 0
	}
	r.check(addr, n)
	if r.dirty == 0 {
		return 0
	}
	return r.countDirtyWords(addr/WordSize, (addr+n-1)/WordSize)
}

// PersistedLoad8 reads the aligned word at addr as it currently stands
// in the persistence domain — i.e. the value that would survive an
// immediate crash in which no further dirty words were written back.
// Intended for tests and verification tooling.
func (r *Region) PersistedLoad8(addr uint64) uint64 {
	r.check(addr, WordSize)
	w := addr &^ uint64(WordSize-1)
	if old, dirty := r.isDirtyWord(w / WordSize); dirty {
		return old
	}
	return r.wordAt(w)
}

// CrashOutcome describes what Crash did, for logging and tests.
type CrashOutcome struct {
	// DirtyWords is how many words were un-persisted at the crash.
	DirtyWords int
	// Survived is how many of those happened to reach NVM anyway
	// (e.g. were in flight or evicted just before power was cut).
	Survived int
	// RolledBack is how many reverted to their persisted value.
	RolledBack int
}

// Crash simulates a power failure: every dirty word independently either
// survives (its new value is deemed to have reached NVM before the
// failure) or rolls back to its persisted value. survivalProb in [0,1]
// sets the per-word survival probability; 0.5 exercises the most
// adversarial interleavings. After Crash the region is fully persisted
// and represents the post-reboot NVM contents; volatile CPU state is
// gone by definition.
//
// The dirty set is visited in sorted address order so outcomes are a
// deterministic function of (seed, history).
func (r *Region) Crash(survivalProb float64) CrashOutcome {
	out := CrashOutcome{DirtyWords: r.dirty}
	r.forEachDirty(func(wi, old uint64) {
		if r.rng.Float64() < survivalProb {
			out.Survived++
			r.wearWord(wi)
		} else {
			w := wi * WordSize
			binary.LittleEndian.PutUint64(r.cur[w:w+WordSize], old)
			out.RolledBack++
		}
	})
	r.newTracking(uint64(len(r.cur)))
	return out
}

// SnapshotPersisted materialises a legal post-failure image of the
// region WITHOUT disturbing its live state: a copy of the volatile
// image in which each currently dirty word has independently either
// kept its new value (probability survivalProb) or been rolled back to
// its persisted value. Together with Restore, this lets a harness
// simulate a crash at an exact mid-operation point: snapshot at the
// trigger, let the operation finish, then restore the snapshot.
func (r *Region) SnapshotPersisted(survivalProb float64) []byte {
	img := make([]byte, len(r.cur))
	copy(img, r.cur)
	r.forEachDirty(func(wi, old uint64) {
		if r.rng.Float64() >= survivalProb {
			w := wi * WordSize
			binary.LittleEndian.PutUint64(img[w:w+WordSize], old)
		}
	})
	return img
}

// Restore replaces the region's contents with a previously captured
// post-failure image and marks everything persisted, completing a
// simulated crash. The image must be exactly the region's size.
func (r *Region) Restore(img []byte) {
	if len(img) != len(r.cur) {
		panic(fmt.Sprintf("nvm: restore image is %d bytes, region is %d", len(img), len(r.cur)))
	}
	copy(r.cur, img)
	r.newTracking(uint64(len(r.cur)))
}

// Image returns a copy of the region's volatile contents. Callers that
// want a durable image must persist first (PersistAll / the memsim
// layer's CleanShutdown); Image panics if dirty words remain, because
// writing a half-persisted image to stable storage would fabricate
// durability the simulated machine never provided.
func (r *Region) Image() []byte {
	if r.dirty != 0 {
		panic(fmt.Sprintf("nvm: Image with %d dirty words; persist first", r.dirty))
	}
	img := make([]byte, len(r.cur))
	copy(img, r.cur)
	return img
}

// SetImage replaces the region contents with img (same size required)
// and marks everything persisted — loading a stored NVM image at boot.
func (r *Region) SetImage(img []byte) {
	if len(img) != len(r.cur) {
		panic(fmt.Sprintf("nvm: image is %d bytes, region is %d", len(img), len(r.cur)))
	}
	copy(r.cur, img)
	r.newTracking(uint64(len(r.cur)))
}

// PersistAll flushes every dirty word, modelling a clean shutdown.
// It returns the number of words persisted.
func (r *Region) PersistAll() int {
	n := r.dirty
	if r.wear != nil {
		r.forEachDirty(func(wi, _ uint64) { r.wearWord(wi) })
	}
	r.stats.WordsPersisted += uint64(n)
	r.newTracking(uint64(len(r.cur)))
	return n
}
