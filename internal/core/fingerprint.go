package core

// DRAM fingerprint sidecar, the Dash-style signature filter (Dash:
// Scalable Hashing on Persistent Memory; see PAPERS.md) adapted to the
// paper's group layout. Every level-2 cell gets a 1-byte tag — the top
// byte of an independent full-avalanche hash of the key, never zero —
// packed eight to a word in a plain DRAM slice. A group probe first
// screens the group's tags with word-wide SWAR compares (one 8-byte
// load covers eight cells) and only dereferences the persistent cells
// whose tag agrees, so an absent-key scan of a 256-cell group costs 32
// word loads instead of up to 256 commit-word reads, and a present-key
// scan jumps straight to its candidate cell.
//
// The sidecar is pure derived state: a function of the cell bitmaps and
// keys the recovery scan already reads. It therefore lives in DRAM,
// costs no persist barriers, is maintained alongside every level-2 cell
// commit, and is rebuilt from the authoritative cells on Open, after
// Recover, and on snapshot load. Level-1 cells need no tags — they are
// addressed directly by the hash, never scanned.
//
// Concurrency. Tag words are read with atomic loads and written with
// atomic stores, so the seqlock-optimistic Concurrent.Lookup can probe
// the sidecar with no lock held (a racing writer makes the seqlock
// version check fail and the probe retry, exactly as for cell words;
// the atomics keep every individual word un-torn and race-detector
// clean). Writers mutate a tag word only under their stripe lock, and
// — because the sidecar requires GroupSize ≥ 8 — a tag word never
// spans two groups, so two stripes never write the same word.
//
// The sidecar is enabled by default on backends whose word accesses
// are individually atomic (hashtab.ConcurrentReader — the native
// production backend). On the simulated-NVM backend it stays off so
// the paper's figures keep measuring the paper's exact probe sequence;
// EnableFingerprints opts in explicitly.

import (
	"math/bits"
	"sync/atomic"

	"grouphash/internal/layout"
	"grouphash/internal/xhash"
)

// fpMinGroupSize is the smallest group the sidecar supports: a tag word
// must not span two groups (see the concurrency notes above), so groups
// must cover whole 8-byte tag words.
const fpMinGroupSize = 8

// fpLow7 and fpHigh are the SWAR lane masks of the exact zero-byte
// test: for x with per-byte lanes, bit 7 of a lane in fpZeroMask(x) is
// set iff that byte of x is zero. Unlike the classic
// (x-0x01..)&^x&0x80.. trick this form has no cross-lane borrows and
// therefore no false positives, which placeInGroup's empty-slot scan
// depends on (a false "empty" would overwrite a live cell).
const (
	fpLow7 = 0x7f7f7f7f7f7f7f7f
	fpHigh = 0x8080808080808080
)

// fpZeroMask returns a mask with bit 7 of lane i set iff byte i of x is
// zero. XOR x with a broadcast tag first to turn it into an exact
// byte-equality test.
func fpZeroMask(x uint64) uint64 {
	y := (x&fpLow7 + fpLow7) | x
	return ^y & fpHigh
}

// fpBroadcast replicates a tag byte into all eight lanes.
func fpBroadcast(tag uint64) uint64 { return tag * 0x0101010101010101 }

// fpTag returns k's sidecar tag under the table's layout (canonical
// form, so a caller-populated Hi word cannot desynchronise one-word
// layouts).
func (t *Table) fpTag(k layout.Key) uint64 {
	k = t.l.Canon(k)
	return uint64(xhash.Fingerprint(k.Lo, k.Hi))
}

// fpEligible reports whether the sidecar can cover this geometry.
func fpEligible(gsz uint64) bool { return gsz >= fpMinGroupSize }

// newFp allocates an all-empty sidecar for n level-2 cells.
func newFp(n uint64) []uint64 { return make([]uint64, n/8) }

// fpStore publishes tag (0 = empty) for level-2 cell i. Callers hold
// the cell's stripe lock (or own the view exclusively); the atomic
// store is for concurrent lock-free readers, not for other writers.
func (vw *view) fpStore(i uint64, tag uint64) {
	if vw.fp == nil {
		return
	}
	w := &vw.fp[i>>3]
	shift := (i & 7) * 8
	atomic.StoreUint64(w, atomic.LoadUint64(w)&^(0xff<<shift)|tag<<shift)
}

// fpLoad returns the tag stored for level-2 cell i (0 = empty).
func (vw *view) fpLoad(i uint64) uint64 {
	return atomic.LoadUint64(&vw.fp[i>>3]) >> ((i & 7) * 8) & 0xff
}

// buildFp (re)derives the sidecar of vw from its authoritative cells:
// the occupancy bitmaps say which cells are live, the stored keys give
// the tags. Must not run concurrently with operations on vw.
func (vw *view) buildFp(l layout.Layout) {
	fp := newFp(vw.tab2.N)
	for i := uint64(0); i < vw.tab2.N; i++ {
		if vw.tab2.Occupied(i) {
			k := vw.tab2.Key(i)
			fp[i>>3] |= uint64(xhash.Fingerprint(k.Lo, k.Hi)) << ((i & 7) * 8)
		}
	}
	vw.fp = fp
}

// EnableFingerprints builds the DRAM tag sidecar for the current view
// and turns on filtered group probes, reporting whether the geometry
// supports it (GroupSize ≥ 8). Costs 1 byte of DRAM per level-2 cell
// and one O(level-2 cells) scan now; newly built views (expansion)
// inherit the setting. On ConcurrentReader backends the sidecar is on
// by default. Must not run concurrently with table operations.
func (t *Table) EnableFingerprints() bool {
	if !fpEligible(t.gsz) {
		return false
	}
	t.fpOn = true
	if vw := t.cur(); vw.fp == nil {
		vw.buildFp(t.l)
	}
	return true
}

// DisableFingerprints drops the sidecar and reverts to unfiltered
// group scans (the paper's exact probe sequence). Must not run
// concurrently with table operations.
func (t *Table) DisableFingerprints() {
	t.fpOn = false
	t.cur().fp = nil
}

// FingerprintsEnabled reports whether filtered probes are active.
func (t *Table) FingerprintsEnabled() bool { return t.cur().fp != nil }

// FingerprintStats returns the probe-filter effectiveness counters:
// hits is the number of cells dereferenced because their tag matched
// the probe key (true match or 1-in-255 false positive), skips the
// number of cells the filter screened out without touching persistent
// memory. Both accumulate across every filtered group scan — lookups,
// deletes and in-place updates. A scan's cells are counted once its
// caller publishes (see fpTally).
func (t *Table) FingerprintStats() (hits, skips uint64) {
	return t.fpHits.Load(), t.fpSkips.Load()
}

// fpTally is one caller's share of the filter counters: the cells its
// filtered group scans dereferenced and screened out. A probe adds to
// a tally on its caller's stack, and the caller publishes it once —
// per sequential call, per concurrent lookup (retries included), per
// stripe-run — so a probe writes no cache line another core reads.
type fpTally struct{ hits, skips uint64 }

// publishTally adds tl to the table's counters. A zero tally, what a
// level-1 hit or an unfiltered table leaves, writes nothing.
func (t *Table) publishTally(tl *fpTally) {
	if tl.hits != 0 {
		t.fpHits.Add(tl.hits)
	}
	if tl.skips != 0 {
		t.fpSkips.Add(tl.skips)
	}
}

// findInGroupFP is the filtered group scan: screen the group's tag
// words against k's broadcast tag and dereference only agreeing cells,
// in ascending cell order (preserving the unfiltered scan's first-match
// semantics for duplicate keys). Returns the matching cell index, and
// adds the cells it dereferenced and screened out up to the match (or
// across the whole group) to tl.
func (t *Table) findInGroupFP(vw *view, j uint64, k layout.Key, tl *fpTally) (uint64, bool) {
	pat := fpBroadcast(t.fpTag(k))
	var derefs uint64
	for w, end := j>>3, (j+t.gsz)>>3; w < end; w++ {
		word := atomic.LoadUint64(&vw.fp[w])
		for m := fpZeroMask(word ^ pat); m != 0; m &= m - 1 {
			i := w<<3 + uint64(bits.TrailingZeros64(m)>>3)
			derefs++
			if vw.tab2.Matches(i, k) {
				tl.hits += derefs
				tl.skips += i - j + 1 - derefs
				return i, true
			}
		}
	}
	tl.hits += derefs
	tl.skips += t.gsz - derefs
	return 0, false
}

// placeInGroupFP finds the first empty cell of the group via the
// sidecar's zero-byte scan (tag 0 ⇔ cell empty, an invariant every
// level-2 commit path maintains) — the same slot the unfiltered
// first-empty scan would pick.
func (t *Table) placeInGroupFP(vw *view, j uint64, k layout.Key, v uint64) bool {
	for w, end := j>>3, (j+t.gsz)>>3; w < end; w++ {
		if m := fpZeroMask(atomic.LoadUint64(&vw.fp[w])); m != 0 {
			i := w<<3 + uint64(bits.TrailingZeros64(m)>>3)
			vw.tab2.InsertAt(i, k, v)
			vw.fpStore(i, t.fpTag(k))
			return true
		}
	}
	return false
}
