// Package layout defines the persistent cell formats shared by all hash
// tables in this repository. Both formats commit state transitions with
// a single aligned 8-byte store, the failure-atomicity unit of the
// modelled NVM (§3.3 of the paper).
//
// Compact layout — 8-byte keys, 16-byte cells (the paper's RandomNum
// and Bag-of-Words item size):
//
//	word 0   key; doubles as the occupancy bitmap: key != 0 ⇔ occupied.
//	         The atomic store of this word is the commit point.
//	word 1   value
//
// The compact layout reserves key 0 as the empty marker, so zero keys
// are invalid (traces avoid them; tables reject them).
//
// Meta layout — 16-byte keys, 32-byte cells (the paper's Fingerprint
// item size):
//
//	word 0   meta word: bit 0 = occupied bitmap, bits 16..63 = key tag.
//	         The atomic store of this word is the commit point.
//	word 1-2 key
//	word 3   value
//
// In both cases the commit word plays the role of the paper's per-cell
// "bitmap": inserts persist the rest of the cell first and then
// atomically publish the commit word; deletes atomically clear the
// commit word first and then scrub the rest (§3.4).
package layout

import "grouphash/internal/xhash"

// WordSize is the failure-atomicity unit in bytes.
const WordSize = 8

// TagBits is the width of the fingerprint stored in a meta word.
const TagBits = 48

// TagShift positions the tag above the low flag bits.
const TagShift = 16

// OccupiedBit marks a meta-layout cell as holding a live item.
const OccupiedBit = 1

// Key is a fixed-size hash key. The compact layout uses Lo only; the
// meta layout uses both words. Using a value struct keeps the hot path
// free of heap allocation.
type Key struct {
	Lo, Hi uint64
}

// Layout describes the cell geometry for a key size.
type Layout struct {
	keyWords int
	compact  bool
}

// ForKeySize returns the layout for 8- or 16-byte keys (the item sizes
// of the paper's three traces): compact 16-byte cells for 8-byte keys,
// meta-word 32-byte cells for 16-byte keys.
func ForKeySize(bytes int) Layout {
	switch bytes {
	case 8:
		return Layout{keyWords: 1, compact: true}
	case 16:
		return Layout{keyWords: 2}
	default:
		panic("layout: key size must be 8 or 16 bytes")
	}
}

// Compact reports whether this is the key-as-commit-word format.
func (l Layout) Compact() bool { return l.compact }

// KeyWords returns how many 8-byte words the key occupies.
func (l Layout) KeyWords() int { return l.keyWords }

// KeyBytes returns the key size in bytes.
func (l Layout) KeyBytes() int { return l.keyWords * WordSize }

// CellSize returns the cell footprint in bytes.
func (l Layout) CellSize() uint64 {
	if l.compact {
		return 2 * WordSize // key + value
	}
	return uint64(2+l.keyWords) * WordSize // meta + key + value
}

// CommitOff returns the address of the cell's commit word: the word
// whose atomic store publishes or retires the cell.
func (l Layout) CommitOff(base uint64) uint64 { return base }

// KeyOff returns the address of key word i.
func (l Layout) KeyOff(base uint64, i int) uint64 {
	if l.compact {
		return base // the key IS the commit word
	}
	return base + uint64(1+i)*WordSize
}

// ValOff returns the address of the value word.
func (l Layout) ValOff(base uint64) uint64 {
	if l.compact {
		return base + WordSize
	}
	return base + uint64(1+l.keyWords)*WordSize
}

// PayloadOff returns the address of the first non-commit word — the
// range an insert persists before publishing the commit word.
func (l Layout) PayloadOff(base uint64) uint64 { return base + WordSize }

// PayloadLen returns the byte length of the non-commit payload.
func (l Layout) PayloadLen() uint64 {
	if l.compact {
		return WordSize // value only
	}
	return uint64(1+l.keyWords) * WordSize // key + value
}

// ValidKey reports whether k can be stored under this layout. The
// compact layout reserves the zero key as its empty marker.
func (l Layout) ValidKey(k Key) bool {
	if l.compact {
		return k.Lo != 0
	}
	return true
}

// normHi returns the key's high word as seen by this layout: one-word
// layouts ignore Key.Hi entirely, so a caller-populated Hi can never
// cause a mismatch against the stored (single-word) key.
func (l Layout) normHi(k Key) uint64 {
	if l.keyWords == 2 {
		return k.Hi
	}
	return 0
}

// Canon returns k as this layout stores it (Hi dropped for one-word
// keys). Comparisons between a lookup key and a stored key must use
// canonical forms.
func (l Layout) Canon(k Key) Key { return Key{Lo: k.Lo, Hi: l.normHi(k)} }

// CommitWord returns the value stored at the commit word to publish an
// occupied cell holding k: the key itself (compact) or a meta word with
// the occupied bit and k's tag (meta layout). The commit word of an
// occupied cell is never zero; zero always reads as empty.
func (l Layout) CommitWord(k Key) uint64 {
	if l.compact {
		return k.Lo
	}
	return xhash.Tag(k.Lo, k.Hi, TagBits)<<TagShift | OccupiedBit
}

// Occupied reports whether a commit word marks the cell occupied.
func (l Layout) Occupied(commit uint64) bool {
	if l.compact {
		return commit != 0
	}
	return commit&OccupiedBit != 0
}

// CommitMatches reports whether the commit word could belong to key k:
// under the compact layout this is a full key compare; under the meta
// layout the cell must be occupied with an agreeing tag (a true result
// still requires a full key compare; a false result is definitive).
func (l Layout) CommitMatches(commit uint64, k Key) bool {
	if l.compact {
		return commit == k.Lo && commit != 0
	}
	return l.Occupied(commit) && commit>>TagShift&(1<<TagBits-1) == xhash.Tag(k.Lo, k.Hi, TagBits)
}
