package layout

import (
	"testing"
	"testing/quick"
)

func TestForKeySize(t *testing.T) {
	l8 := ForKeySize(8)
	if !l8.Compact() || l8.KeyWords() != 1 || l8.KeyBytes() != 8 || l8.CellSize() != 16 {
		t.Fatalf("8-byte layout: compact=%v words=%d bytes=%d cell=%d",
			l8.Compact(), l8.KeyWords(), l8.KeyBytes(), l8.CellSize())
	}
	l16 := ForKeySize(16)
	if l16.Compact() || l16.KeyWords() != 2 || l16.KeyBytes() != 16 || l16.CellSize() != 32 {
		t.Fatalf("16-byte layout: compact=%v words=%d bytes=%d cell=%d",
			l16.Compact(), l16.KeyWords(), l16.KeyBytes(), l16.CellSize())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for 12-byte keys")
			}
		}()
		ForKeySize(12)
	}()
}

func TestCompactOffsets(t *testing.T) {
	l := ForKeySize(8)
	base := uint64(1024)
	if l.CommitOff(base) != 1024 || l.KeyOff(base, 0) != 1024 {
		t.Fatal("compact: key must be the commit word")
	}
	if l.ValOff(base) != 1032 {
		t.Fatal("compact: value must follow the key")
	}
	if l.PayloadOff(base) != 1032 || l.PayloadLen() != 8 {
		t.Fatalf("compact payload = (%d, %d)", l.PayloadOff(base), l.PayloadLen())
	}
	if l.ValOff(base)+WordSize != base+l.CellSize() {
		t.Fatal("compact cells do not tile")
	}
}

func TestMetaOffsets(t *testing.T) {
	l := ForKeySize(16)
	base := uint64(1024)
	if l.CommitOff(base) != 1024 {
		t.Fatal("meta word must be the first word")
	}
	if l.KeyOff(base, 0) != 1032 || l.KeyOff(base, 1) != 1040 {
		t.Fatal("key words must follow the meta word")
	}
	if l.ValOff(base) != 1048 {
		t.Fatal("value must follow the key")
	}
	if l.PayloadOff(base) != 1032 || l.PayloadLen() != 24 {
		t.Fatalf("payload = (%d, %d)", l.PayloadOff(base), l.PayloadLen())
	}
	if l.ValOff(base)+WordSize != base+l.CellSize() {
		t.Fatal("meta cells do not tile")
	}
}

func TestCompactCommitWord(t *testing.T) {
	l := ForKeySize(8)
	k := Key{Lo: 12345}
	commit := l.CommitWord(k)
	if commit != 12345 {
		t.Fatalf("compact commit word = %d, want the key", commit)
	}
	if !l.Occupied(commit) {
		t.Fatal("non-zero key must read as occupied")
	}
	if l.Occupied(0) {
		t.Fatal("zero commit word must read as empty")
	}
	if !l.CommitMatches(commit, k) {
		t.Fatal("commit word must match its own key")
	}
	if l.CommitMatches(commit, Key{Lo: 99}) {
		t.Fatal("commit word matched a different key")
	}
	if l.CommitMatches(0, Key{Lo: 0}) {
		t.Fatal("the zero key must never match (reserved as empty)")
	}
}

func TestMetaCommitWord(t *testing.T) {
	l := ForKeySize(16)
	k := Key{Lo: 12345, Hi: 999}
	meta := l.CommitWord(k)
	if !l.Occupied(meta) {
		t.Fatal("meta of an occupied cell must have the occupied bit")
	}
	if meta>>TagShift&(1<<TagBits-1) == 0 {
		t.Fatal("meta must carry a non-zero tag")
	}
	if !l.CommitMatches(meta, k) {
		t.Fatal("meta must match its own key")
	}
	if l.CommitMatches(0, k) {
		t.Fatal("empty meta must not match any key")
	}
	if l.CommitMatches(meta&^uint64(OccupiedBit), k) {
		t.Fatal("unoccupied meta must not match even with the right tag")
	}
}

func TestValidKey(t *testing.T) {
	l8, l16 := ForKeySize(8), ForKeySize(16)
	if l8.ValidKey(Key{Lo: 0}) {
		t.Fatal("compact layout must reject the zero key")
	}
	if !l8.ValidKey(Key{Lo: 1}) {
		t.Fatal("compact layout must accept non-zero keys")
	}
	if !l16.ValidKey(Key{Lo: 0, Hi: 0}) {
		t.Fatal("meta layout accepts any key (occupancy lives in the meta word)")
	}
}

func TestCanonDropsHiForCompact(t *testing.T) {
	l := ForKeySize(8)
	if l.Canon(Key{Lo: 5, Hi: 77}) != (Key{Lo: 5}) {
		t.Fatal("compact canon must drop Hi")
	}
	l16 := ForKeySize(16)
	if l16.Canon(Key{Lo: 5, Hi: 77}) != (Key{Lo: 5, Hi: 77}) {
		t.Fatal("meta canon must keep Hi")
	}
}

// Property: a meta commit word never rejects its own key, and the
// occupied bit survives tagging for all keys.
func TestQuickMetaSelfMatch(t *testing.T) {
	l := ForKeySize(16)
	f := func(lo, hi uint64) bool {
		k := Key{Lo: lo, Hi: hi}
		meta := l.CommitWord(k)
		return l.Occupied(meta) && l.CommitMatches(meta, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: compact commit words are exactly the key, so matching is
// exact (no false positives at all).
func TestQuickCompactExactMatch(t *testing.T) {
	l := ForKeySize(8)
	f := func(a, b uint64) bool {
		if a == 0 || b == 0 {
			return true
		}
		match := l.CommitMatches(l.CommitWord(Key{Lo: a}), Key{Lo: b})
		return match == (a == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
