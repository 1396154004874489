package nvm

import "testing"

// pageBytes is the span of one dirty-tracking page in bytes (512 words).
const pageBytes = pageWords * WordSize

// TestStoreSpansPageBoundary writes runs of words straddling the 4 KiB
// pages of the dirty tracker, so one run dirties words in two (or
// three) distinct pages; the per-page bitmaps, counts and the summary
// bitmap must all agree.
func TestStoreSpansPageBoundary(t *testing.T) {
	r := NewRegion(4*pageBytes, 1)
	storeWords := func(addr uint64, n int) {
		for i := 0; i < n; i++ {
			a := addr + uint64(i)*WordSize
			r.Store8(a, a)
		}
	}
	// Three words across the page 0 / page 1 boundary.
	start := uint64(pageBytes - WordSize)
	storeWords(start, 3)
	// Covered words: one ending page 0, two starting page 1.
	if got := r.DirtyWords(); got != 3 {
		t.Fatalf("DirtyWords = %d, want 3", got)
	}
	if got := r.DirtyInRange(0, pageBytes); got != 1 {
		t.Fatalf("page 0 dirty words = %d, want 1", got)
	}
	if got := r.DirtyInRange(pageBytes, pageBytes); got != 2 {
		t.Fatalf("page 1 dirty words = %d, want 2", got)
	}
	for i := uint64(0); i < 3; i++ {
		if got := r.Load8(start + i*WordSize); got != start+i*WordSize {
			t.Fatalf("Load8(%d) = %d", start+i*WordSize, got)
		}
	}

	// A run covering all of page 2 plus fringes of pages 1 and 3.
	storeWords(2*pageBytes-WordSize, pageWords+2)
	want := 3 + (pageWords + 2) // previous dirt + the new span
	if got := r.DirtyWords(); got != want {
		t.Fatalf("DirtyWords = %d, want %d", got, want)
	}
	if got := r.DirtyInRange(2*pageBytes, pageBytes); got != pageWords {
		t.Fatalf("page 2 dirty words = %d, want %d", got, pageWords)
	}

	// Persist only page 2: its whole bitmap clears (count drops to 0 and
	// the summary bit with it) while the fringe words stay dirty.
	if got := r.PersistRange(2*pageBytes, pageBytes); got != pageWords {
		t.Fatalf("PersistRange(page 2) = %d, want %d", got, pageWords)
	}
	if got := r.DirtyWords(); got != 3+2 {
		t.Fatalf("DirtyWords after page persist = %d, want 5", got)
	}
	if got := r.DirtyInRange(2*pageBytes-WordSize, WordSize); got != 1 {
		t.Fatal("fringe word before page 2 lost")
	}
	if got := r.DirtyInRange(3*pageBytes, WordSize); got != 1 {
		t.Fatal("fringe word after page 2 lost")
	}
}

// TestPersistDirtyEdgesOfRegion pins DirtyInRange/PersistRange at the
// very first and very last word of the region, where the masked first/
// last-word handling of the bitmap scan is easiest to get wrong.
func TestPersistDirtyEdgesOfRegion(t *testing.T) {
	size := uint64(2 * pageBytes)
	r := NewRegion(size, 1)
	r.Store8(0, 1)             // first word of the region
	r.Store8(size-WordSize, 2) // last word of the region
	r.Store8(pageBytes, 3)     // first word of page 1
	r.Store8(pageBytes-8, 4)   // last word of page 0

	if got := r.DirtyWords(); got != 4 {
		t.Fatalf("DirtyWords = %d, want 4", got)
	}
	// Whole-region scan sees all four; single-word scans see exactly one.
	if got := r.DirtyInRange(0, size); got != 4 {
		t.Fatalf("DirtyInRange(all) = %d, want 4", got)
	}
	for _, addr := range []uint64{0, size - WordSize, pageBytes, pageBytes - 8} {
		if got := r.DirtyInRange(addr, WordSize); got != 1 {
			t.Fatalf("DirtyInRange(%d, 8) = %d, want 1", addr, got)
		}
	}
	// A range ending exactly at the region edge persists the final word.
	if got := r.PersistRange(size-WordSize, WordSize); got != 1 {
		t.Fatalf("PersistRange(last word) = %d, want 1", got)
	}
	// A range starting at zero persists the first word.
	if got := r.PersistRange(0, WordSize); got != 1 {
		t.Fatalf("PersistRange(first word) = %d, want 1", got)
	}
	// The two page-boundary words fall to a single full-region persist.
	if got := r.PersistRange(0, size); got != 2 {
		t.Fatalf("PersistRange(all) = %d, want 2", got)
	}
	if got := r.DirtyWords(); got != 0 {
		t.Fatalf("DirtyWords after full persist = %d, want 0", got)
	}
	// Idempotent: persisting a clean region persists nothing.
	if got := r.PersistRange(0, size); got != 0 {
		t.Fatalf("PersistRange(clean) = %d, want 0", got)
	}
}

// TestDirtyRangeUnalignedEnds checks the masked scan against ranges
// whose byte bounds are not word aligned: any range touching a byte of
// a dirty word counts that word.
func TestDirtyRangeUnalignedEnds(t *testing.T) {
	r := NewRegion(4096, 1)
	r.Store8(64, 7)
	if got := r.DirtyInRange(63, 2); got != 1 { // straddles words 7 and 8
		t.Fatalf("DirtyInRange(63,2) = %d, want 1", got)
	}
	if got := r.DirtyInRange(71, 1); got != 1 { // last byte of the word
		t.Fatalf("DirtyInRange(71,1) = %d, want 1", got)
	}
	if got := r.DirtyInRange(72, 8); got != 0 { // next word, clean
		t.Fatalf("DirtyInRange(72,8) = %d, want 0", got)
	}
	if got := r.PersistRange(71, 1); got != 1 { // one byte is enough
		t.Fatalf("PersistRange(71,1) = %d, want 1", got)
	}
	if got := r.DirtyWords(); got != 0 {
		t.Fatalf("DirtyWords = %d, want 0", got)
	}
}

// TestAtomicStoreSubsetSemantics pins the counter classification:
// AtomicStores counts a strict subset of Stores (every atomic store is
// also an ordinary store for traffic purposes), so per-protocol
// "plain" stores are Stores - AtomicStores. The harness and figures
// rely on this relation.
func TestAtomicStoreSubsetSemantics(t *testing.T) {
	r := NewRegion(4096, 1)
	r.Store8(0, 1)
	r.Store8(8, 2)
	r.AtomicStore8(16, 3)
	r.Store8(24, 5)
	r.AtomicStore8(40, 4)
	st := r.Stats()
	if st.Stores != 5 {
		t.Fatalf("Stores = %d, want 5 (all stores, any kind)", st.Stores)
	}
	if st.AtomicStores != 2 {
		t.Fatalf("AtomicStores = %d, want 2", st.AtomicStores)
	}
	if st.AtomicStores > st.Stores {
		t.Fatal("AtomicStores must be a subset of Stores")
	}
	if plain := st.Stores - st.AtomicStores; plain != 3 {
		t.Fatalf("plain stores = %d, want 3", plain)
	}
}
