package nvm

import (
	"testing"
	"testing/quick"
)

func TestRegionSizeRounding(t *testing.T) {
	r := NewRegion(13, 1)
	if r.Size() != 16 {
		t.Fatalf("size = %d, want 16 (rounded to word)", r.Size())
	}
	if NewRegion(0, 1).Size() != 0 {
		t.Fatal("zero-size region should stay zero")
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	r := NewRegion(1024, 1)
	r.Store8(64, 0xdeadbeefcafef00d)
	if got := r.Load8(64); got != 0xdeadbeefcafef00d {
		t.Fatalf("Load8 = %#x", got)
	}
}

func TestMisalignedAccessPanics(t *testing.T) {
	r := NewRegion(128, 1)
	for _, f := range []func(){
		func() { r.Load8(4) },
		func() { r.Store8(12, 1) },
		func() { r.Load8(1000) },
		func() { r.Store8(128, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDirtyTracking(t *testing.T) {
	r := NewRegion(1024, 1)
	if r.DirtyWords() != 0 {
		t.Fatal("fresh region should be clean")
	}
	r.Store8(0, 1)
	r.Store8(0, 2) // same word: still one dirty word
	r.Store8(8, 3)
	if got := r.DirtyWords(); got != 2 {
		t.Fatalf("DirtyWords = %d, want 2", got)
	}
	if got := r.Stats().WordsDirtied; got != 2 {
		t.Fatalf("WordsDirtied = %d, want 2", got)
	}
	if n := r.PersistRange(0, 8); n != 1 {
		t.Fatalf("PersistRange persisted %d words, want 1", n)
	}
	if got := r.DirtyWords(); got != 1 {
		t.Fatalf("DirtyWords after persist = %d, want 1", got)
	}
}

func TestPersistedLoadSeesOldValueUntilPersist(t *testing.T) {
	r := NewRegion(64, 1)
	r.Store8(0, 111)
	r.PersistRange(0, 8)
	r.Store8(0, 222)
	if got := r.Load8(0); got != 222 {
		t.Fatalf("volatile view = %d, want 222", got)
	}
	if got := r.PersistedLoad8(0); got != 111 {
		t.Fatalf("persisted view = %d, want 111", got)
	}
	r.PersistRange(0, 8)
	if got := r.PersistedLoad8(0); got != 222 {
		t.Fatalf("persisted view after persist = %d, want 222", got)
	}
}

func TestCrashAllSurvive(t *testing.T) {
	r := NewRegion(128, 7)
	r.Store8(0, 42)
	r.Store8(8, 43)
	out := r.Crash(1.0)
	if out.Survived != 2 || out.RolledBack != 0 {
		t.Fatalf("outcome = %+v, want all survived", out)
	}
	if r.Load8(0) != 42 || r.Load8(8) != 43 {
		t.Fatal("surviving values lost")
	}
	if r.DirtyWords() != 0 {
		t.Fatal("region must be fully persisted after crash")
	}
}

func TestCrashNoneSurvive(t *testing.T) {
	r := NewRegion(128, 7)
	r.Store8(0, 41)
	r.PersistRange(0, 8)
	r.Store8(0, 42)
	r.Store8(8, 43)
	out := r.Crash(0.0)
	if out.RolledBack != 2 {
		t.Fatalf("outcome = %+v, want 2 rolled back", out)
	}
	if r.Load8(0) != 41 {
		t.Fatalf("word 0 = %d, want persisted 41", r.Load8(0))
	}
	if r.Load8(8) != 0 {
		t.Fatalf("word 8 = %d, want original 0", r.Load8(8))
	}
}

func TestCrashDeterministicForSeed(t *testing.T) {
	run := func() []uint64 {
		r := NewRegion(1024, 99)
		for i := uint64(0); i < 64; i += 8 {
			r.Store8(i, i+1)
		}
		r.Crash(0.5)
		var vals []uint64
		for i := uint64(0); i < 64; i += 8 {
			vals = append(vals, r.Load8(i))
		}
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("crash outcome differs at word %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEvictPersistsSilently(t *testing.T) {
	r := NewRegion(128, 1)
	r.Store8(0, 5)
	if n := r.Evict(0, 64); n != 1 {
		t.Fatalf("Evict persisted %d words, want 1", n)
	}
	if got := r.Stats().WordsEvicted; got != 1 {
		t.Fatalf("WordsEvicted = %d, want 1", got)
	}
	if got := r.Stats().WordsPersisted; got != 0 {
		t.Fatalf("WordsPersisted = %d, want 0 (eviction is not a flush)", got)
	}
	if got := r.PersistedLoad8(0); got != 5 {
		t.Fatalf("persisted view = %d, want 5", got)
	}
}

func TestPersistAll(t *testing.T) {
	r := NewRegion(256, 1)
	for i := uint64(0); i < 10; i++ {
		r.Store8(i*8, i)
	}
	if n := r.PersistAll(); n != 10 {
		t.Fatalf("PersistAll = %d, want 10", n)
	}
	if r.DirtyWords() != 0 {
		t.Fatal("dirty words remain after PersistAll")
	}
}

func TestAtomicStoreCounted(t *testing.T) {
	r := NewRegion(64, 1)
	r.AtomicStore8(0, 1)
	r.Store8(8, 2)
	s := r.Stats()
	if s.AtomicStores != 1 {
		t.Fatalf("AtomicStores = %d, want 1", s.AtomicStores)
	}
	if s.Stores != 2 {
		t.Fatalf("Stores = %d, want 2", s.Stores)
	}
}

// Property: after any sequence of stores and persists, the persisted
// view of every word is either its last persisted value or equal to the
// volatile view; and Crash(p) always yields a state where each word is
// one of those two values.
func TestQuickCrashStatesAreLegal(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		const words = 32
		r := NewRegion(words*8, seed)
		// Shadow model: lastPersisted and volatile per word.
		persisted := make([]uint64, words)
		volatile := make([]uint64, words)
		val := uint64(1)
		for _, op := range ops {
			w := uint64(op) % words
			if op%3 == 0 {
				r.PersistRange(w*8, 8)
				persisted[w] = volatile[w]
			} else {
				r.Store8(w*8, val)
				volatile[w] = val
				val++
			}
		}
		r.Crash(0.5)
		for w := uint64(0); w < words; w++ {
			got := r.Load8(w * 8)
			if got != persisted[w] && got != volatile[w] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a run of word stores round-trips through Load8.
func TestQuickStoreLoadRoundTrip(t *testing.T) {
	f := func(data []uint64, off uint16) bool {
		if len(data) > 64 {
			data = data[:64]
		}
		r := NewRegion(2048, 1)
		addr := uint64(off) % 1024 &^ (WordSize - 1)
		for i, v := range data {
			r.Store8(addr+uint64(i)*WordSize, v)
		}
		for i, v := range data {
			if r.Load8(addr+uint64(i)*WordSize) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotAndRestore(t *testing.T) {
	r := NewRegion(256, 9)
	r.Store8(0, 1)
	r.PersistRange(0, 8)
	r.Store8(0, 2) // dirty: persisted value is 1
	r.Store8(8, 3) // dirty: persisted value is 0

	img := r.SnapshotPersisted(0) // full rollback in the snapshot
	// Live state untouched by taking the snapshot.
	if r.Load8(0) != 2 || r.Load8(8) != 3 || r.DirtyWords() != 2 {
		t.Fatal("snapshot disturbed live state")
	}
	r.Restore(img)
	if r.Load8(0) != 1 || r.Load8(8) != 0 {
		t.Fatalf("restored state = %d/%d, want 1/0", r.Load8(0), r.Load8(8))
	}
	if r.DirtyWords() != 0 {
		t.Fatal("restore must mark everything persisted")
	}
	// Size mismatch rejected.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong-size image")
		}
	}()
	r.Restore(make([]byte, 8))
}

func TestImageRoundTripAndDirtGuard(t *testing.T) {
	r := NewRegion(128, 1)
	r.Store8(0, 42)
	r.PersistAll()
	img := r.Image()
	r2 := NewRegion(128, 2)
	r2.SetImage(img)
	if r2.Load8(0) != 42 {
		t.Fatal("image round trip lost data")
	}
	// Image of a dirty region must panic (it would fabricate durability).
	r.Store8(8, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dirty Image")
		}
	}()
	r.Image()
}

func TestSetImageSizeMismatchPanics(t *testing.T) {
	r := NewRegion(128, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.SetImage(make([]byte, 64))
}

func TestDirtyInRangeAndResetStats(t *testing.T) {
	r := NewRegion(256, 1)
	r.Store8(0, 1)
	r.Store8(64, 2)
	if got := r.DirtyInRange(0, 256); got != 2 {
		t.Fatalf("DirtyInRange = %d", got)
	}
	if got := r.DirtyInRange(0, 8); got != 1 {
		t.Fatalf("DirtyInRange(0,8) = %d", got)
	}
	if got := r.DirtyInRange(8, 0); got != 0 {
		t.Fatalf("empty range = %d", got)
	}
}
