package dchoice

import (
	"math/rand"
	"testing"

	"grouphash/internal/cache"
	"grouphash/internal/layout"
	"grouphash/internal/memsim"
	"grouphash/internal/native"
)

func TestBasicOps(t *testing.T) {
	mem := native.New(4 << 20)
	tab := New(mem, Options{Cells: 1024, Seed: 1})
	if tab.Name() != "2choice" {
		t.Fatal("name")
	}
	var stored []layout.Key
	for i := uint64(1); i <= 400; i++ {
		k := layout.Key{Lo: i}
		if err := tab.Insert(k, i); err == nil {
			stored = append(stored, k)
		}
	}
	for _, k := range stored {
		if v, ok := tab.Lookup(k); !ok || v != k.Lo {
			t.Fatalf("lookup %d = (%d, %v)", k.Lo, v, ok)
		}
		if !tab.Update(k, k.Lo+1) {
			t.Fatalf("update %d", k.Lo)
		}
	}
	for _, k := range stored {
		if !tab.Delete(k) {
			t.Fatalf("delete %d", k.Lo)
		}
	}
	if tab.Len() != 0 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

func TestLowSpaceUtilisation(t *testing.T) {
	// The §4.1 exclusion reason: single-slot two-choice fills far below
	// the other schemes. Theory: utilisation at first failure is well
	// under 60% for large tables.
	mem := native.New(8 << 20)
	tab := New(mem, Options{Cells: 1 << 14, Seed: 2})
	var inserted uint64
	for i := uint64(1); ; i++ {
		if err := tab.Insert(layout.Key{Lo: i * 2654435761}, i); err != nil {
			break
		}
		inserted++
	}
	// First-failure utilisation for single-slot two-choice is tiny:
	// an insert fails as soon as both its candidates are taken, which
	// first happens after roughly (3·N²)^(1/3) inserts — about 4-6%%
	// of a 16K-cell table. This is the paper's exclusion, measured.
	lf := float64(inserted) / float64(tab.Capacity())
	if lf > 0.2 {
		t.Fatalf("2-choice utilisation %.3f unexpectedly high", lf)
	}
	if lf < 0.01 {
		t.Fatalf("2-choice utilisation %.3f implausibly low", lf)
	}
}

func TestOracleFuzz(t *testing.T) {
	mem := native.New(8 << 20)
	tab := New(mem, Options{Cells: 4096, Seed: 3})
	oracle := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(37))
	for op := 0; op < 20000; op++ {
		key := uint64(rng.Intn(1200)) + 1
		k := layout.Key{Lo: key}
		switch rng.Intn(3) {
		case 0:
			if _, exists := oracle[key]; !exists {
				if tab.Insert(k, key) == nil {
					oracle[key] = key
				}
			}
		case 1:
			v, ok := tab.Lookup(k)
			ov, ook := oracle[key]
			if ok != ook || (ok && v != ov) {
				t.Fatalf("op %d: lookup(%d) mismatch", op, key)
			}
		case 2:
			if ok := tab.Delete(k); ok != (func() bool { _, e := oracle[key]; return e })() {
				t.Fatalf("op %d: delete(%d) mismatch", op, key)
			}
			delete(oracle, key)
		}
	}
	if tab.Len() != uint64(len(oracle)) {
		t.Fatalf("Len = %d, oracle %d", tab.Len(), len(oracle))
	}
}

func TestCrashRecovery(t *testing.T) {
	mem := memsim.New(memsim.Config{Size: 4 << 20, Seed: 4, Geoms: cache.SmallGeometry()})
	tab := New(mem, Options{Cells: 512, Seed: 4})
	committed := make(map[uint64]uint64)
	for i := uint64(1); i <= 200; i++ {
		// Some inserts fail outright (both candidates taken — the very
		// weakness that excludes the scheme); only successful ones are
		// durable commitments.
		if tab.Insert(layout.Key{Lo: i}, i) == nil {
			committed[i] = i
		}
	}
	// Every insert above returned, so the shared commit protocol has
	// persisted it: a power failure that drops half the un-persisted
	// words loses none of them.
	mem.Crash(0.5)
	for key, want := range committed {
		if v, ok := tab.Lookup(layout.Key{Lo: key}); !ok || v != want {
			t.Fatalf("committed key %d lost", key)
		}
	}
	if tab.Len() != uint64(len(committed)) {
		t.Fatalf("count %d, want %d", tab.Len(), len(committed))
	}
}
