package core

import (
	"math/rand"
	"testing"

	"grouphash/internal/layout"
	"grouphash/internal/native"
)

func TestTwoChoiceBasicOps(t *testing.T) {
	mem := native.New(16 << 20)
	tab := mustCreate(t, mem, Options{Cells: 1024, GroupSize: 16, Seed: 4, TwoChoice: true})
	if tab.Name() != "group-2c" || !tab.two {
		t.Fatalf("identity: %q / %v", tab.Name(), tab.two)
	}
	for i := uint64(1); i <= 900; i++ {
		if err := tab.Insert(layout.Key{Lo: i}, i*5); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := uint64(1); i <= 900; i++ {
		if v, ok := tab.Lookup(layout.Key{Lo: i}); !ok || v != i*5 {
			t.Fatalf("lookup %d = (%d, %v)", i, v, ok)
		}
	}
	for i := uint64(1); i <= 900; i += 2 {
		if !tab.Delete(layout.Key{Lo: i}) {
			t.Fatalf("delete %d", i)
		}
	}
	for i := uint64(1); i <= 900; i++ {
		_, ok := tab.Lookup(layout.Key{Lo: i})
		if want := i%2 == 0; ok != want {
			t.Fatalf("key %d presence %v", i, ok)
		}
	}
	if bad := tab.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("inconsistencies: %v", bad)
	}
}

func TestTwoChoiceOracleFuzz(t *testing.T) {
	mem := native.New(32 << 20)
	tab := mustCreate(t, mem, Options{Cells: 2048, GroupSize: 32, Seed: 12, TwoChoice: true})
	oracle := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(77))
	for op := 0; op < 30000; op++ {
		key := uint64(rng.Intn(2500)) + 1
		k := layout.Key{Lo: key}
		switch rng.Intn(4) {
		case 0:
			if _, exists := oracle[key]; !exists {
				if tab.Insert(k, key*3) == nil {
					oracle[key] = key * 3
				}
			}
		case 1:
			v, ok := tab.Lookup(k)
			ov, ook := oracle[key]
			if ok != ook || (ok && v != ov) {
				t.Fatalf("op %d: lookup(%d) = (%d,%v), oracle (%d,%v)", op, key, v, ok, ov, ook)
			}
		case 2:
			if ok := tab.Delete(k); ok != (func() bool { _, e := oracle[key]; return e })() {
				t.Fatalf("op %d: delete(%d) mismatch", op, key)
			}
			delete(oracle, key)
		case 3:
			nv := rng.Uint64()
			if tab.Update(k, nv) {
				if _, e := oracle[key]; !e {
					t.Fatalf("op %d: updated absent key %d", op, key)
				}
				oracle[key] = nv
			}
		}
	}
	if tab.Len() != uint64(len(oracle)) {
		t.Fatalf("Len = %d, oracle %d", tab.Len(), len(oracle))
	}
	if bad := tab.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("inconsistencies: %v", bad)
	}
}

func TestTwoChoiceRaisesSpaceUtilisation(t *testing.T) {
	// The §4.4 claim: two hash functions raise utilisation. Fill both
	// variants to failure and compare.
	fill := func(two bool) float64 {
		mem := native.New(16 << 20)
		tab := mustCreate(t, mem, Options{Cells: 4096, GroupSize: 64, Seed: 9, TwoChoice: two})
		var n uint64
		for i := uint64(1); ; i++ {
			if tab.Insert(layout.Key{Lo: i * 2654435761}, i) != nil {
				break
			}
			n++
		}
		return float64(n) / float64(tab.Capacity())
	}
	one := fill(false)
	two := fill(true)
	if two <= one {
		t.Fatalf("two-choice utilisation %.3f not above single-choice %.3f", two, one)
	}
}

func TestTwoChoiceSurvivesReopen(t *testing.T) {
	mem := simMem(91)
	tab := mustCreate(t, mem, Options{Cells: 256, GroupSize: 16, Seed: 6, TwoChoice: true})
	hdr := tab.Header()
	for i := uint64(1); i <= 150; i++ {
		tab.Insert(layout.Key{Lo: i}, i)
	}
	mem.CleanShutdown()
	re, err := Open(mem, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if !re.two {
		t.Fatal("two-choice flag lost across reopen")
	}
	for i := uint64(1); i <= 150; i++ {
		if v, ok := re.Lookup(layout.Key{Lo: i}); !ok || v != i {
			t.Fatalf("reopened key %d = (%d, %v)", i, v, ok)
		}
	}
}

func TestTwoChoiceCrashRecovery(t *testing.T) {
	mem := simMem(92)
	tab := mustCreate(t, mem, Options{Cells: 512, GroupSize: 32, Seed: 13, TwoChoice: true})
	for i := uint64(1); i <= 300; i++ {
		if err := tab.Insert(layout.Key{Lo: i}, i); err != nil {
			t.Fatal(err)
		}
	}
	mem.Crash(0.5)
	if _, err := tab.Recover(); err != nil {
		t.Fatal(err)
	}
	if bad := tab.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("inconsistencies: %v", bad)
	}
	for i := uint64(1); i <= 300; i++ {
		if v, ok := tab.Lookup(layout.Key{Lo: i}); !ok || v != i {
			t.Fatalf("committed key %d lost: (%d, %v)", i, v, ok)
		}
	}
}

func TestTwoChoiceExpand(t *testing.T) {
	mem := native.New(32 << 20)
	tab := mustCreate(t, mem, Options{Cells: 128, GroupSize: 16, Seed: 2, TwoChoice: true})
	for i := uint64(1); i <= 400; i++ {
		if err := tab.InsertAutoExpand(layout.Key{Lo: i}, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 400; i++ {
		if _, ok := tab.Lookup(layout.Key{Lo: i}); !ok {
			t.Fatalf("key %d lost across expansion", i)
		}
	}
	if bad := tab.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("inconsistencies: %v", bad)
	}
}

func TestTwoChoiceConcurrentRejected(t *testing.T) {
	mem := native.New(1 << 20)
	tab := mustCreate(t, mem, Options{Cells: 128, GroupSize: 16, TwoChoice: true})
	defer func() {
		if recover() == nil {
			t.Fatal("NewConcurrent must reject two-choice tables")
		}
	}()
	NewConcurrent(tab, 0)
}
