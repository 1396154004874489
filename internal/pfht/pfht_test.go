package pfht

import (
	"math/rand"
	"testing"

	"grouphash/internal/cache"
	"grouphash/internal/layout"
	"grouphash/internal/memsim"
	"grouphash/internal/native"
)

func simMem(seed int64) *memsim.Memory {
	return memsim.New(memsim.Config{Size: 8 << 20, Seed: seed, Geoms: cache.SmallGeometry()})
}

func TestValidation(t *testing.T) {
	mem := native.New(1 << 20)
	for _, f := range []func(){
		func() { New(mem, Options{Cells: 0}) },
		func() { New(mem, Options{Cells: 100}) },
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

func TestBasicOps(t *testing.T) {
	for _, logged := range []bool{false, true} {
		mem := simMem(2)
		tab := New(mem, Options{Cells: 1024, Logged: logged, Seed: 1})
		wantName := "pfht"
		if logged {
			wantName = "pfht-L"
		}
		if tab.Name() != wantName {
			t.Fatalf("Name = %q", tab.Name())
		}
		for i := uint64(1); i <= 700; i++ {
			if err := tab.Insert(layout.Key{Lo: i}, i+5); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
		if tab.Len() != 700 {
			t.Fatalf("Len = %d", tab.Len())
		}
		for i := uint64(1); i <= 700; i++ {
			if v, ok := tab.Lookup(layout.Key{Lo: i}); !ok || v != i+5 {
				t.Fatalf("lookup %d = (%d, %v)", i, v, ok)
			}
		}
		if _, ok := tab.Lookup(layout.Key{Lo: 99999}); ok {
			t.Fatal("phantom key")
		}
		for i := uint64(1); i <= 700; i += 2 {
			if !tab.Delete(layout.Key{Lo: i}) {
				t.Fatalf("delete %d", i)
			}
		}
		for i := uint64(1); i <= 700; i++ {
			_, ok := tab.Lookup(layout.Key{Lo: i})
			if want := i%2 == 0; ok != want {
				t.Fatalf("key %d presence %v, want %v", i, ok, want)
			}
		}
	}
}

func TestCapacityIncludesStash(t *testing.T) {
	mem := native.New(1 << 20)
	tab := New(mem, Options{Cells: 1024})
	cells := 1024.0
	wantStash := uint64(cells * StashFraction)
	if tab.Capacity() != 1024+wantStash {
		t.Fatalf("capacity = %d, want %d", tab.Capacity(), 1024+wantStash)
	}
}

func TestStashAbsorbsOverflow(t *testing.T) {
	// Drive the table hard enough that some items must land in the
	// stash, then verify they are found and deletable.
	mem := native.New(16 << 20)
	tab := New(mem, Options{Cells: 256, Seed: 3})
	inserted := make([]layout.Key, 0, 300)
	for i := uint64(1); len(inserted) < 240; i++ {
		k := layout.Key{Lo: i}
		if err := tab.Insert(k, i); err != nil {
			break
		}
		inserted = append(inserted, k)
	}
	if tab.stashed.Get() == 0 {
		t.Fatal("expected stash usage at ~94% fill of a 4-slot-bucket table")
	}
	for _, k := range inserted {
		if v, ok := tab.Lookup(k); !ok || v != k.Lo {
			t.Fatalf("item %d missing (stash search broken?): (%d, %v)", k.Lo, v, ok)
		}
	}
	// Delete the stash residents specifically.
	before := tab.stashed.Get()
	removed := uint64(0)
	for i := uint64(0); i < tab.stash.N; i++ {
		if tab.stash.Occupied(i) {
			k := tab.stash.Key(i)
			if !tab.Delete(k) {
				t.Fatalf("stash delete of %d failed", k.Lo)
			}
			removed++
		}
	}
	if tab.stashed.Get() != before-removed {
		t.Fatalf("stash count %d, want %d", tab.stashed.Get(), before-removed)
	}
}

func TestDisplacementMovesAtMostOneItem(t *testing.T) {
	// Whenever both buckets are full, the insert may relocate exactly
	// one existing item. We verify no item ever ends up outside its two
	// buckets or the stash (i.e. no cascading cuckoo chains).
	mem := native.New(16 << 20)
	tab := New(mem, Options{Cells: 512, Seed: 7})
	var keys []layout.Key
	for i := uint64(1); i <= 450; i++ {
		k := layout.Key{Lo: i}
		if err := tab.Insert(k, i); err != nil {
			break
		}
		keys = append(keys, k)
	}
	for _, k := range keys {
		b1 := tab.h1.Index(k.Lo, 0)
		b2 := tab.h2.Index(k.Lo, 0)
		found := false
		for s := 0; s < BucketSize; s++ {
			if tab.cells.Matches(bucketCell(b1, s), k) || tab.cells.Matches(bucketCell(b2, s), k) {
				found = true
			}
		}
		if !found {
			for i := uint64(0); i < tab.stash.N; i++ {
				if tab.stash.Matches(i, k) {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("key %d is neither in its buckets nor the stash", k.Lo)
		}
	}
}

func TestOracleFuzz(t *testing.T) {
	mem := native.New(32 << 20)
	tab := New(mem, Options{Cells: 2048, Seed: 11})
	oracle := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(23))
	for op := 0; op < 30000; op++ {
		key := uint64(rng.Intn(1500)) + 1
		k := layout.Key{Lo: key}
		switch rng.Intn(3) {
		case 0:
			if _, exists := oracle[key]; !exists {
				if err := tab.Insert(k, key*3); err == nil {
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
			ok := tab.Delete(k)
			if _, ook := oracle[key]; ok != ook {
				t.Fatalf("op %d: delete(%d) = %v, oracle %v", op, key, ok, ook)
			}
			delete(oracle, key)
		}
	}
	if tab.Len() != uint64(len(oracle)) {
		t.Fatalf("Len = %d, oracle %d", tab.Len(), len(oracle))
	}
}

func TestLoggedRecoveryRollsBackMidDisplacement(t *testing.T) {
	mem := simMem(41)
	tab := New(mem, Options{Cells: 64, Logged: true, Seed: 1})
	for i := uint64(1); i <= 40; i++ {
		tab.Insert(layout.Key{Lo: i}, i)
	}
	mem.CleanShutdown()
	preLen := tab.Len()

	// Hand-drive half a displacement: log and overwrite one cell with
	// garbage, no commit, crash.
	meta, k, v := tab.cells.Snapshot(3)
	tab.log.LogCell(tab.cells.Addr(3), meta, k, v)
	tab.cells.WritePayload(3, layout.Key{Lo: 4242}, 4242)
	tab.cells.PersistPayload(3)
	tab.cells.CommitOccupied(3, layout.Key{Lo: 4242})
	mem.Crash(0.5)

	rep, err := tab.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.UndoneOps != 1 {
		t.Fatalf("UndoneOps = %d", rep.UndoneOps)
	}
	if tab.Len() != preLen {
		t.Fatalf("Len = %d, want %d", tab.Len(), preLen)
	}
	for i := uint64(1); i <= 40; i++ {
		if got, ok := tab.Lookup(layout.Key{Lo: i}); !ok || got != i {
			t.Fatalf("key %d after rollback: (%d, %v)", i, got, ok)
		}
	}
	if _, ok := tab.Lookup(layout.Key{Lo: 4242}); ok {
		t.Fatal("garbage item visible after rollback")
	}
}

func TestRecoveryScrubsAndRecounts(t *testing.T) {
	mem := simMem(42)
	tab := New(mem, Options{Cells: 256, Seed: 2})
	for i := uint64(1); i <= 100; i++ {
		tab.Insert(layout.Key{Lo: i}, i)
	}
	mem.CleanShutdown()
	// Torn insert: payload without meta.
	var victim uint64
	for i := uint64(0); i < tab.cells.N; i++ {
		if !tab.cells.Occupied(i) {
			victim = i
			break
		}
	}
	tab.cells.WritePayload(victim, layout.Key{Lo: 7777}, 1)
	mem.Crash(0.5)

	rep, err := tab.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !tab.cells.PayloadZero(victim) {
		t.Fatalf("torn payload not scrubbed (report %+v)", rep)
	}
	if tab.Len() != 100 {
		t.Fatalf("count = %d", tab.Len())
	}
}

func TestUpdateInPlaceIncludingStash(t *testing.T) {
	mem := native.New(16 << 20)
	tab := New(mem, Options{Cells: 256, Seed: 3})
	// Fill hard so the stash is used, then update every item.
	var keys []layout.Key
	for i := uint64(1); i <= 240; i++ {
		k := layout.Key{Lo: i}
		if tab.Insert(k, i) != nil {
			break
		}
		keys = append(keys, k)
	}
	if tab.stashed.Get() == 0 {
		t.Fatal("expected stash usage")
	}
	for _, k := range keys {
		if !tab.Update(k, k.Lo+1000) {
			t.Fatalf("update of %d failed", k.Lo)
		}
	}
	for _, k := range keys {
		if v, _ := tab.Lookup(k); v != k.Lo+1000 {
			t.Fatalf("value of %d = %d", k.Lo, v)
		}
	}
	if tab.Update(layout.Key{Lo: 99999}, 1) {
		t.Fatal("updated an absent key")
	}
}
