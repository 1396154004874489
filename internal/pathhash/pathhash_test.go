package pathhash

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

func TestLevelSizing(t *testing.T) {
	mem := native.New(4 << 20)
	tab := New(mem, Options{Cells: 1024, Levels: 4})
	if len(tab.levels) != 4 {
		t.Fatalf("levels = %d", len(tab.levels))
	}
	want := uint64(1024 + 512 + 256 + 128)
	if tab.Capacity() != want {
		t.Fatalf("capacity = %d, want %d", tab.Capacity(), want)
	}
}

func TestLevelsClampedToTreeHeight(t *testing.T) {
	mem := native.New(1 << 20)
	tab := New(mem, Options{Cells: 8, Levels: 20})
	if len(tab.levels) != 4 { // 8, 4, 2, 1
		t.Fatalf("levels = %d, want 4", len(tab.levels))
	}
}

func TestDefaultLevels(t *testing.T) {
	mem := native.New(64 << 20)
	tab := New(mem, Options{Cells: 1 << 20})
	if len(tab.levels) != DefaultLevels {
		t.Fatalf("levels = %d, want %d", len(tab.levels), DefaultLevels)
	}
}

func TestBasicOps(t *testing.T) {
	for _, logged := range []bool{false, true} {
		mem := simMem(3)
		tab := New(mem, Options{Cells: 1024, Levels: 8, Logged: logged, Seed: 1})
		wantName := "path"
		if logged {
			wantName = "path-L"
		}
		if tab.Name() != wantName {
			t.Fatalf("Name = %q", tab.Name())
		}
		for i := uint64(1); i <= 900; i++ {
			if err := tab.Insert(layout.Key{Lo: i}, i*7); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
		if tab.Len() != 900 {
			t.Fatalf("Len = %d", tab.Len())
		}
		for i := uint64(1); i <= 900; i++ {
			if v, ok := tab.Lookup(layout.Key{Lo: i}); !ok || v != i*7 {
				t.Fatalf("lookup %d = (%d, %v)", i, v, ok)
			}
		}
		if _, ok := tab.Lookup(layout.Key{Lo: 123456}); ok {
			t.Fatal("phantom key")
		}
		for i := uint64(1); i <= 900; i += 2 {
			if !tab.Delete(layout.Key{Lo: i}) {
				t.Fatalf("delete %d", i)
			}
		}
		for i := uint64(1); i <= 900; i++ {
			_, ok := tab.Lookup(layout.Key{Lo: i})
			if want := i%2 == 0; ok != want {
				t.Fatalf("key %d presence %v, want %v", i, ok, want)
			}
		}
	}
}

func TestPositionSharing(t *testing.T) {
	// Two top-level positions that are tree siblings share their
	// level-1 cell: position p at level d is p>>d.
	mem := native.New(1 << 20)
	tab := New(mem, Options{Cells: 16, Levels: 3, Seed: 1})
	c0, i0 := tab.pathCell(6, 1)
	c1, i1 := tab.pathCell(7, 1)
	if c0.Base != c1.Base || i0 != i1 {
		t.Fatal("siblings 6 and 7 do not share their level-1 parent")
	}
	c2, i2 := tab.pathCell(5, 1)
	if i2 == i0 {
		t.Fatal("non-siblings share a parent")
	}
	_ = c2
}

func TestPathOverflowReturnsFull(t *testing.T) {
	// A 1-level table degenerates to plain 2-choice hashing: both root
	// cells occupied means full for that key.
	mem := native.New(1 << 20)
	tab := New(mem, Options{Cells: 4, Levels: 1, Seed: 1})
	var err error
	for i := uint64(1); i < 100; i++ {
		if err = tab.Insert(layout.Key{Lo: i}, i); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("tiny table never filled")
	}
}

func TestHigherLoadFactorThanGroupHashing(t *testing.T) {
	// The paper's Figure 7: path hashing reaches ~95% utilisation.
	mem := native.New(32 << 20)
	tab := New(mem, Options{Cells: 4096, Levels: 12, Seed: 5})
	var inserted uint64
	for i := uint64(1); ; i++ {
		if err := tab.Insert(layout.Key{Lo: i}, i); err != nil {
			break
		}
		inserted++
	}
	lf := float64(inserted) / float64(tab.Capacity())
	if lf < 0.90 {
		t.Fatalf("path hashing utilisation = %.3f, expected > 0.90", lf)
	}
}

func TestOracleFuzz(t *testing.T) {
	mem := native.New(32 << 20)
	tab := New(mem, Options{Cells: 2048, Levels: 10, Seed: 13})
	oracle := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(29))
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

func TestLoggedRecoveryRollsBack(t *testing.T) {
	mem := simMem(51)
	tab := New(mem, Options{Cells: 256, Levels: 6, Logged: true, Seed: 2})
	for i := uint64(1); i <= 80; i++ {
		tab.Insert(layout.Key{Lo: i}, i)
	}
	mem.CleanShutdown()

	// Half-finished mutation of a top-level cell.
	c := tab.levels[0]
	meta, k, v := c.Snapshot(9)
	tab.log.LogCell(c.Addr(9), meta, k, v)
	c.WritePayload(9, layout.Key{Lo: 31337}, 1)
	c.PersistPayload(9)
	c.CommitOccupied(9, layout.Key{Lo: 31337})
	mem.Crash(0.5)

	rep, err := tab.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.UndoneOps != 1 {
		t.Fatalf("UndoneOps = %d", rep.UndoneOps)
	}
	for i := uint64(1); i <= 80; i++ {
		if got, ok := tab.Lookup(layout.Key{Lo: i}); !ok || got != i {
			t.Fatalf("key %d after rollback: (%d, %v)", i, got, ok)
		}
	}
	if _, ok := tab.Lookup(layout.Key{Lo: 31337}); ok {
		t.Fatal("garbage visible after rollback")
	}
	if tab.Len() != 80 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

func TestRecoveryScrubsTornInsert(t *testing.T) {
	mem := simMem(52)
	tab := New(mem, Options{Cells: 256, Levels: 6, Seed: 3})
	for i := uint64(1); i <= 50; i++ {
		tab.Insert(layout.Key{Lo: i}, i)
	}
	mem.CleanShutdown()
	var c = tab.levels[2]
	var victim uint64
	found := false
	for i := uint64(0); i < c.N; i++ {
		if !c.Occupied(i) {
			victim, found = i, true
			break
		}
	}
	if !found {
		t.Skip("level 2 unexpectedly full")
	}
	c.WritePayload(victim, layout.Key{Lo: 4040}, 4)
	mem.Crash(0.5)
	if _, err := tab.Recover(); err != nil {
		t.Fatal(err)
	}
	if !c.PayloadZero(victim) {
		t.Fatal("torn payload not scrubbed")
	}
	if tab.Len() != 50 {
		t.Fatalf("count = %d", tab.Len())
	}
}

func TestUpdateInPlace(t *testing.T) {
	mem := native.New(4 << 20)
	tab := New(mem, Options{Cells: 256, Levels: 6, Seed: 4})
	for i := uint64(1); i <= 200; i++ {
		tab.Insert(layout.Key{Lo: i}, i)
	}
	for i := uint64(1); i <= 200; i++ {
		if !tab.Update(layout.Key{Lo: i}, i*9) {
			t.Fatalf("update %d failed", i)
		}
	}
	for i := uint64(1); i <= 200; i++ {
		if v, _ := tab.Lookup(layout.Key{Lo: i}); v != i*9 {
			t.Fatalf("value of %d = %d", i, v)
		}
	}
	if tab.Update(layout.Key{Lo: 5555}, 1) {
		t.Fatal("updated an absent key")
	}
	if tab.Len() != 200 {
		t.Fatal("update changed the count")
	}
}
