package wal

import (
	"testing"

	"grouphash/internal/cache"
	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
	"grouphash/internal/memsim"
)

func setup(seed int64) (*memsim.Memory, *Log, hashtab.Cells) {
	mem := memsim.New(memsim.Config{Size: 1 << 20, Seed: seed, Geoms: cache.SmallGeometry()})
	l := layout.ForKeySize(8)
	cells := hashtab.NewCells(mem, l, 64)
	g := New(mem, l)
	return mem, g, cells
}

func TestCommitClearsInFlight(t *testing.T) {
	_, g, cells := setup(1)
	if g.count() != 0 {
		t.Fatal("fresh log has in-flight op")
	}
	meta, k, v := cells.Snapshot(0)
	g.LogCell(cells.Addr(0), meta, k, v)
	if g.count() == 0 {
		t.Fatal("logged entry not visible")
	}
	g.Commit()
	if g.count() != 0 {
		t.Fatal("commit did not clear the log")
	}
}

func TestRecoverNoopWhenClean(t *testing.T) {
	_, g, _ := setup(2)
	if n := g.Recover(); n != 0 {
		t.Fatalf("clean recover undid %d entries", n)
	}
}

func TestRecoverRestoresPreImage(t *testing.T) {
	mem, g, cells := setup(3)
	k := layout.Key{Lo: 10}
	cells.InsertAt(5, k, 111)
	mem.CleanShutdown()

	// Begin a mutation: log the pre-image, then trash the cell, then
	// crash before commit.
	meta, gk, gv := cells.Snapshot(5)
	g.LogCell(cells.Addr(5), meta, gk, gv)
	cells.WritePayload(5, layout.Key{Lo: 99}, 999)
	cells.PersistPayload(5)
	cells.CommitOccupied(5, layout.Key{Lo: 99})
	mem.Crash(0.5)

	if n := g.Recover(); n != 1 {
		t.Fatalf("recover undid %d entries, want 1", n)
	}
	if !cells.Matches(5, k) || cells.Value(5) != 111 {
		t.Fatal("pre-image not restored")
	}
	if g.count() != 0 {
		t.Fatal("log still in flight after recovery")
	}
}

func TestRecoverMultiCellNewestFirst(t *testing.T) {
	mem, g, cells := setup(4)
	// A shift-style op touching cells 1 and 2.
	cells.InsertAt(1, layout.Key{Lo: 1}, 11)
	cells.InsertAt(2, layout.Key{Lo: 2}, 22)
	mem.CleanShutdown()

	m1, k1, v1 := cells.Snapshot(1)
	g.LogCell(cells.Addr(1), m1, k1, v1)
	cells.WritePayload(1, layout.Key{Lo: 7}, 77)
	cells.PersistPayload(1)
	cells.CommitOccupied(1, layout.Key{Lo: 7})

	m2, k2, v2 := cells.Snapshot(2)
	g.LogCell(cells.Addr(2), m2, k2, v2)
	cells.DeleteAt(2)

	mem.Crash(0.5)
	if n := g.Recover(); n != 2 {
		t.Fatalf("recover undid %d entries, want 2", n)
	}
	if !cells.Matches(1, layout.Key{Lo: 1}) || cells.Value(1) != 11 {
		t.Fatal("cell 1 not restored")
	}
	if !cells.Matches(2, layout.Key{Lo: 2}) || cells.Value(2) != 22 {
		t.Fatal("cell 2 not restored")
	}
}

func TestUncommittedCountWordIsRecoverable(t *testing.T) {
	// A crash BEFORE the entry-count bump must leave the log clean:
	// the mutation had not started.
	mem, g, cells := setup(5)
	meta, k, v := cells.Snapshot(0)
	_ = meta
	_ = k
	_ = v
	_ = cells
	mem.Crash(0.0)
	if g.count() != 0 {
		t.Fatal("log in flight without any published entry")
	}
}

func TestLoggingCostsExtraPersists(t *testing.T) {
	// The point of the paper's Figure 2: a logged mutation performs
	// strictly more flushes than an unlogged one.
	mem, g, cells := setup(6)
	k := layout.Key{Lo: 3}

	c0 := mem.Counters()
	cells.InsertAt(10, k, 1)
	unlogged := mem.Counters().Sub(c0)

	c1 := mem.Counters()
	meta, gk, gv := cells.Snapshot(11)
	g.LogCell(cells.Addr(11), meta, gk, gv)
	cells.InsertAt(11, k, 1)
	g.Commit()
	logged := mem.Counters().Sub(c1)

	if logged.Flushes <= unlogged.Flushes {
		t.Fatalf("logged flushes (%d) not greater than unlogged (%d)", logged.Flushes, unlogged.Flushes)
	}
	if logged.Fences <= unlogged.Fences {
		t.Fatalf("logged fences (%d) not greater than unlogged (%d)", logged.Fences, unlogged.Fences)
	}
}

func TestLogOverflowPanics(t *testing.T) {
	mem, g, cells := setup(7)
	_ = mem
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	meta, k, v := cells.Snapshot(0)
	for i := 0; i <= MaxEntries; i++ {
		g.LogCell(cells.Addr(0), meta, k, v)
	}
}
