package oplog

import (
	"testing"

	"grouphash/internal/core"
	"grouphash/internal/layout"
)

// TestAppendBatch pins the batch staging contract: one call stages N
// records under one buffer-lock acquisition, assigns strictly
// sequential LSNs starting at the returned first, interleaves correctly
// with one-record batches, and replays in exactly append order.
func TestAppendBatch(t *testing.T) {
	b := base(t)
	l, err := OpenConfig(b, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.AppendBatch(nil); got != 0 {
		t.Fatalf("empty AppendBatch returned %d, want 0", got)
	}
	if got := l.Appends(); got != 0 {
		t.Fatalf("empty AppendBatch counted as an append (%d)", got)
	}

	if lsn := appendOne(l, core.BatchPut, layout.Key{Lo: 1}, 10); lsn != 1 {
		t.Fatalf("one-record batch LSN %d, want 1", lsn)
	}
	recs := []Record{
		{BatchOp: core.BatchOp{Kind: core.BatchInsert, Key: layout.Key{Lo: 2}, Value: 20}},
		{BatchOp: core.BatchOp{Kind: core.BatchPut, Key: layout.Key{Lo: 3}, Value: 30}},
		{BatchOp: core.BatchOp{Kind: core.BatchDelete, Key: layout.Key{Lo: 4}}},
	}
	first := l.AppendBatch(recs)
	if first != 2 {
		t.Fatalf("AppendBatch first LSN %d, want 2", first)
	}
	for i, r := range recs {
		if r.LSN != first+uint64(i) {
			t.Fatalf("recs[%d].LSN = %d, want %d", i, r.LSN, first+uint64(i))
		}
	}
	if lsn := appendOne(l, core.BatchPut, layout.Key{Lo: 5}, 50); lsn != 5 {
		t.Fatalf("post-batch one-record LSN %d, want 5", lsn)
	}
	if got := l.Appends(); got != 3 {
		t.Fatalf("Appends() = %d, want 3 (two one-record batches + one batch)", got)
	}

	if err := l.WaitDurable(5); err != nil {
		t.Fatal(err)
	}
	if l.DurableLSN() != 5 {
		t.Fatalf("durable %d after WaitDurable(5)", l.DurableLSN())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	replayed, next := collect(t, b, 0)
	if len(replayed) != 5 || next != 6 {
		t.Fatalf("replayed %d records, next=%d", len(replayed), next)
	}
	wantKinds := []core.BatchKind{core.BatchPut, core.BatchInsert, core.BatchPut, core.BatchDelete, core.BatchPut}
	wantLo := []uint64{1, 2, 3, 4, 5}
	for i, r := range replayed {
		if r.LSN != uint64(i+1) || r.Kind != wantKinds[i] || r.Key.Lo != wantLo[i] {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

// TestAppendBatchAdaptive checks a batch staged into an empty buffer
// opens a commit window (the kick fires) and WaitDurable releases every
// record of the batch.
func TestAppendBatchAdaptive(t *testing.T) {
	b := base(t)
	l, err := OpenConfig(b, 1, Config{SyncEvery: 100_000, SyncBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, 64)
	for i := range recs {
		recs[i] = Record{BatchOp: core.BatchOp{Kind: core.BatchPut, Key: layout.Key{Lo: uint64(i + 1)}, Value: uint64(i)}}
	}
	first := l.AppendBatch(recs)
	if first != 1 {
		t.Fatalf("first LSN %d, want 1", first)
	}
	if err := l.WaitDurable(first + uint64(len(recs)) - 1); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableLSN(); got < 64 {
		t.Fatalf("durable %d after WaitDurable(64)", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, _ := collect(t, b, 0)
	if len(replayed) != 64 {
		t.Fatalf("replayed %d records, want 64", len(replayed))
	}
}
