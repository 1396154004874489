package server

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"grouphash"
	"grouphash/internal/layout"
	"grouphash/internal/oplog"
	"grouphash/internal/wire"
)

// TestServeBatchFrame pins the explicit OpBatch frame contract over a
// live oplog-backed server: positional sub-responses, in-order effects
// (a get inside the frame observes the frame's earlier mutations),
// per-sub-op statuses, StatusBadRequest for the sub-ops the packed
// format cannot answer, and the all-or-nothing durable ack.
func TestServeBatchFrame(t *testing.T) {
	lg, err := oplog.OpenConfig(filepath.Join(t.TempDir(), "oplog"), 1, oplog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, addr := startServer(t, grouphash.Options{Capacity: 1 << 12}, Config{Oplog: lg})
	c := dial(t, addr)

	subs := []wire.Request{
		{Op: wire.OpPut, Key: layout.Key{Lo: 1}, Value: 10},
		{Op: wire.OpInsert, Key: layout.Key{Lo: 2}, Value: 20},
		{Op: wire.OpGet, Key: layout.Key{Lo: 1}}, // must see sub-op 0
		{Op: wire.OpPut, Key: layout.Key{Lo: 1}, Value: 11},
		{Op: wire.OpGet, Key: layout.Key{Lo: 1}},    // must see sub-op 3
		{Op: wire.OpDelete, Key: layout.Key{Lo: 9}}, // absent
		{Op: wire.OpDelete, Key: layout.Key{Lo: 2}},
		{Op: wire.OpPut, Key: layout.Key{}, Value: 1}, // invalid zero key
		{Op: wire.OpStats}, // not batchable
		{Op: wire.OpBatch}, // nested batch
		{Op: wire.OpLen},
		{Op: wire.OpPing},
	}
	resps, err := c.DoBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		wire.StatusOK, wire.StatusOK, wire.StatusOK, wire.StatusOK,
		wire.StatusOK, wire.StatusNotFound, wire.StatusOK,
		wire.StatusInvalidKey, wire.StatusBadRequest, wire.StatusBadRequest,
		wire.StatusOK, wire.StatusOK,
	}
	for i, w := range want {
		if resps[i].Status != w {
			t.Errorf("sub-op %d status = %d, want %d", i, resps[i].Status, w)
		}
	}
	if resps[2].Value != 10 {
		t.Errorf("get inside frame = %d, want 10 (did not observe earlier sub-op)", resps[2].Value)
	}
	if resps[4].Value != 11 {
		t.Errorf("get after in-frame overwrite = %d, want 11", resps[4].Value)
	}
	if resps[10].Value != 1 { // key 1 present, key 2 deleted
		t.Errorf("len inside frame = %d, want 1", resps[10].Value)
	}
	// The frame was acked, so every logged sub-op must already be
	// durable (all-or-nothing release on the frame's highest LSN).
	if d, last := lg.DurableLSN(), lg.LastLSN(); d < last {
		t.Errorf("batch frame acked with durable LSN %d < last LSN %d", d, last)
	}
	if m := s.Stats(); m.BadRequest != 2 || m.InvalidKey != 1 {
		t.Errorf("counters after batch frame = %+v", m)
	}
	if s.batchFrameSize.Snapshot().Count != 1 {
		t.Error("gh_server_batch_size{source=frame} did not observe the frame")
	}
}

// TestServeBatchSplitAndClientHelpers drives a batch larger than one
// frame can carry (the client splits at wire.MaxBatchOps) and the
// typed helpers: PutBatch → MGet → InsertBatch round trip.
func TestServeBatchSplitAndClientHelpers(t *testing.T) {
	_, addr := startServer(t, grouphash.Options{Capacity: 1 << 14}, Config{})
	c := dial(t, addr)

	n := wire.MaxBatchOps + 100 // forces two frames
	keys := make([]layout.Key, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = layout.Key{Lo: uint64(i + 1)}
		vals[i] = uint64(2 * (i + 1))
	}
	if err := c.PutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	got, found, err := c.MGet(append(keys, layout.Key{Lo: 1 << 40}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || got[i] != vals[i] {
			t.Fatalf("MGet[%d] = (%d, %v), want (%d, true)", i, got[i], found[i], vals[i])
		}
	}
	if found[n] {
		t.Fatal("MGet found a key never written")
	}
	if err := c.InsertBatch([]layout.Key{{Lo: 1 << 41}}, []uint64{7}); err != nil {
		t.Fatal(err)
	}
	if ln, err := c.Len(); err != nil || ln != uint64(n+1) {
		t.Fatalf("Len = (%d, %v), want %d", ln, err, n+1)
	}
}

// TestServeCoalescedAmortisation proves the transparent half of the
// tentpole at the wire: a pipelined burst of SINGLE-op puts reaches
// the oplog in far fewer AppendBatch calls than operations, because the
// reader coalesces consecutive mutations through the stripe-grouped
// batch apply. Correctness of the burst is checked item by item.
func TestServeCoalescedAmortisation(t *testing.T) {
	lg, err := oplog.OpenConfig(filepath.Join(t.TempDir(), "oplog"), 1, oplog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, addr := startServer(t, grouphash.Options{Capacity: 1 << 14}, Config{Oplog: lg})
	c := dial(t, addr)

	const n = 4000
	reqs := make([]wire.Request, n)
	for i := range reqs {
		reqs[i] = wire.Request{Op: wire.OpPut, Key: layout.Key{Lo: uint64(i + 1)}, Value: uint64(i)}
	}
	before := lg.Appends()
	resps, err := c.Do(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resps {
		if resps[i].Status != wire.StatusOK {
			t.Fatalf("put %d status %d", i, resps[i].Status)
		}
	}
	appends := lg.Appends() - before
	if appends == 0 {
		t.Fatal("no oplog appends for 4000 acked puts")
	}
	// The burst arrives in large TCP segments, so runs should span many
	// ops; even fragmented arrival with 8 stripes per run leaves a wide
	// margin below n/4. (A per-op append regression lands at ~n.)
	if appends > n/4 {
		t.Errorf("coalescing broken: %d oplog appends for %d pipelined puts", appends, n)
	}
	if s.coalesceSize.Snapshot().Count == 0 {
		t.Error("gh_server_batch_size{source=coalesced} observed nothing")
	}
	// Read-after-write across the coalescing boundary.
	mixed := []wire.Request{
		{Op: wire.OpPut, Key: layout.Key{Lo: 5}, Value: 555},
		{Op: wire.OpGet, Key: layout.Key{Lo: 5}},
		{Op: wire.OpDelete, Key: layout.Key{Lo: 5}},
		{Op: wire.OpGet, Key: layout.Key{Lo: 5}},
	}
	resps, err = c.Do(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if resps[1].Status != wire.StatusOK || resps[1].Value != 555 {
		t.Fatalf("get after coalesced put = %+v", resps[1])
	}
	if resps[3].Status != wire.StatusNotFound {
		t.Fatalf("get after coalesced delete = %+v", resps[3])
	}
}

// TestServeBatchConcurrent is the pool/race regression: many
// connections mixing explicit batch frames, pipelined singles, and
// reads, all racing the pooled completion-queue chunks and
// batch-response buffers (run under -race in CI). Every connection
// owns a disjoint key range so results are exactly checkable.
func TestServeBatchConcurrent(t *testing.T) {
	lg, err := oplog.OpenConfig(filepath.Join(t.TempDir(), "oplog"), 1,
		oplog.Config{SyncEvery: 100 * time.Microsecond, SyncBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, grouphash.Options{Capacity: 1 << 14}, Config{Oplog: lg})

	const workers = 8
	const perWorker = 300
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dial(t, addr)
			base := uint64(w+1) << 32
			keys := make([]layout.Key, perWorker)
			vals := make([]uint64, perWorker)
			for i := range keys {
				keys[i] = layout.Key{Lo: base + uint64(i)}
				vals[i] = uint64(w*perWorker + i)
			}
			// Explicit batch frame for the first half, pipelined singles
			// for the second: both paths under contention.
			half := perWorker / 2
			if err := c.PutBatch(keys[:half], vals[:half]); err != nil {
				errs <- err
				return
			}
			reqs := make([]wire.Request, 0, perWorker-half)
			for i := half; i < perWorker; i++ {
				reqs = append(reqs, wire.Request{Op: wire.OpPut, Key: keys[i], Value: vals[i]})
			}
			if _, err := c.Do(reqs); err != nil {
				errs <- err
				return
			}
			got, found, err := c.MGet(keys)
			if err != nil {
				errs <- err
				return
			}
			for i := range keys {
				if !found[i] || got[i] != vals[i] {
					t.Errorf("worker %d key %d = (%d, %v), want (%d, true)", w, i, got[i], found[i], vals[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
