package oplog

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"grouphash/internal/core"
	"grouphash/internal/layout"
)

// recorder is an Applier that keeps a copy of every batch it is handed
// and fails the op whose key is failKey.
type recorder struct {
	batches [][]core.BatchOp
	failKey uint64
}

func (r *recorder) ApplyBatch(ops []core.BatchOp, out []core.BatchResult, _ *core.BatchScratch, _ func([]int)) {
	r.batches = append(r.batches, append([]core.BatchOp(nil), ops...))
	for i := range ops {
		out[i] = core.BatchResult{}
		if ops[i].Key.Lo == r.failKey {
			out[i].Err = errors.New("refused")
		}
	}
}

// TestReplayBatches pins Replay's shape: records past after reach the
// applier in log order, in batches of 256, each op the one its record
// logged; the first failed op names its LSN.
func TestReplayBatches(t *testing.T) {
	b := base(t)
	l, err := OpenConfig(b, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	kinds := []core.BatchKind{core.BatchPut, core.BatchInsert, core.BatchDelete}
	recs := make([]Record, 600)
	for i := range recs {
		recs[i] = Record{BatchOp: core.BatchOp{Kind: kinds[i%3], Key: layout.Key{Lo: uint64(i + 1)}, Value: uint64(i)}}
	}
	if err := l.WaitDurable(l.AppendBatch(recs) + 599); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var r recorder
	applied, next, err := Replay(&r, b, 40)
	if err != nil || applied != 560 || next != 601 {
		t.Fatalf("Replay after 40 = (%d, %d, %v), want (560, 601, nil)", applied, next, err)
	}
	var sizes []int
	lsn := uint64(41)
	for _, batch := range r.batches {
		sizes = append(sizes, len(batch))
		for _, op := range batch {
			if op.Key.Lo != lsn || op.Kind != kinds[(lsn-1)%3] || op.Value != lsn-1 {
				t.Fatalf("op %+v at LSN %d, want key %d kind %d", op, lsn, lsn, kinds[(lsn-1)%3])
			}
			lsn++
		}
	}
	if len(sizes) != 3 || sizes[0] != 256 || sizes[1] != 256 || sizes[2] != 48 {
		t.Fatalf("batch sizes %v, want [256 256 48]", sizes)
	}

	applied, _, err = Replay(&recorder{failKey: 300}, b, 0)
	if err == nil || !strings.Contains(err.Error(), "record 300") || applied != 256 {
		t.Fatalf("Replay with record 300 refused = (%d, %v), want 256 applied and an error naming record 300", applied, err)
	}

	applied, next, err = Replay(&recorder{}, b, 900)
	if err != nil || applied != 0 || next != 901 {
		t.Fatalf("Replay after 900 = (%d, %d, %v), want (0, 901, nil)", applied, next, err)
	}
}

// writeRecords logs recs at base as LSNs 1..len(recs), durably.
func writeRecords(t *testing.T, b string, recs []Record) {
	t.Helper()
	l, err := OpenConfig(b, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(l.AppendBatch(recs) + uint64(len(recs)) - 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// splitRecorder is an Applier that declares per-key independence and
// keeps every batch with the scratch it came with: each replay worker
// owns one BatchScratch, so the scratch names the worker. It refuses
// the ops whose Key.Lo is in fail.
type splitRecorder struct {
	independent bool
	fail        map[uint64]bool

	mu      sync.Mutex
	batches [][]core.BatchOp
	workers []*core.BatchScratch
}

func (r *splitRecorder) KeyIndependent() bool { return r.independent }

func (r *splitRecorder) ApplyBatch(ops []core.BatchOp, out []core.BatchResult, sc *core.BatchScratch, _ func([]int)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.batches = append(r.batches, append([]core.BatchOp(nil), ops...))
	r.workers = append(r.workers, sc)
	for i := range ops {
		out[i] = core.BatchResult{}
		if r.fail[ops[i].Key.Lo] {
			out[i].Err = errors.New("refused")
		}
	}
}

// TestReplaySplitsByKey pins the split Replay uses for an applier that
// declares per-key independence: runtime.GOMAXPROCS(0) workers, every
// record past after applied exactly once in batches of at most 256,
// each key's records on one worker in log order (routed by Key.Lo
// alone, so equal Lo with different Hi stays together), and a refusal
// on each of two workers reported by the lower LSN. An applier that
// declares false gets one worker. Values carry the LSN.
func TestReplaySplitsByKey(t *testing.T) {
	const total, after, sameLo = 2000, 40, 99999
	recs := make([]Record, total)
	hot := 0
	for i := range recs {
		lsn := uint64(i + 1)
		r := Record{BatchOp: core.BatchOp{Kind: core.BatchInsert, Key: layout.Key{Lo: 10000 + lsn, Hi: lsn}, Value: lsn}}
		switch {
		case i%200 == 100 && i < 1600:
			// Eight records with one Lo and eight Hi values: a router that
			// hashed Hi would split them over two workers with odds
			// 127 in 128.
			r.Kind, r.Key = core.BatchPut, layout.Key{Lo: sameLo, Hi: lsn}
		case i%5 == 0:
			// Put/delete/put chains on 8 hot keys, spread over the log so
			// every chain crosses batch boundaries.
			r.Kind, r.Key = []core.BatchKind{core.BatchPut, core.BatchDelete, core.BatchPut}[hot/8%3], layout.Key{Lo: uint64(1 + hot%8), Hi: 7}
			hot++
		}
		recs[i] = r
	}
	b := base(t)
	writeRecords(t, b, recs)

	workers := runtime.GOMAXPROCS(0)
	r := &splitRecorder{independent: true}
	applied, next, err := Replay(r, b, after)
	if err != nil || applied != total-after || next != total+1 {
		t.Fatalf("Replay after %d = (%d, %d, %v), want (%d, %d, nil)", after, applied, next, err, total-after, total+1)
	}
	seen := make(map[uint64]int)                 // LSN → times applied
	last := make(map[uint64]uint64)              // Key.Lo → LSN applied last
	owner := make(map[uint64]*core.BatchScratch) // Key.Lo → worker
	used := make(map[*core.BatchScratch]bool)    // workers that applied something
	for i, batch := range r.batches {
		if len(batch) > replayBatch {
			t.Fatalf("batch %d holds %d ops, want at most %d", i, len(batch), replayBatch)
		}
		w := r.workers[i]
		used[w] = true
		for _, op := range batch {
			lsn := op.Value
			want := recs[lsn-1]
			if lsn <= after || op.Key != want.Key || op.Kind != want.Kind {
				t.Fatalf("op %+v applied, want LSN %d past %d as %+v", op, lsn, after, want)
			}
			seen[lsn]++
			if lsn <= last[op.Key.Lo] {
				t.Fatalf("key %d: LSN %d applied after LSN %d", op.Key.Lo, lsn, last[op.Key.Lo])
			}
			last[op.Key.Lo] = lsn
			if o, ok := owner[op.Key.Lo]; ok && o != w {
				t.Fatalf("key %d (LSN %d) reached two workers", op.Key.Lo, lsn)
			}
			owner[op.Key.Lo] = w
		}
	}
	for lsn := uint64(after + 1); lsn <= total; lsn++ {
		if seen[lsn] != 1 {
			t.Fatalf("LSN %d applied %d times, want once", lsn, seen[lsn])
		}
	}
	if len(used) != workers {
		t.Fatalf("%d workers applied records, want GOMAXPROCS = %d", len(used), workers)
	}
	if last[sameLo] != 1501 {
		t.Fatalf("equal-Lo records: LSN %d applied last, want 1501", last[sameLo])
	}

	// Declaring false keeps every record in log order on one worker.
	one := &splitRecorder{}
	if _, _, err := Replay(one, b, after); err != nil {
		t.Fatal(err)
	}
	lsn := uint64(after + 1)
	for i, batch := range one.batches {
		for _, op := range batch {
			if op.Value != lsn || one.workers[i] != one.workers[0] {
				t.Fatalf("declared false: LSN %d applied at position %d, or by a second worker", op.Value, lsn)
			}
			lsn++
		}
	}

	// One refusal on the first worker and one on the last: the error
	// names the lower LSN, and next still says where the log ends.
	var lower, upper uint64
	for i := 300; i < total && (lower == 0 || upper == 0); i++ {
		lo := recs[i].Key.Lo
		if recs[i].Kind != core.BatchInsert {
			continue
		}
		if lower == 0 && route(lo, workers) == workers-1 {
			lower = uint64(i + 1)
		}
		if upper == 0 && i >= 1200 && route(lo, workers) == 0 {
			upper = uint64(i + 1)
		}
	}
	refuse := &splitRecorder{independent: true, fail: map[uint64]bool{
		recs[lower-1].Key.Lo: true, recs[upper-1].Key.Lo: true,
	}}
	applied, next, err = Replay(refuse, b, 0)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("record %d:", lower)) || next != total+1 || applied >= total {
		t.Fatalf("Replay with records %d and %d refused = (%d, %d, %v), want an error naming record %d and next %d",
			lower, upper, applied, next, err, lower, total+1)
	}
}

// TestScanStreamsSegment replays a segment several read buffers long,
// with records straddling the buffer boundaries and a torn last record:
// Scan yields every whole record as logged, stops at the tear, and
// allocates no more for it than one buffer, whatever the segment size.
func TestScanStreamsSegment(t *testing.T) {
	if scanBufLen%RecordLen == 0 {
		t.Fatalf("scanBufLen %d is a multiple of RecordLen: no record straddles a buffer boundary", scanBufLen)
	}
	total := 4*scanBufLen/RecordLen + 1000
	recs := make([]Record, total)
	for i := range recs {
		recs[i] = Record{BatchOp: core.BatchOp{Kind: []core.BatchKind{core.BatchPut, core.BatchInsert, core.BatchDelete}[i%3], Key: layout.Key{Lo: uint64(i) + 1, Hi: uint64(i) * 3}, Value: uint64(i) * 7}}
	}
	b := base(t)
	writeRecords(t, b, recs)
	path := segPath(b, 1)
	if err := os.Truncate(path, SegHeaderLen+int64(total)*RecordLen-13); err != nil {
		t.Fatal(err)
	}

	lsn := uint64(1)
	next, replayed, err := Scan(b, 0, func(r *Record) error {
		want := recs[lsn-1]
		want.LSN = lsn
		if *r != want {
			return fmt.Errorf("record %+v, want %+v", *r, want)
		}
		lsn++
		return nil
	})
	if err != nil || replayed != total-1 || next != uint64(total) {
		t.Fatalf("Scan = (%d, %d, %v), want (%d, %d, nil)", next, replayed, err, total, total-1)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := Scan(b, 0, func(*Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(scanBufLen+64<<10); got > limit {
		t.Fatalf("Scan of a %d-byte segment allocated %d bytes, want at most %d", SegHeaderLen+total*RecordLen, got, limit)
	}
}
