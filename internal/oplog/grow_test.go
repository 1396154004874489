package oplog

import (
	"os"
	"sync/atomic"
	"testing"
	"time"

	"grouphash/internal/layout"
)

// countSyncs installs testHookSync for the rest of the test and returns
// the running counts of full and data-only record syncs.
func countSyncs(t *testing.T) (full, data *atomic.Int64) {
	t.Helper()
	full, data = new(atomic.Int64), new(atomic.Int64)
	testHookSync = func(isFull bool) {
		if isFull {
			full.Add(1)
		} else {
			data.Add(1)
		}
	}
	t.Cleanup(func() { testHookSync = nil })
	return full, data
}

// segSize stats the active segment.
func segSize(t *testing.T, l *Log) int64 {
	t.Helper()
	fi, err := os.Stat(l.ActivePath())
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// roundUp is the size of a segment with preallocation step after
// written bytes: the next whole multiple of step.
func roundUp(written, step int64) int64 {
	return (written + step - 1) / step * step
}

// appendN stages n records in one batch and returns the last LSN.
func appendN(l *Log, n int) uint64 {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Op: OpPut, Key: layout.Key{Lo: uint64(i) + 1}, Value: uint64(i)}
	}
	return l.AppendBatch(recs) + uint64(n) - 1
}

// growthCommit appends n records, waits for the one commit that covers
// them, and checks the segment size and the sync kind that commit used:
// the size is the next whole step past the bytes written, and the
// commit is a full fsync exactly when it grew the segment.
type growthCommit struct {
	t          *testing.T
	l          *Log
	step       int64
	full, data *atomic.Int64
	written    int64
	size       int64
	steps      int
}

func (g *growthCommit) commit(n int) {
	g.t.Helper()
	fullBefore, dataBefore := g.full.Load(), g.data.Load()
	if err := g.l.WaitDurable(appendN(g.l, n)); err != nil {
		g.t.Fatal(err)
	}
	g.written += int64(n) * RecordLen
	size := segSize(g.t, g.l)
	if size%g.step != 0 || size < g.written || size != roundUp(g.written, g.step) {
		g.t.Fatalf("step %d: segment is %d bytes after %d written, want %d", g.step, size, g.written, roundUp(g.written, g.step))
	}
	wantFull, wantData := fullBefore, dataBefore+1
	if size != g.size {
		wantFull, wantData = fullBefore+1, dataBefore
		g.steps++
	}
	if f, d := g.full.Load(), g.data.Load(); f != wantFull || d != wantData {
		g.t.Fatalf("step %d: commit taking the segment from %d to %d bytes made %d full and %d data-only syncs, want %d and %d",
			g.step, g.size, size, f-fullBefore, d-dataBefore, wantFull-fullBefore, wantData-dataBefore)
	}
	g.size = size
}

// TestSegmentGrowthSyncKinds pins the commit cost preallocation buys: a
// segment is created header-only and grows in whole PreallocBytes
// steps, the one commit that grows it is a full fsync, and every commit
// inside the grown region is a data-only sync. One flush that crosses
// several steps grows by all of them at once, and steps on either side
// of the header size (1 and 33) keep the size rule and lose no record.
func TestSegmentGrowthSyncKinds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		plan  []int // records per commit
		steps int   // growth steps the plan must take
	}{
		// 160 small commits write 320,032 bytes: four full 64 KiB steps
		// and a fifth, one full fsync each; the other 155 are data-only.
		{"64KiB", Config{PreallocBytes: 64 << 10}, repeat(50, 160), 5},
		// One 40,000-byte flush grows ten 4 KiB steps at once (SyncBytes
		// above it, so the byte trigger does not split it); the next
		// commit fits in the tail and the one after crosses it again.
		{"4KiB-one-big-flush", Config{PreallocBytes: 4 << 10, SyncBytes: 64 << 10}, []int{1000, 10, 100}, 2},
		// Every commit of at least 40 bytes crosses a 1- or 33-byte step.
		{"1B", Config{PreallocBytes: 1}, repeat(7, 60), 60},
		{"33B", Config{PreallocBytes: 33}, repeat(7, 60), 60},
		// No preallocation: the file grows by what each flush writes.
		{"none", Config{}, repeat(7, 20), 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, data := countSyncs(t)
			b := base(t)
			// An hour-long window: each WaitDurable is exactly one commit.
			tc.cfg.SyncEvery = time.Hour
			l, err := OpenConfig(b, 1, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			g := &growthCommit{t: t, l: l, step: max(tc.cfg.PreallocBytes, 1), full: full, data: data,
				written: SegHeaderLen, size: segSize(t, l)}
			if g.size != SegHeaderLen {
				t.Fatalf("new segment is %d bytes, want header-only %d", g.size, SegHeaderLen)
			}
			total := 0
			for _, n := range tc.plan {
				g.commit(n)
				total += n
			}
			if g.steps != tc.steps {
				t.Fatalf("%d growth steps, want %d", g.steps, tc.steps)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			recs, next := collect(t, b, 0)
			if len(recs) != total || next != uint64(total)+1 {
				t.Fatalf("replayed %d records (next %d), want %d", len(recs), next, total)
			}
			t.Logf("%d commits: %d growth steps (full fsyncs), %d data-only; segment %d bytes",
				len(tc.plan), g.steps, len(tc.plan)-g.steps, g.size)
		})
	}
}

func repeat(n, times int) []int {
	s := make([]int, times)
	for i := range s {
		s[i] = n
	}
	return s
}
