package oplog

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grouphash/internal/core"
	"grouphash/internal/layout"
)

// TestAdaptiveRoundtrip proves a committer with a (T, B) window keeps
// the durability contract: records acknowledged by WaitDurable are on
// disk in strict LSN order, across concurrent appenders, with a segment
// that grows several preallocation steps (8 KiB steps under 40 KB of
// records). It also pins the whole point of group commit — far fewer
// fsyncs than records.
func TestAdaptiveRoundtrip(t *testing.T) {
	b := base(t)
	l, err := OpenConfig(b, 1, Config{
		SyncEvery:     500 * time.Microsecond,
		SyncBytes:     16 << 10,
		PreallocBytes: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const perWorker = 250
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lsn := appendOne(l, core.BatchPut, layout.Key{Lo: uint64(w)<<32 | uint64(i)}, uint64(i))
				if err := l.WaitDurable(lsn); err != nil {
					errs <- fmt.Errorf("WaitDurable(%d): %w", lsn, err)
					return
				}
				if d := l.DurableLSN(); d < lsn {
					errs <- fmt.Errorf("WaitDurable(%d) returned with durable=%d", lsn, d)
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
	fsyncs := l.Fsyncs()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, next := collect(t, b, 0)
	if len(recs) != workers*perWorker {
		t.Fatalf("replayed %d records, want %d", len(recs), workers*perWorker)
	}
	if next != workers*perWorker+1 {
		t.Fatalf("next LSN %d, want %d", next, workers*perWorker+1)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
	if fsyncs >= workers*perWorker {
		t.Fatalf("%d fsyncs for %d records: adaptive mode amortised nothing", fsyncs, workers*perWorker)
	}
	t.Logf("%d records, %d fsyncs", workers*perWorker, fsyncs)
}

// TestWaiterEndsCommitWindow pins the ack side of adaptive commit: a
// WaitDurable caller parking on a volatile record closes the commit
// window at once, so with a one-minute SyncEvery and no byte trigger a
// single append is acked after exactly one fsync, not after the timer.
func TestWaiterEndsCommitWindow(t *testing.T) {
	b := base(t)
	l, err := OpenConfig(b, 1, Config{SyncEvery: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsn := appendOne(l, core.BatchPut, layout.Key{Lo: 1}, 1)
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(lsn) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitDurable stuck behind the one-minute timer: a parked waiter did not close the window")
	}
	if n := l.Fsyncs(); n != 1 {
		t.Fatalf("%d fsyncs for one acked append, want exactly 1", n)
	}
}

// awaitDurable polls DurableLSN, without ever calling WaitDurable (a
// parked waiter would close the window itself), until lsn is durable or
// the deadline passes.
func awaitDurable(t *testing.T, l *Log, lsn uint64, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for l.DurableLSN() < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("%s never fired: durable LSN %d, want %d", what, l.DurableLSN(), lsn)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdaptiveByteTrigger pins the B side of the (T, B) window for
// records nobody waits on: with a prohibitively long SyncEvery and no
// WaitDurable caller, crossing SyncBytes must commit on its own, long
// before the timer.
func TestAdaptiveByteTrigger(t *testing.T) {
	b := base(t)
	l, err := OpenConfig(b, 1, Config{SyncEvery: time.Minute, SyncBytes: 4 * RecordLen})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var last uint64
	for i := 0; i < 4; i++ {
		last = appendOne(l, core.BatchPut, layout.Key{Lo: uint64(i + 1)}, 1)
	}
	awaitDurable(t, l, last, "byte trigger")
}

// TestAdaptiveTimerTrigger pins the T side for records nobody waits
// on: with no byte trigger and no WaitDurable caller, SyncEvery alone
// must commit the window — and the zero Config is a zero-length
// window, which commits a staged record at once.
func TestAdaptiveTimerTrigger(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"1ms", Config{SyncEvery: time.Millisecond}},
		{"zero-window", Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := OpenConfig(base(t), 1, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			lsn := appendOne(l, core.BatchPut, layout.Key{Lo: 1}, 1)
			awaitDurable(t, l, lsn, "SyncEvery timer")
		})
	}
}

// TestAdaptiveZeroTailIgnored proves preallocation is recovery-safe:
// the zero-filled region past the last fsynced record reads as a torn
// tail (CRC + sequence break) and replay stops exactly at the durable
// prefix, even when unsynced staged records and the zero tail coexist —
// inside the first preallocation step, and after durable records have
// grown the segment across several.
func TestAdaptiveZeroTailIgnored(t *testing.T) {
	for _, tc := range []struct {
		name    string
		step    int64
		commits int // durable commits of five records each
	}{
		{"one-step", 64 << 10, 1},
		// 40 commits write 8,032 bytes: four 2 KiB steps.
		{"several-steps", 2 << 10, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := base(t)
			// An hour-long window: only WaitDurable commits, so the records
			// staged after it stay volatile until the simulated power failure.
			l, err := OpenConfig(b, 1, Config{SyncEvery: time.Hour, PreallocBytes: tc.step})
			if err != nil {
				t.Fatal(err)
			}
			var last uint64
			for c := 0; c < tc.commits; c++ {
				for i := 0; i < 5; i++ {
					last = appendOne(l, core.BatchPut, layout.Key{Lo: last + 1}, last)
				}
				if err := l.WaitDurable(last); err != nil {
					t.Fatal(err)
				}
			}
			path := l.ActivePath()
			written := SegHeaderLen + int64(last)*RecordLen
			if fi, err := os.Stat(path); err != nil || fi.Size() != roundUp(written, tc.step) {
				t.Fatalf("active segment size %v, %v; want %d bytes written rounded up to a whole %d-byte step", fi.Size(), err, written, tc.step)
			}
			// Stage three more records but never let them commit.
			for i := uint64(1); i <= 3; i++ {
				appendOne(l, core.BatchPut, layout.Key{Lo: last + i}, last+i)
			}
			l.Abort() // power failure: staged records die in memory, zero tail stays on disk
			recs, next := collect(t, b, 0)
			if uint64(len(recs)) != last || next != last+1 {
				t.Fatalf("replayed %d records (next %d), want the %d durable ones", len(recs), next, last)
			}
		})
	}
}

// TestBatchFailureFanOut is the regression test for the group-commit
// failure contract: when one fsync fails, EVERY waiter of that batch —
// and every append racing the failure — must observe the error; none
// may hang, and none may be told its record is durable. The error must
// stay sticky after the injected fault is cleared.
func TestBatchFailureFanOut(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"zero-window", Config{}},
		{"adaptive", Config{SyncEvery: 200 * time.Microsecond}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			b := base(t)
			l, err := OpenConfig(b, 1, mode.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			boom := errors.New("injected fsync failure")
			var armed atomic.Bool
			SetTestFsyncErr(func() error {
				if armed.Load() {
					return boom
				}
				return nil
			})
			defer SetTestFsyncErr(nil)

			// A healthy batch first: the failure must not be retroactive.
			lsn := appendOne(l, core.BatchPut, layout.Key{Lo: 1}, 1)
			if err := l.WaitDurable(lsn); err != nil {
				t.Fatalf("healthy batch: %v", err)
			}
			armed.Store(true)

			const waiters = 8
			var wg sync.WaitGroup
			got := make([]error, waiters)
			for i := 0; i < waiters; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					lsn := appendOne(l, core.BatchPut, layout.Key{Lo: uint64(i + 2)}, 1)
					got[i] = l.WaitDurable(lsn)
				}(i)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("a waiter of the failed batch hung instead of observing the error")
			}
			for i, err := range got {
				if err == nil {
					t.Fatalf("waiter %d was told its record is durable across a failed fsync", i)
				}
			}
			if d := l.DurableLSN(); d != 1 {
				t.Fatalf("durable watermark %d moved past the failed fsync", d)
			}

			// Sticky: clearing the fault does not resurrect the log.
			armed.Store(false)
			lsn = appendOne(l, core.BatchPut, layout.Key{Lo: 100}, 1)
			if err := l.WaitDurable(lsn); err == nil {
				t.Fatal("WaitDurable succeeded after a sticky I/O failure")
			}
		})
	}
}

// TestCloseRacesAppendAndWaitDurable hammers the shutdown ordering
// under the race detector: appenders and waiters run full tilt while
// Close stops the committer, takes the final flush and releases every
// parked waiter. No goroutine may hang, and every record whose
// WaitDurable returned nil must be on disk afterwards.
func TestCloseRacesAppendAndWaitDurable(t *testing.T) {
	b := base(t)
	l, err := OpenConfig(b, 1, Config{SyncEvery: 100 * time.Microsecond, SyncBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	ackedCh := make(chan uint64, 4096)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				lsn := appendOne(l, core.BatchPut, layout.Key{Lo: w<<32 | i}, i)
				if err := l.WaitDurable(lsn); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("worker %d: %v", w, err)
					}
					return
				}
				ackedCh <- lsn
			}
		}(uint64(w))
	}
	time.Sleep(2 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a worker hung across Close")
	}
	close(ackedCh)
	onDisk := make(map[uint64]bool)
	if _, _, err := Scan(b, 0, func(r *Record) error {
		onDisk[r.LSN] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	acked := 0
	for lsn := range ackedCh {
		acked++
		if !onDisk[lsn] {
			t.Fatalf("LSN %d was acked durable but is not on disk after Close", lsn)
		}
	}
	t.Logf("%d acked records, all on disk", acked)
}
