package oplog

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"grouphash/internal/core"
	"grouphash/internal/xhash"
)

// Applier is the one method Replay needs from a store: the batch funnel
// every live mutation already takes. *grouphash.Store and every
// engine.Engine satisfy it. Replay hands it every key's records in log
// order; records of different keys keep their log order too unless the
// applier also implements KeyIndependent.
type Applier interface {
	ApplyBatch(ops []core.BatchOp, out []core.BatchResult, sc *core.BatchScratch, committed func(applied []int))
}

// KeyIndependent is the optional Applier method that lets Replay split
// a log over every core. Replay finds it by type assertion, the way
// core finds hashtab.ConcurrentReader on a backend.
type KeyIndependent interface {
	// KeyIndependent reports whether an op's outcome depends only on
	// the earlier ops on its own key, and ApplyBatch may run from
	// several goroutines at once. A table that can refuse an insert for
	// lack of room must report false: there an insert may succeed only
	// because an earlier delete of another key made room for it.
	KeyIndependent() bool
}

// replayBatch is how many records Replay hands ApplyBatch per call.
const replayBatch = 256

// replayDepth is how many batches each replay worker owns: one it
// applies, one the scanner fills, and two queued between them, so a
// worker keeps applying while the scanner waits on a read.
const replayDepth = 4

// replayBatchBuf is one batch of records on its way to a worker.
type replayBatchBuf struct {
	ops  []core.BatchOp
	lsns []uint64
}

// replayWorker applies one share of the log, in the order the scanner
// routed it. The scanner owns fill; the worker owns everything else
// until the scanner closes work, and Replay reads it after the worker
// has exited.
type replayWorker struct {
	work    chan *replayBatchBuf // filled batches, in log order
	free    chan *replayBatchBuf // applied batches, back to the scanner
	fill    *replayBatchBuf      // the batch the scanner is filling
	applied int                  // records of the batches applied cleanly
	failLSN uint64               // the first refused record's LSN
	err     error
}

// run applies every batch routed to w with its own scratch, and stops
// applying at its first refused op; stop tells the scanner.
func (w *replayWorker) run(a Applier, stop *atomic.Bool) {
	out := make([]core.BatchResult, replayBatch)
	var sc core.BatchScratch
	for b := range w.work {
		if w.err == nil {
			a.ApplyBatch(b.ops, out[:len(b.ops)], &sc, nil)
			for i := range b.ops {
				if err := out[i].Err; err != nil {
					w.failLSN = b.lsns[i]
					w.err = fmt.Errorf("oplog: replaying record %d: %w", w.failLSN, err)
					stop.Store(true)
					break
				}
			}
			if w.err == nil {
				w.applied += len(b.ops)
			}
		}
		b.ops, b.lsns = b.ops[:0], b.lsns[:0]
		w.free <- b
	}
}

// route picks the worker for a record from its Key.Lo alone: every
// record of a key then reaches one worker, whatever Hi the client sent
// (an 8-byte-key store ignores Hi, but the log keeps it).
func route(lo uint64, n int) int {
	w, _ := bits.Mul64(xhash.Mix64(lo), uint64(n))
	return int(w)
}

// Replay re-applies the log based at base onto a: every record with an
// LSN past after (typically the oplog mark of the image a was loaded
// from) goes through a.ApplyBatch in batches of up to 256.
//
// The calling goroutine scans the log and routes each record by a hash
// of its Key.Lo to one of N workers; each worker applies its records
// in arrival order, so every key's records apply in log order
// (ApplyBatch keeps same-key ops in submission order, and a worker's
// batch returns before its next starts). N is runtime.GOMAXPROCS(0)
// when a implements KeyIndependent and reports true, else 1, which
// keeps every record in log order.
//
// The first refused op stops dispatching: the workers finish what they
// were handed and Replay returns an error naming the lowest refused
// LSN. Every record below it was applied; with N > 1, records past it
// may have been applied too, so the caller must drop a and recover
// again from its image. applied counts the records of the batches that
// applied cleanly; a delete of an absent key is not a failure. Replay
// only reads the log, so a crash during replay is recovered by
// replaying again from the same image. It returns the LSN the log
// continues from (pass it to OpenConfig), at least after+1, the same
// whether or not an op was refused.
func Replay(a Applier, base string, after uint64) (applied int, next uint64, err error) {
	n := 1
	if ki, ok := a.(KeyIndependent); ok && ki.KeyIndependent() {
		n = runtime.GOMAXPROCS(0)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	ws := make([]replayWorker, n)
	for i := range ws {
		w := &ws[i]
		w.work = make(chan *replayBatchBuf, replayDepth)
		w.free = make(chan *replayBatchBuf, replayDepth)
		for j := 0; j < replayDepth; j++ {
			w.free <- &replayBatchBuf{
				ops:  make([]core.BatchOp, 0, replayBatch),
				lsns: make([]uint64, 0, replayBatch),
			}
		}
		w.fill = <-w.free
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(a, &stop)
		}()
	}
	stopped := false
	next, _, err = Scan(base, after, func(r *Record) error {
		if stopped {
			return nil // scan on only to find where the log ends
		}
		w := &ws[route(r.Key.Lo, n)]
		w.fill.ops = append(w.fill.ops, r.BatchOp)
		w.fill.lsns = append(w.fill.lsns, r.LSN)
		if len(w.fill.ops) == replayBatch {
			if stop.Load() {
				stopped = true // the final flush below sends this batch
				return nil
			}
			w.work <- w.fill
			w.fill = <-w.free
		}
		return nil
	})
	// Send every partial batch, even after a refusal, so every record
	// scanned below the refused one is applied and a lower refusal on
	// another worker is still found.
	for i := range ws {
		w := &ws[i]
		if len(w.fill.ops) > 0 {
			w.work <- w.fill
		}
		close(w.work)
	}
	wg.Wait()
	var refused *replayWorker
	for i := range ws {
		w := &ws[i]
		applied += w.applied
		if w.err != nil && (refused == nil || w.failLSN < refused.failLSN) {
			refused = w
		}
	}
	if refused != nil {
		err = refused.err
	}
	return applied, max(next, after+1), err
}
