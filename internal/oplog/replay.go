package oplog

import (
	"fmt"

	"grouphash/internal/core"
)

// Applier is the one method Replay needs from a store: the batch funnel
// every live mutation already takes. *grouphash.Store and every
// engine.Engine satisfy it.
type Applier interface {
	ApplyBatch(ops []core.BatchOp, out []core.BatchResult, sc *core.BatchScratch, committed func(applied []int))
}

// replayBatch is how many records Replay hands ApplyBatch per call.
const replayBatch = 256

// OpFor returns the log op that records a mutation of kind k.
func OpFor(k core.BatchKind) Op {
	switch k {
	case core.BatchPut:
		return OpPut
	case core.BatchInsert:
		return OpInsert
	default:
		return OpDelete
	}
}

// kind is OpFor's inverse. Scan only yields the three valid ops: it
// treats any other byte as a torn tail.
func (o Op) kind() core.BatchKind {
	switch o {
	case OpPut:
		return core.BatchPut
	case OpInsert:
		return core.BatchInsert
	default:
		return core.BatchDelete
	}
}

// Replay re-applies the log based at base onto a: every record with an
// LSN past after (typically the oplog mark of the image a was loaded
// from) goes through a.ApplyBatch in batches of 256, in log order, from
// one goroutine. That keeps every key's records in log order, because
// ApplyBatch applies same-key ops in submission order and each batch
// returns before the next starts. The first op that fails stops the
// replay with an error naming its record's LSN (applied then counts
// the batches before it); a delete of an absent key is not a failure.
// Replay only reads the log, so a crash during replay is recovered by
// replaying again from the same image. It returns the number of
// records applied and the LSN the log continues from (pass it to
// OpenConfig), at least after+1.
func Replay(a Applier, base string, after uint64) (applied int, next uint64, err error) {
	ops := make([]core.BatchOp, 0, replayBatch)
	lsns := make([]uint64, 0, replayBatch)
	out := make([]core.BatchResult, replayBatch)
	var sc core.BatchScratch
	flush := func() error {
		a.ApplyBatch(ops, out[:len(ops)], &sc, nil)
		for i := range ops {
			if err := out[i].Err; err != nil {
				return fmt.Errorf("oplog: replaying record %d: %w", lsns[i], err)
			}
		}
		applied += len(ops)
		ops, lsns = ops[:0], lsns[:0]
		return nil
	}
	next, _, err = Scan(base, after, func(r Record) error {
		ops = append(ops, core.BatchOp{Kind: r.Op.kind(), Key: r.Key, Value: r.Value})
		lsns = append(lsns, r.LSN)
		if len(ops) == replayBatch {
			return flush()
		}
		return nil
	})
	if err == nil && len(ops) > 0 {
		err = flush()
	}
	if err != nil {
		return applied, next, err
	}
	return applied, max(next, after+1), nil
}
