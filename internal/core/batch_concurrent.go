package core

import (
	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
)

// ApplyBatch applies a burst of mutations with one stripe-lock
// acquisition, one count persist, and one commit-hook call per
// STRIPE-RUN (a maximal run of same-stripe ops after a stable sort)
// instead of one of each per key. The server's reader funnels both
// explicit OpBatch frames and coalesced pipelined bursts through here.
//
// Crash semantics, per stripe-run: each cell commit is individually
// failure atomic, as in Insert, so a crash mid-run leaves a
// prefix of the run committed and the count word stale — exactly the
// state Algorithm 4's recovery (Recover) already repairs by recomputing
// the count from the bitmaps. Nothing in a run is acked before the
// commit hook has made it durable, so the committed prefix is always a
// prefix of what was logged.

// BatchKind selects the mutation a BatchOp performs.
type BatchKind uint8

const (
	// BatchPut upserts: overwrite in place if the key exists, insert
	// otherwise, in one critical section, so racing puts of one key
	// never commit duplicates.
	BatchPut BatchKind = iota + 1
	// BatchInsert inserts with Algorithm-1 semantics: no existing-key
	// check, duplicates allowed.
	BatchInsert
	// BatchDelete removes the key if present.
	BatchDelete
)

// BatchOp is one mutation of a batch.
type BatchOp struct {
	Kind  BatchKind
	Key   layout.Key
	Value uint64 // ignored by BatchDelete
}

// BatchResult is one op's outcome.
type BatchResult struct {
	// Err is nil, hashtab.ErrInvalidKey, or hashtab.ErrTableFull.
	Err error
	// Found reports the key already existed: a BatchPut that updated in
	// place, or a BatchDelete that removed something. An op with
	// Found=false and Err=nil inserted (Put/Insert) or found nothing to
	// remove (Delete).
	Found bool
}

// BatchScratch holds ApplyBatch's reusable working state so a serving
// loop pays zero steady-state allocations per batch. The zero value is
// ready; not safe for concurrent use.
type BatchScratch struct {
	order   []int32 // valid-key op indices, stable-grouped by stripe
	stripes []int32 // stripe per op, -1 = invalid key
	counts  []int32 // counting-sort workspace, one slot per stripe
	applied []int   // per-run op indices handed to the commit hook
}

// ApplyBatch applies ops in stripe-grouped runs, writing per-op
// outcomes into out (len(out) must equal len(ops)). Within a stripe,
// ops apply in submission order; across stripes, runs apply in stripe
// order — safe, because ops on different stripes can never touch the
// same key.
//
// Per stripe-run it takes the stripe lock once, applies every op of the
// run, bumps the count once (one persist barrier for the whole run),
// and — still inside the critical section — calls committed with the
// indices of the ops that actually mutated cells, in apply order. The
// server appends those to its oplog there, making (apply, log) one
// atomic step against Quiesce: the snapshot path reads its oplog mark
// with every stripe held, so the mark always equals exactly what the
// captured image contains. committed must not touch the store
// (self-deadlock) and must be brief. The applied slice is scratch:
// committed must consume it before returning.
//
// A full group mid-run commits the prefix (count + hook), releases the
// stripe, waits for the online expansion to make room (awaitRoom), and
// resumes the run against the grown table. If expansion itself fails,
// the blocked op reports ErrTableFull and the rest of the run still
// applies (deletes and in-place puts can succeed in a full table).
//
// sc may be nil (a scratch is then allocated); committed may be nil.
func (c *Concurrent) ApplyBatch(ops []BatchOp, out []BatchResult, sc *BatchScratch, committed func(applied []int)) {
	if len(ops) != len(out) {
		panic("core: ApplyBatch len(ops) != len(out)")
	}
	if len(ops) == 0 {
		return
	}
	if sc == nil {
		sc = &BatchScratch{}
	}
	if cap(sc.stripes) < len(ops) {
		sc.stripes = make([]int32, len(ops))
	}
	sc.stripes = sc.stripes[:len(ops)]
	ns := len(c.stripes)
	if cap(sc.counts) < ns {
		sc.counts = make([]int32, ns)
	}
	counts := sc.counts[:ns]
	for s := range counts {
		counts[s] = 0
	}
	valid := 0
	for i := range ops {
		out[i] = BatchResult{}
		if !c.t.l.ValidKey(ops[i].Key) {
			out[i].Err = hashtab.ErrInvalidKey
			sc.stripes[i] = -1
			continue
		}
		_, si := c.stripeFor(ops[i].Key)
		sc.stripes[i] = int32(si)
		counts[si]++
		valid++
	}
	// Stable counting sort by stripe: O(ops + stripes) with no
	// comparator calls (a comparison sort here is ~15% of a batched
	// put's CPU). Submission order survives within a stripe — same-key
	// ops share a stripe, so program order per key is preserved.
	if cap(sc.order) < valid {
		sc.order = make([]int32, valid)
	}
	sc.order = sc.order[:valid]
	next := int32(0)
	for s := range counts {
		n := counts[s]
		counts[s] = next
		next += n
	}
	for i := range ops {
		if si := sc.stripes[i]; si >= 0 {
			sc.order[counts[si]] = int32(i)
			counts[si]++
		}
	}
	for start := 0; start < len(sc.order); {
		si := int(sc.stripes[sc.order[start]])
		end := start + 1
		for end < len(sc.order) && int(sc.stripes[sc.order[end]]) == si {
			end++
		}
		c.applyRun(ops, out, sc, si, sc.order[start:end], committed)
		start = end
	}
}

// Apply runs one mutation as a stripe-run of one — no stripe sort, no
// scratch, no allocation — and returns its outcome. It is the per-op
// entry point (the façade's Put, Insert and Delete), so every mutation
// of a concurrent table runs applyRun's critical section.
func (c *Concurrent) Apply(op BatchOp) BatchResult {
	if !c.t.l.ValidKey(op.Key) {
		return BatchResult{Err: hashtab.ErrInvalidKey}
	}
	ops, out, run := [1]BatchOp{op}, [1]BatchResult{}, [1]int32{}
	_, si := c.stripeFor(op.Key)
	c.applyRun(ops[:], out[:], nil, si, run[:], nil)
	return out[0]
}

// applyRun applies one stripe-run (the op indices in run, all mapping
// to stripe si), re-locking and resuming after each expansion wait. It
// is the concurrent table's only mutating critical section: the stripe
// lock, the route to the migrated or current view, the cell commits,
// one count persist and the commit hook. The indices handed to
// committed are gathered in sc, which may be nil when committed is.
// The run's filtered probes are tallied on the stack and published
// once, after the last unlock.
func (c *Concurrent) applyRun(ops []BatchOp, out []BatchResult, sc *BatchScratch, si int, run []int32, committed func(applied []int)) {
	s := &c.stripes[si]
	noRoom := false // a failed awaitRoom: full-group ops now fail for good
	placed := false // some op inserted: the load factor may have crossed
	var tl fpTally
	i := 0
	for i < len(run) {
		s.lock()
		vw := c.routeView(si)
		if committed != nil {
			sc.applied = sc.applied[:0]
		}
		delta := int64(0)
		full := false
	apply:
		for ; i < len(run); i++ {
			idx := int(run[i])
			op := &ops[idx]
			switch op.Kind {
			case BatchPut:
				if c.t.updateIn(vw, op.Key, op.Value, &tl) {
					out[idx].Found = true
					break
				}
				fallthrough
			case BatchInsert:
				if !c.t.placeIn(vw, op.Key, op.Value) {
					// The op's groups are full.
					if noRoom {
						out[idx].Err = hashtab.ErrTableFull
						continue
					}
					full = true
					break apply
				}
				delta++
				placed = true
			case BatchDelete:
				if !c.t.removeIn(vw, op.Key, &tl) {
					continue // absent: nothing applied
				}
				out[idx].Found = true
				delta--
			default:
				panic("core: ApplyBatch: unknown BatchKind")
			}
			if committed != nil {
				sc.applied = append(sc.applied, idx)
			}
		}
		if delta != 0 {
			c.bumpCount(delta)
		}
		if committed != nil && len(sc.applied) > 0 {
			committed(sc.applied)
		}
		s.unlock()
		if c.hookBatchRunCommitted != nil {
			c.hookBatchRunCommitted(si)
		}
		if full {
			// The committed prefix stays committed; wait for room and
			// resume the run where it stopped.
			if err := c.awaitRoom(si); err != nil {
				noRoom = true
			}
		}
	}
	c.t.publishTally(&tl)
	if placed {
		c.maybeTriggerExpand()
	}
}
