package server

import (
	"sync"
	"time"

	"grouphash"
	"grouphash/internal/oplog"
	"grouphash/internal/wire"
)

// This file is the server half of the end-to-end batch path: OpBatch
// frames and coalesced pipelined bursts both funnel into the store's
// stripe-grouped ApplyBatch (one lock acquisition + ONE oplog append +
// one count persist per stripe-run), and every buffer on the way —
// completion-queue chunks, batch-response frames, the apply scratch —
// is pooled or per-connection so the steady-state serving loop
// allocates nothing.

// pendingChunk is a pooled completion-queue chunk. Pooling it removes
// the chunk allocation the reader used to pay per pipelined burst.
type pendingChunk struct {
	resps []pendingResp
}

var chunkPool = sync.Pool{New: func() any {
	return &pendingChunk{resps: make([]pendingResp, 0, 64)}
}}

func getChunk() *pendingChunk {
	pc := chunkPool.Get().(*pendingChunk)
	pc.resps = pc.resps[:0]
	return pc
}

// putChunk recycles a chunk. Every entry is zeroed first: a pooled
// chunk must not retain response Extra payloads or batch buffers (the
// acker's retained-reference audit — a stale pointer here would keep
// dead frames alive across unrelated connections). A batch buffer
// still attached (error paths that never wrote it) is recycled too.
func putChunk(pc *pendingChunk) {
	for i := range pc.resps {
		if b := pc.resps[i].batch; b != nil {
			putRespBuf(b)
		}
		pc.resps[i] = pendingResp{}
	}
	pc.resps = pc.resps[:0]
	chunkPool.Put(pc)
}

// respBuf is a pooled batch-response frame: the N sub-responses an
// OpBatch frame is answered with.
type respBuf struct {
	resps []wire.Response
}

var respBufPool = sync.Pool{New: func() any { return &respBuf{} }}

func getRespBuf(n int) *respBuf {
	rb := respBufPool.Get().(*respBuf)
	if cap(rb.resps) < n {
		rb.resps = make([]wire.Response, n)
	}
	rb.resps = rb.resps[:n]
	return rb
}

func putRespBuf(rb *respBuf) {
	for i := range rb.resps {
		rb.resps[i] = wire.Response{} // drop any Extra reference
	}
	rb.resps = rb.resps[:0]
	respBufPool.Put(rb)
}

// mutationKind classifies a wire opcode as a batchable store mutation.
func mutationKind(op byte) (grouphash.BatchKind, bool) {
	switch op {
	case wire.OpPut:
		return grouphash.BatchPut, true
	case wire.OpInsert:
		return grouphash.BatchInsert, true
	case wire.OpDelete:
		return grouphash.BatchDelete, true
	}
	return 0, false
}

// countClass bumps the per-class request counter for a mutation opcode
// (reads and others are counted by dispatch).
func (s *Server) countClass(op byte) {
	if op == wire.OpDelete {
		s.deletes.Inc()
	} else {
		s.writes.Inc()
	}
}

// batchState is one connection's staging area for the batch apply
// path. The reader stages mutations here — single frames accumulate
// across a pipelined burst, batch frames stage their sub-op runs — and
// apply() pushes them through the store's stripe-grouped ApplyBatch.
// All slices are reused across bursts: zero steady-state allocations.
type batchState struct {
	s       *Server
	ops     []grouphash.BatchOp
	opcodes []byte // wire opcode per staged op, for the per-op latency slot
	idx     []int  // destination per staged op: chunk index or sub-response index
	outs    []grouphash.BatchResult
	lsns    []uint64 // oplog LSN per staged op; 0 = not logged
	recs    []oplog.Record
	sc      grouphash.BatchScratch
	hi      uint64 // highest LSN of the current batch frame (flushInto)
	// committed is the stripe-run commit hook: ONE oplog AppendBatch
	// per run, inside the stripe's critical section, LSNs fanned back
	// to the staged ops. Built once per connection so apply() does not
	// allocate a closure per burst.
	committed func(applied []int)
}

func newBatchState(s *Server) *batchState {
	ba := &batchState{s: s}
	if s.cfg.Oplog != nil {
		ba.committed = func(applied []int) {
			recs := ba.recs[:0]
			for _, i := range applied {
				recs = append(recs, oplog.Record{BatchOp: ba.ops[i]})
			}
			first := s.cfg.Oplog.AppendBatch(recs)
			for j, i := range applied {
				ba.lsns[i] = first + uint64(j)
			}
			ba.recs = recs
		}
	}
	return ba
}

// stage queues one mutation for the next apply, remembering where its
// response must land (dst: a chunk index for coalesced singles, a
// sub-response index for batch frames).
func (ba *batchState) stage(req wire.Request, dst int) {
	kind, _ := mutationKind(req.Op)
	ba.ops = append(ba.ops, grouphash.BatchOp{Kind: kind, Key: req.Key, Value: req.Value})
	ba.opcodes = append(ba.opcodes, req.Op)
	ba.idx = append(ba.idx, dst)
}

func (ba *batchState) reset() {
	ba.ops = ba.ops[:0]
	ba.opcodes = ba.opcodes[:0]
	ba.idx = ba.idx[:0]
}

// apply runs the staged ops through the store's stripe-grouped batch
// path, filling ba.outs and ba.lsns.
func (ba *batchState) apply() {
	n := len(ba.ops)
	if cap(ba.outs) < n {
		ba.outs = make([]grouphash.BatchResult, n)
	}
	ba.outs = ba.outs[:n]
	if cap(ba.lsns) < n {
		ba.lsns = make([]uint64, n)
	}
	ba.lsns = ba.lsns[:n]
	for i := range ba.lsns {
		ba.lsns[i] = 0
	}
	ba.s.cfg.Engine.ApplyBatch(ba.ops, ba.outs, &ba.sc, ba.committed)
}

// response maps staged op j's outcome to its wire response, bumping the
// error counters.
func (ba *batchState) response(j int) wire.Response {
	out := &ba.outs[j]
	if out.Err != nil {
		return ba.s.errResponse(out.Err)
	}
	if ba.ops[j].Kind == grouphash.BatchDelete && !out.Found {
		return wire.Response{Status: wire.StatusNotFound}
	}
	return wire.Response{Status: wire.StatusOK}
}

// flushCoalesced applies the coalesced run of single-frame mutations
// staged since the last flush and fills their chunk placeholders:
// response, ack LSN, and (for unlogged outcomes) a cleared timing
// stamp. Runs at every pipelining boundary, before any read or batch
// frame (preserving program order an observer can see), and before a
// chunk moves to the acker.
//
// Once a drain has begun (the final image's contents are already
// decided) or the oplog has suffered a sticky failure (nothing could
// ever be acked), the whole run is refused unapplied. The check racing
// Drain is safe without re-checking under a lock: Drain flips the
// flag, then waits for every handler goroutine to exit before cutting
// the final image, so a run that slipped past the check completes its
// (apply, append) pairs AND its durable acks (or is discarded unacked)
// strictly before the final snapshot's cut observes the log — acked ⇒
// in the image, refused ⇒ absent, no third outcome. serveBatchFrame's
// check rests on the same argument. TestDrainStraddleDurability pins
// this.
func (ba *batchState) flushCoalesced(chunk []pendingResp, timing bool) {
	n := len(ba.ops)
	if n == 0 {
		return
	}
	s := ba.s
	if s.draining.Load() || s.oplogDead.Load() {
		for _, dst := range ba.idx {
			s.drainRejects.Inc()
			chunk[dst] = pendingResp{resp: wire.Response{Status: wire.StatusDraining}}
		}
		ba.reset()
		return
	}
	start := time.Now()
	ba.apply()
	if timing {
		s.coalesceSize.Observe(uint64(n))
		// The run cost one walk of the store; attribute it evenly so the
		// per-opcode latency histograms stay meaningful under coalescing.
		per := uint64(time.Since(start).Nanoseconds()) / uint64(n)
		for _, opc := range ba.opcodes {
			s.opLat[opc].Observe(per)
		}
	}
	for j, dst := range ba.idx {
		pr := &chunk[dst]
		pr.resp = ba.response(j)
		pr.lsn = ba.lsns[j]
		if pr.lsn == 0 {
			pr.start = time.Time{} // unlogged: no ack latency to measure
		}
	}
	ba.reset()
}

// flushInto is flushCoalesced's batch-frame sibling: apply the staged
// sub-op run, land responses at their sub-response slots, and fold the
// run's LSNs into ba.hi (the frame's ack watermark).
func (ba *batchState) flushInto(resps []wire.Response) {
	if len(ba.ops) == 0 {
		return
	}
	ba.apply()
	for j, dst := range ba.idx {
		resps[dst] = ba.response(j)
		if ba.lsns[j] > ba.hi {
			ba.hi = ba.lsns[j]
		}
	}
	ba.reset()
}

// serveBatchFrame answers one OpBatch frame. Sub-operations take
// effect in order: maximal runs of consecutive mutations go through
// the stripe-grouped apply (one lock + one oplog append per stripe-run
// within each run), and any interleaved read/ping/len flushes the
// pending run first so a sub-op always observes its predecessors. The
// response is ONE frame of packed sub-responses whose release waits on
// the highest LSN any sub-op logged — an acked batch is all-or-nothing
// on the wire. OpStats and nested OpBatch sub-ops answer
// StatusBadRequest (their payloads don't fit the packed format).
func (s *Server) serveBatchFrame(subs []wire.Request, ba *batchState, timing bool) pendingResp {
	var start time.Time
	if timing {
		start = time.Now()
		s.batchFrameSize.Observe(uint64(len(subs)))
		s.bytesRead.Add(uint64(4 + 1 + len(subs)*wire.ReqBodyLen))
		s.bytesWritten.Add(uint64(4 + len(subs)*wire.RespFixedLen))
	}
	rb := getRespBuf(len(subs))
	resps := rb.resps
	ba.hi = 0
	draining := s.draining.Load() || s.oplogDead.Load()
	for i := range subs {
		sub := &subs[i]
		if _, ok := mutationKind(sub.Op); ok {
			s.countClass(sub.Op)
			if draining {
				s.drainRejects.Inc()
				resps[i] = wire.Response{Status: wire.StatusDraining}
				continue
			}
			ba.stage(*sub, i)
			continue
		}
		ba.flushInto(resps)
		switch sub.Op {
		case wire.OpPing, wire.OpGet, wire.OpLen:
			resps[i] = s.dispatch(*sub)
		default:
			s.badreq.Inc()
			resps[i] = wire.Response{Status: wire.StatusBadRequest}
		}
	}
	ba.flushInto(resps)
	pr := pendingResp{batch: rb, lsn: ba.hi}
	if timing {
		s.opLat[wire.OpBatch].Observe(uint64(time.Since(start)))
		if pr.lsn > 0 {
			pr.start = start
		}
	}
	return pr
}
