// Package server puts a grouphash store behind a TCP socket: the
// first layer of this repository that exercises the table the way a
// production service would — many connections, pipelined requests,
// group-committed durability, background snapshots, and a graceful
// drain that turns a SIGTERM into a durable image.
//
// Architecture: one goroutine per connection over the wire protocol
// (internal/wire), buffered framing with a flush-before-blocking-read
// rule so pipelined batches are answered in one writev, the concurrent
// native-backend store underneath (per-group striped locks, seqlock
// reads), and the engine's SnapshotWriterAt capture for consistent
// images while serving.
//
// Batching: mutations reach the store only through its stripe-grouped
// ApplyBatch — explicit OpBatch frames (N packed sub-ops, one packed
// response frame, all-or-nothing ack) and, transparently, coalesced
// runs of consecutive single-frame mutations within a pipelined burst
// (a lone mutation is a run of one). Either way each stripe-run costs
// one lock acquisition, ONE oplog append, and one count persist for
// the whole run instead of one of each per operation. Coalescing never
// reorders what a client can observe: any read (or other non-mutation)
// flushes the pending run first, and the k-th response still answers
// the k-th request. The serving loop itself is allocation-free at
// steady state — pooled completion-queue chunks and batch-response
// frames, a per-connection reused request reader and batch scratch.
//
// Durability contract: snapshot + oplog — acked ⇒ durable. Every
// mutating request is appended to the operation log (internal/oplog)
// inside the store's own per-stripe critical section, and its response
// is released only when the log's durable-LSN watermark passes the
// record: one group-committed fsync per commit window, batching across
// connections. A waiting acker closes the window at once, so an ack
// waits for at most the fsync in flight plus its own; the window's T
// and B bound only records nobody waits on. Periodic snapshots bound
// the log: each image records the LSN it covers, the log rotates at
// the capture point (under a full-store quiesce, so mark and image
// always agree), and fully-covered segments are deleted once the
// image is durable. Recovery is engine.Restart — load the image,
// oplog.Replay the records past its mark through ApplyBatch, reopen
// the log: after any crash — power failure included — every acked
// write is present exactly once. Without a Config.Oplog the server
// degrades to the old cache-with-snapshots mode: the same capture with
// mark 0, and a power failure loses acked writes since the last
// completed image. See DESIGN.md §6.
//
// Drain contract: once Drain begins, already-buffered write requests
// are answered with StatusDraining instead of being applied — the
// final snapshot's contents are decided the moment the drain starts,
// and no write acked OK is ever left out of it. Reads keep being
// served until each connection's buffer runs dry.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"grouphash"
	"grouphash/internal/engine"
	"grouphash/internal/hashtab"
	"grouphash/internal/oplog"
	"grouphash/internal/stats"
	"grouphash/internal/wire"
)

// Config configures a Server.
type Config struct {
	// Engine is the storage engine to serve — the flagship group-hash
	// store or any internal/engine adapter. Required. A flagship store
	// must have been built with Options.Concurrent (every connection
	// gets its own goroutine).
	Engine engine.Engine
	// SnapshotPath, when non-empty, enables snapshots: a final image
	// on Drain, plus periodic background images every SnapshotEvery.
	SnapshotPath string
	// SnapshotEvery is the background snapshot period; 0 disables
	// periodic snapshots (the final drain snapshot still happens).
	SnapshotEvery time.Duration
	// Oplog, when non-nil, is the operation log every mutating request
	// is made durable on before it is acked. The caller opens it
	// (after replaying it into Engine) and the server takes ownership:
	// Drain closes it. engine.Restart is the recovery sequence.
	Oplog *oplog.Log
	// DisableTiming turns off the per-request instrumentation (latency
	// histogram observation and byte accounting) so the overhead of the
	// two time.Now calls per request can be measured; everything else —
	// class counters, oplog metrics — stays on. Used by ghbench's
	// before/after overhead experiment.
	DisableTiming bool
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Metrics is a point-in-time copy of the server's request counters.
// Every other counter is a series of the metrics registry (GET /metrics
// and the wire's OpStats).
type Metrics struct {
	// Reads, Writes, Deletes, Others count requests by class (Get;
	// Put; Delete; Ping+Len+Stats).
	Reads, Writes, Deletes, Others uint64
}

// Server serves one Store over TCP. Create with New, start with Serve
// or ListenAndServe, stop with Drain (graceful) or Abort (simulated
// crash).
type Server struct {
	cfg  Config
	ln   net.Listener
	logf func(string, ...any)

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	// snapMu serialises snapshot saves (periodic ticker vs final drain).
	// Writers no longer take any server-global lock: each mutation runs
	// its oplog append inside the store's own per-stripe critical
	// section (ApplyBatch's committed callback), and the snapshot path
	// reads its oplog mark via SnapshotWriterAt with every stripe held
	// — the same applied==appended guarantee the old global RWMutex
	// provided, without a process-wide writer convoy.
	snapMu sync.Mutex
	// imagedMark is the oplog mark of the last image this server
	// completed (once snapshots > 0), guarded by snapMu.
	imagedMark uint64

	handlers   sync.WaitGroup // per-connection goroutines
	loops      sync.WaitGroup // snapshot ticker goroutine
	stop       chan struct{}  // closed by Drain/Abort
	acceptDone chan struct{}  // closed when the accept loop exits
	serving    atomic.Bool    // Serve was entered
	draining   atomic.Bool
	aborted    atomic.Bool
	oplogDead  atomic.Bool // a sticky oplog failure began a self-drain
	drainErr   error
	drained    sync.Once

	accepted                         stats.Counter
	connsActive                      stats.Gauge
	reads, writes, deletes, others   stats.Counter
	full, invalid, badreq, snapshots stats.Counter
	drainRejects                     stats.Counter
	bytesRead, bytesWritten          stats.Counter
	// opLat is the per-opcode request latency distribution in
	// nanoseconds, indexed by opcode (slot 0 collects unknown opcodes).
	// Histograms are lock-free and zero-value-ready, so the hot path
	// pays two atomic adds per request and registration needs no init.
	opLat          [wire.OpBatch + 1]stats.Histogram
	snapDur        stats.Histogram // snapshot capture+write duration, ns
	snapPause      stats.Histogram // snapshot's writers-excluded span (cut + capture), ns
	ackLat         stats.Histogram // write dispatch → durable-watermark release, ns
	batchFrameSize stats.Histogram // sub-ops per explicit OpBatch frame
	coalesceSize   stats.Histogram // mutations per coalesced pipelined run
	registry       *stats.Registry
}

// New validates cfg and builds a Server (not yet listening).
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: Config.Engine is required")
	}
	if st, ok := cfg.Engine.(*grouphash.Store); ok && !st.Concurrent() {
		return nil, fmt.Errorf("server: the store must be built with Options.Concurrent")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:        cfg,
		logf:       logf,
		conns:      make(map[net.Conn]struct{}),
		stop:       make(chan struct{}),
		acceptDone: make(chan struct{}),
		registry:   stats.NewRegistry(),
	}
	s.registerMetrics(s.registry)
	cfg.Engine.RegisterMetrics(s.registry, "gh")
	if cfg.Oplog != nil {
		cfg.Oplog.RegisterMetrics(s.registry, "gh")
	}
	return s, nil
}

// opNames maps opcodes to their metric label, indexed like opLat. An
// opcode without a label (0 and the retired 4) exports no histogram.
var opNames = [wire.OpBatch + 1]string{
	"", "ping", "get", "put", "", "delete", "len", "stats", "batch",
}

// registerMetrics exports the server's own counters, gauges and
// latency histograms into reg under the gh_server_ prefix.
func (s *Server) registerMetrics(reg *stats.Registry) {
	p := "gh_server_"
	reg.RegisterCounter(p+"connections_accepted_total", "", "Connections ever accepted.", s.accepted.Load)
	reg.RegisterGauge(p+"connections_active", "", "Currently open connections.",
		func() float64 { return float64(s.connsActive.Load()) })
	reg.RegisterCounter(p+"requests_total", stats.Label("class", "read"), "Requests served, by class.", s.reads.Load)
	reg.RegisterCounter(p+"requests_total", stats.Label("class", "write"), "", s.writes.Load)
	reg.RegisterCounter(p+"requests_total", stats.Label("class", "delete"), "", s.deletes.Load)
	reg.RegisterCounter(p+"requests_total", stats.Label("class", "other"), "", s.others.Load)
	reg.RegisterCounter(p+"errors_total", stats.Label("kind", "full"), "Non-OK request outcomes, by kind.", s.full.Load)
	reg.RegisterCounter(p+"errors_total", stats.Label("kind", "invalid_key"), "", s.invalid.Load)
	reg.RegisterCounter(p+"errors_total", stats.Label("kind", "bad_request"), "", s.badreq.Load)
	reg.RegisterCounter(p+"drain_rejects_total", "", "Writes answered StatusDraining after a drain began.", s.drainRejects.Load)
	reg.RegisterCounter(p+"snapshots_total", "", "Completed snapshot saves (periodic + final).", s.snapshots.Load)
	reg.RegisterCounter(p+"bytes_read_total", "", "Wire-protocol frame bytes read.", s.bytesRead.Load)
	reg.RegisterCounter(p+"bytes_written_total", "", "Wire-protocol frame bytes written.", s.bytesWritten.Load)
	reg.RegisterGauge(p+"draining", "", "1 once a drain has begun.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	for op, name := range opNames {
		if name == "" {
			continue
		}
		reg.RegisterHistogram(p+"request_latency_seconds", stats.Label("op", name),
			"Request dispatch latency by opcode (store + oplog append; excludes the group-commit fsync, which is amortised per batch).",
			1e-9, &s.opLat[op])
	}
	reg.RegisterHistogram(p+"batch_size", stats.Label("source", "frame"),
		"Sub-operations per applied batch: explicit OpBatch frames (source=frame) and coalesced pipelined mutation runs (source=coalesced).",
		1, &s.batchFrameSize)
	reg.RegisterHistogram(p+"batch_size", stats.Label("source", "coalesced"), "", 1, &s.coalesceSize)
	reg.RegisterHistogram(p+"snapshot_duration_seconds", "",
		"Snapshot duration, capture through durable image write.", 1e-9, &s.snapDur)
	reg.RegisterHistogram(p+"snapshot_pause_seconds", "",
		"Part of a snapshot that stalls writers: from the oplog cut, taken with every writer excluded, to the end of the page capture.", 1e-9, &s.snapPause)
	reg.RegisterHistogram(p+"ack_latency_seconds", "",
		"Acked-write latency: dispatch of a logged mutation until its response is released by the durable-LSN watermark (includes the group-commit wait).", 1e-9, &s.ackLat)
}

// AckLatency returns the acked-write latency distribution in
// nanoseconds: dispatch of a logged mutation until the durable-LSN
// watermark released its response. Empty without an oplog or with
// Config.DisableTiming set.
func (s *Server) AckLatency() *stats.HistSnapshot { return s.ackLat.Snapshot() }

// Registry returns the registry holding the server's (and its store's
// and oplog's) metrics — mount it at /metrics, or register more series
// into it (each series name once per registry). OpStats answers with
// the same exposition.
func (s *Server) Registry() *stats.Registry { return s.registry }

// Draining reports whether a drain (graceful shutdown) has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Ready reports whether the server is accepting and serving requests —
// the /healthz readiness condition, which flips false the moment a
// drain begins.
func (s *Server) Ready() bool { return s.serving.Load() && !s.draining.Load() }

// ListenAndServe listens on addr and serves until Drain.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Drain is called, then returns
// nil (any non-drain accept failure is returned as an error). The
// snapshot ticker starts here and stops at drain.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		// Drain or Abort ran before the listener was registered, so
		// nothing else will ever close it; Accept would block forever.
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	s.serving.Store(true)
	defer close(s.acceptDone)
	if s.cfg.SnapshotPath != "" && s.cfg.SnapshotEvery > 0 {
		s.loops.Add(1)
		go s.snapshotLoop()
	}
	s.logf("server: serving on %s", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.accepted.Inc()
		s.connsActive.Inc()
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		if s.draining.Load() {
			// Drain's deadline sweep may have run before this conn was
			// registered; nudge it ourselves so the drain cannot hang.
			conn.SetReadDeadline(time.Now())
		}
		s.mu.Unlock()
		s.handlers.Add(1)
		go s.handle(conn)
	}
}

// Drain gracefully shuts the server down: stop accepting, answer the
// writes each connection has already buffered with StatusDraining
// (reads are still served), flush the responses, close the
// connections, and — when snapshots are configured — save a final
// image containing every acked write. The oplog, if any, is truncated
// to the final image and closed. Safe to call more than once; later
// calls return the first call's result after it completes.
func (s *Server) Drain() error {
	s.drained.Do(func() {
		s.draining.Store(true)
		close(s.stop)
		s.mu.Lock()
		if s.ln != nil {
			s.ln.Close()
		}
		// Kick handlers out of blocking reads; requests already in
		// their userspace buffers are still answered (reads served,
		// writes refused) before they exit.
		now := time.Now()
		for conn := range s.conns {
			conn.SetReadDeadline(now)
		}
		s.mu.Unlock()
		if s.serving.Load() {
			// The accept loop must exit before handlers.Wait: a conn
			// accepted just before the listener closed is only counted
			// into the WaitGroup by the loop's final iteration.
			<-s.acceptDone
		}
		s.handlers.Wait()
		s.loops.Wait()
		if s.cfg.SnapshotPath != "" {
			s.drainErr = s.snapshot("final")
		}
		if s.cfg.Oplog != nil {
			if err := s.cfg.Oplog.Close(); err != nil && s.drainErr == nil {
				s.drainErr = err
			}
		}
		s.logf("server: drained (%d conns served, %d writes, %d reads, %d writes refused)",
			s.accepted.Load(), s.writes.Load(), s.reads.Load(), s.drainRejects.Load())
	})
	return s.drainErr
}

// Abort hard-stops the server with none of the drain protocol: the
// listener and every connection are closed immediately, nothing else
// is flushed or acked, no final snapshot is taken, and the oplog is
// left exactly as the crash would find it. It is the in-process
// analogue of kill -9, built for crash-torture tests; production
// shutdown wants Drain. Unlike a real crash it does wait for the
// per-connection goroutines to finish dying, so the caller can inspect
// the on-disk state race-free.
func (s *Server) Abort() {
	s.aborted.Store(true)
	s.drained.Do(func() {
		s.draining.Store(true)
		close(s.stop)
		s.mu.Lock()
		if s.ln != nil {
			s.ln.Close()
		}
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		if s.serving.Load() {
			<-s.acceptDone
		}
		s.handlers.Wait()
		s.loops.Wait()
		s.logf("server: aborted (simulated crash)")
	})
}

// oplogFailure reacts to a failed oplog sync. The log's error is
// sticky — its durable prefix is unknown and nothing can ever be
// acked on it again — so staying up would leave a zombie server that
// keeps applying store mutations no client will ever see acked (and
// whose reads expose them). Refuse further writes and begin a drain;
// the goroutine is required because the failing handler itself must
// exit before Drain's handlers.Wait can complete.
func (s *Server) oplogFailure(err error) {
	if s.oplogDead.Swap(true) || s.draining.Load() {
		return
	}
	s.logf("server: oplog failure is sticky, nothing can be acked again; shutting down: %v", err)
	go s.Drain()
}

// snapshotLoop saves periodic background images until drain.
// SnapshotNow saves an on-demand image (same protocol as the periodic
// and final snapshots: capture under writer exclusion, rotate the
// oplog, truncate covered segments). For chaos schedules and
// operational tooling that want a snapshot/reload cycle at a moment of
// their choosing. Requires SnapshotPath.
func (s *Server) SnapshotNow() error {
	if s.cfg.SnapshotPath == "" {
		return errors.New("server: SnapshotNow without a SnapshotPath")
	}
	return s.snapshot("requested")
}

func (s *Server) snapshotLoop() {
	defer s.loops.Done()
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if err := s.snapshot("periodic"); err != nil {
				s.logf("server: periodic snapshot failed: %v", err)
			}
		}
	}
}

// errAborted reports a snapshot cut short by Abort — the simulated
// crash landed between the snapshot's durable steps.
var errAborted = errors.New("server: aborted mid-snapshot")

// snapshot saves one image. The capture runs under the store's own
// writer-exclusion window (SnapshotWriterAt quiesces every stripe).
// With an oplog the cut reads the log's high-water mark M and rotates
// the log there, with writers parked on their stripe locks; the image
// is written outside the window and finally the log segments it covers
// are deleted. A crash between any two of those durable steps is safe:
// the rotation alone changes nothing replay-visible, an image that
// never lands leaves the old image + full log, and a missing truncation
// leaves covered segments that replay skips by LSN. Without an oplog
// the mark is 0.
//
// A periodic snapshot with an oplog skips the whole cycle while the
// log's last LSN is still the mark of the last image this server
// completed, so an idle store is not rewritten; the final and
// requested snapshots never skip.
func (s *Server) snapshot(kind string) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	lg := s.cfg.Oplog
	if kind == "periodic" && lg != nil && s.snapshots.Load() > 0 && lg.LastLSN() == s.imagedMark {
		return nil
	}
	start := time.Now()
	var mark uint64
	var paused time.Time
	write, err := s.cfg.Engine.SnapshotWriterAt(func() (uint64, error) {
		paused = time.Now()
		if lg == nil {
			return 0, nil
		}
		// All stripes are held here: no (apply, append) pair is in
		// flight, so the log's last LSN is exactly the image's content.
		mark = lg.LastLSN()
		return mark, lg.Rotate()
	})
	if err != nil {
		return err
	}
	s.snapPause.Observe(uint64(time.Since(paused)))
	if s.aborted.Load() {
		return errAborted // crash point: captured (and rotated), image never written
	}
	if err := write(s.cfg.SnapshotPath); err != nil {
		return err
	}
	s.imagedMark = mark
	s.snapshots.Inc()
	s.snapDur.Observe(uint64(time.Since(start)))
	if lg != nil {
		if s.aborted.Load() {
			return errAborted // crash point: image durable, log not yet truncated
		}
		if err := lg.TruncateThrough(mark); err != nil {
			// Non-fatal: covered segments merely linger; replay skips them.
			s.logf("server: oplog truncation after %s snapshot: %v", kind, err)
		}
	}
	s.logf("server: %s snapshot (%d items, oplog mark %d) in %s",
		kind, s.cfg.Engine.Len(), mark, time.Since(start).Round(time.Millisecond))
	return nil
}

// ackChunkCap caps how many applied responses the reader accumulates
// before handing them to the acker even when the client keeps
// streaming, and ackQueueChunks bounds the chunks in flight between
// the two goroutines. A full queue blocks the reader, so a client
// that streams requests without reading responses holds at most
// ackQueueChunks×ackChunkCap unreleased acks in memory.
const (
	ackChunkCap    = 1024
	ackQueueChunks = 8
)

// pendingResp is one applied request parked on the completion queue
// until the durable-LSN watermark covers it. A batch frame's N packed
// sub-responses park as ONE entry (batch non-nil, resp unused) whose
// lsn is the frame's highest sub-op LSN — the all-or-nothing ack.
type pendingResp struct {
	resp  wire.Response
	batch *respBuf  // non-nil: an OpBatch frame's pooled sub-responses
	lsn   uint64    // oplog LSN the ack must not precede to the wire; 0 = unlogged
	start time.Time // dispatch time for the ack-latency histogram; zero when untimed
}

// handle runs one connection as a two-goroutine pipeline. The reader
// (this goroutine) decodes frames — single requests and OpBatch
// frames — applies them, and accumulates the responses — each with
// the oplog LSN its ack must wait for — into a pooled chunk that is
// pushed onto the per-connection completion queue at the pipelining
// boundaries: when the input buffer runs dry (the next read would
// block) or the chunk hits ackChunkCap. Cutting chunks at input-dry
// points is load-bearing — one client burst becomes one chunk, so the
// acker parks in WaitDurable once per burst rather than once per
// response, and a lone request is still released immediately.
//
// Mutations are not dispatched one at a time: consecutive single-frame
// Put/Delete requests within a burst are coalesced and applied
// together through the store's stripe-grouped batch path (one lock
// acquisition + one oplog append + one count persist per stripe-run),
// flushing whenever program order could become observable — before any
// read or other non-mutation, before a batch frame, at every chunk cut,
// and when the burst ends. A pipelined stream of N puts therefore costs
// a handful of lock acquisitions and log appends instead of N of each,
// while every response still answers its own request in order.
//
// The acker goroutine releases chunks: one WaitDurable on the chunk's
// highest LSN (the log's committer goroutine owns the fsync clock;
// parking there closes the open commit window, or the next one if an
// fsync is in flight, and one fsync releases every connection waiting
// on it), then write and flush. Decoupling apply
// from ack is what makes the fsync cheap: the reader keeps applying
// and staging log records for the NEXT burst while the acker waits on
// the fsync for the previous one, so a deep-pipelining client never
// stalls the store on an fsync. If a wait fails, the connection is
// torn down with its responses unwritten — nothing non-durable is
// ever acked.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.connsActive.Dec()
		s.handlers.Done()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	rr := wire.NewRequestReader(br)
	queue := make(chan *pendingChunk, ackQueueChunks)
	ackerDone := make(chan struct{})
	go s.acker(conn, queue, ackerDone)
	timing := !s.cfg.DisableTiming
	ba := newBatchState(s)
	pc := getChunk()
	for {
		req, subs, err := rr.Next()
		if err != nil {
			// Clean close, drain deadline, or protocol garbage: the
			// acker releases everything already applied (those become
			// acked, so their log records must be durable first), then
			// the connection hangs up.
			ba.flushCoalesced(pc.resps, timing)
			if len(pc.resps) > 0 {
				queue <- pc
			} else {
				putChunk(pc)
			}
			close(queue)
			<-ackerDone
			return
		}
		switch {
		case req.Op == wire.OpBatch:
			ba.flushCoalesced(pc.resps, timing)
			pc.resps = append(pc.resps, s.serveBatchFrame(subs, ba, timing))
		case req.Op == wire.OpPut || req.Op == wire.OpDelete:
			// Stage the mutation and park a placeholder at its response
			// slot; flushCoalesced fills it before anything can observe
			// or release it.
			s.countClass(req.Op)
			var pr pendingResp
			if timing {
				pr.start = time.Now()
				s.bytesRead.Add(4 + wire.ReqBodyLen)
				s.bytesWritten.Add(4 + wire.RespFixedLen)
			}
			pc.resps = append(pc.resps, pr)
			ba.stage(req, len(pc.resps)-1)
		default:
			ba.flushCoalesced(pc.resps, timing)
			var pr pendingResp
			if timing {
				start := time.Now()
				pr.resp = s.dispatch(req)
				op := int(req.Op)
				if op >= len(s.opLat) {
					op = 0
				}
				s.opLat[op].Observe(uint64(time.Since(start)))
				s.bytesRead.Add(4 + wire.ReqBodyLen)
				s.bytesWritten.Add(uint64(4 + wire.RespFixedLen + len(pr.resp.Extra)))
			} else {
				pr.resp = s.dispatch(req)
			}
			pc.resps = append(pc.resps, pr)
		}
		if br.Buffered() == 0 || len(pc.resps) >= ackChunkCap {
			ba.flushCoalesced(pc.resps, timing)
			queue <- pc // ownership moves to the acker, which recycles it
			pc = getChunk()
		}
	}
}

// acker is a connection's release half: it drains completion-queue
// chunks in arrival order, holds each (merged with any chunks already
// queued behind it) until the log's durable watermark passes its
// highest LSN, then writes the responses and records their ack
// latency. Responses reach bw only after their covering WaitDurable,
// so bufio can never auto-flush an ack whose record is still
// volatile. Chunks (and the batch-response buffers they carry) are
// returned to their pools once written — on every exit path — with
// their entries zeroed so the pools retain no references. On a wait
// or write failure it closes the connection with the batch unacked
// and keeps consuming the queue so the reader can exit.
func (s *Server) acker(conn net.Conn, queue <-chan *pendingChunk, done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var held []*pendingChunk
	discard := func() {
		conn.Close()
		for _, pc := range held {
			putChunk(pc)
		}
		held = held[:0]
		for pc := range queue { // unblock the reader until it closes the queue
			putChunk(pc)
		}
	}
	for {
		first, ok := <-queue
		if !ok {
			bw.Flush()
			return
		}
		held = append(held[:0], first)
		open := true
	gather:
		for {
			select {
			case more, ok := <-queue:
				if !ok {
					open = false
					break gather
				}
				held = append(held, more)
			default:
				break gather
			}
		}
		var hi uint64
		for _, pc := range held {
			for i := range pc.resps {
				if pc.resps[i].lsn > hi {
					hi = pc.resps[i].lsn
				}
			}
		}
		if hi > 0 {
			if err := s.cfg.Oplog.WaitDurable(hi); err != nil {
				s.logf("server: oplog wait failed, closing connection unacked: %v", err)
				s.oplogFailure(err)
				discard()
				return
			}
		}
		now := time.Now()
		for _, pc := range held {
			for i := range pc.resps {
				p := &pc.resps[i]
				if !p.start.IsZero() {
					s.ackLat.Observe(uint64(now.Sub(p.start)))
				}
				var werr error
				if p.batch != nil {
					werr = wire.WriteBatchResponses(bw, p.batch.resps)
					putRespBuf(p.batch)
					p.batch = nil
				} else {
					werr = wire.WriteResponse(bw, p.resp)
				}
				if werr != nil {
					discard()
					return
				}
			}
		}
		for _, pc := range held {
			putChunk(pc)
		}
		held = held[:0]
		if !open {
			bw.Flush()
			return
		}
		if err := bw.Flush(); err != nil {
			discard()
			return
		}
	}
}

// dispatch executes one non-mutating request against the store.
// Mutations never come here: the reader stages them for ApplyBatch
// (flushCoalesced, serveBatchFrame).
func (s *Server) dispatch(req wire.Request) wire.Response {
	switch req.Op {
	case wire.OpPing:
		s.others.Inc()
		return wire.Response{Status: wire.StatusOK}
	case wire.OpGet:
		s.reads.Inc()
		v, ok := s.cfg.Engine.Get(req.Key)
		if !ok {
			return wire.Response{Status: wire.StatusNotFound}
		}
		return wire.Response{Status: wire.StatusOK, Value: v}
	case wire.OpLen:
		s.others.Inc()
		return wire.Response{Status: wire.StatusOK, Value: s.cfg.Engine.Len()}
	case wire.OpStats:
		s.others.Inc()
		return wire.Response{Status: wire.StatusOK, Extra: s.exposition()}
	default:
		s.badreq.Inc()
		return wire.Response{Status: wire.StatusBadRequest}
	}
}

// errResponse maps store write errors to wire statuses.
func (s *Server) errResponse(err error) wire.Response {
	switch {
	case errors.Is(err, hashtab.ErrTableFull):
		s.full.Inc()
		return wire.Response{Status: wire.StatusFull}
	case errors.Is(err, hashtab.ErrInvalidKey):
		s.invalid.Inc()
		return wire.Response{Status: wire.StatusInvalidKey}
	default:
		s.badreq.Inc()
		return wire.Response{Status: wire.StatusBadRequest}
	}
}

// Stats returns the server's request counters.
func (s *Server) Stats() Metrics {
	return Metrics{
		Reads:   s.reads.Load(),
		Writes:  s.writes.Load(),
		Deletes: s.deletes.Load(),
		Others:  s.others.Load(),
	}
}

// exposition renders the registry for OpStats: the bytes GET /metrics
// serves, cut at a line boundary when they exceed the frame limit so
// what does fit still parses.
func (s *Server) exposition() []byte {
	var buf bytes.Buffer
	s.registry.WritePrometheus(&buf)
	b := buf.Bytes()
	if max := wire.MaxFrame - wire.RespFixedLen; len(b) > max {
		b = b[:max]
		if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
			b = b[:i+1]
		}
	}
	return b
}
