package main

import (
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"grouphash/internal/core"
	"grouphash/internal/engine"
	"grouphash/internal/layout"
	"grouphash/internal/oplog"
	"grouphash/internal/server"
	"grouphash/internal/stats"
)

// The serving experiments (batch, engines, oplog, metrics, workload)
// are one comparison over the wire, so they share one harness: a cell
// boots a fresh serving stack — engine, operation log, server, loopback
// listener — preloads it, drives it with the allocation-free
// batchWorker on every connection, and reads the counters the rows
// report around a measured phase.

// adaptiveLog is the (T, B) commit window the server ships with.
var adaptiveLog = oplog.Config{SyncEvery: 100 * time.Microsecond, SyncBytes: 64 << 10, PreallocBytes: 4 << 20}

// cell is one serving configuration and the load that measures it.
type cell struct {
	engine   string        // an engine.Names() entry
	capacity uint64        // the engine's target capacity
	log      *oplog.Config // nil: serve without an operation log
	untimed  bool          // server.Config.DisableTiming
	preload  int           // keys preloaded per connection; gets cycle over them, puts go past them
	workload string        // get, put or mixed
	conns    int
	burst    int // ops per burst
	frame    int // sub-ops per OpBatch frame; 0 ships pipelined single frames
	inflight int // bursts in flight per connection
	warm     int // warm-up ops across all connections, on the measured connections
	ops      int // measured ops across all connections
}

// cellResult is what one run of a cell measured. The counters are
// deltas over the measured phase; ack covers the server's lifetime.
type cellResult struct {
	ops             int // acked ops: the whole bursts the measured phase sent
	wall            time.Duration
	mallocs         uint64 // process-wide heap allocations
	appends, fsyncs uint64 // oplog AppendBatch calls and fsyncs
	persists        uint64 // table count-word persists (flagship only)
	ack             *stats.HistSnapshot
	rtt             *stats.HistSnapshot // one observation per measured burst
	items, capacity uint64
	loadFactor      float64
}

func (r cellResult) wallMs() float64 { return float64(r.wall.Nanoseconds()) / 1e6 }

func (r cellResult) kopsSec() float64 { return float64(r.ops) / r.wallMs() }

// perOp and perKop normalise a counter by the acked ops.
func (r cellResult) perOp(n uint64) float64  { return float64(n) / float64(r.ops) }
func (r cellResult) perKop(n uint64) float64 { return 1000 * r.perOp(n) }

// quantileUs reads a latency quantile in microseconds.
func quantileUs(h *stats.HistSnapshot, q float64) float64 { return h.Quantile(q) / 1e3 }

// check panics on a setup error: a benchmark that cannot boot has
// nothing to report.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// benchKey is the key the serving experiments write and read for id k.
func benchKey(k uint64) layout.Key { return layout.Key{Lo: k, Hi: k * 0x9e3779b97f4a7c15} }

// stack is one booted serving stack.
type stack struct {
	eng    engine.Engine
	lg     *oplog.Log // nil without a log
	srv    *server.Server
	addr   string
	dir    string
	served chan error
}

// boot starts a fresh serving stack for c: engine → oplog → server →
// loopback listener.
func (c cell) boot() *stack {
	eng, err := engine.New(engine.Spec{Name: c.engine, Capacity: c.capacity})
	check(err)
	s := &stack{eng: eng, served: make(chan error, 1)}
	if c.log != nil {
		s.dir, err = os.MkdirTemp("", "ghbench-*")
		check(err)
		s.lg, err = oplog.OpenConfig(filepath.Join(s.dir, "oplog"), 1, *c.log)
		check(err)
	}
	s.srv, err = server.New(server.Config{Engine: eng, Oplog: s.lg, DisableTiming: c.untimed})
	check(err)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	s.addr = ln.Addr().String()
	go func() { s.served <- s.srv.Serve(ln) }()
	return s
}

// stop drains the server, which closes the log, and removes the log.
func (s *stack) stop() {
	check(s.srv.Drain())
	<-s.served
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// run measures c once: boot, preload every connection's key range
// through ApplyBatch, warm up on the connections the measured phase
// uses, then a measured phase bracketed by a GC, MemStats and counter
// snapshots.
func (c cell) run() cellResult {
	s := c.boot()
	defer s.stop()
	c.preloadInto(s.eng)

	warmBursts, bursts := c.warm/(c.conns*c.burst), c.ops/(c.conns*c.burst)
	var rtt stats.Histogram
	var warm, wg sync.WaitGroup
	warm.Add(c.conns)
	wg.Add(c.conns)
	gate := make(chan struct{})
	for i := 0; i < c.conns; i++ {
		go func(i int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", s.addr, 2*time.Second)
			check(err)
			defer conn.Close()
			w := newBatchWorker(conn, c, uint64(i+1)<<40)
			w.run(warmBursts, nil)
			warm.Done()
			<-gate
			w.run(bursts, &rtt)
		}(i)
	}
	warm.Wait()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	appends0, fsyncs0, persists0 := s.counters()
	start := time.Now()
	close(gate)
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	appends, fsyncs, persists := s.counters()
	items, capacity := s.eng.Len(), s.eng.Capacity()

	return cellResult{
		ops: c.conns * bursts * c.burst, wall: wall,
		mallocs: m1.Mallocs - m0.Mallocs,
		appends: appends - appends0, fsyncs: fsyncs - fsyncs0, persists: persists - persists0,
		ack: s.srv.AckLatency(), rtt: rtt.Snapshot(),
		items: items, capacity: capacity, loadFactor: float64(items) / float64(capacity),
	}
}

// best runs c reps times and keeps the fastest run: each is a fresh
// server and a fraction of a second of wall time, so scheduler and disk
// noise dominate a single run, and the fastest is the honest capability
// number.
func (c cell) best(reps int) cellResult {
	var b cellResult
	for i := 0; i < reps; i++ {
		if r := c.run(); i == 0 || r.kopsSec() > b.kopsSec() {
			b = r
		}
	}
	return b
}

// preloadInto puts c.preload keys per connection directly into the
// engine: the keys connection i's gets cycle over.
func (c cell) preloadInto(eng engine.Engine) {
	ops := make([]core.BatchOp, c.preload)
	out := make([]core.BatchResult, c.preload)
	for i := 0; i < c.conns; i++ {
		base := uint64(i+1) << 40
		for n := range ops {
			k := base + uint64(n) + 1
			ops[n] = core.BatchOp{Kind: core.BatchPut, Key: benchKey(k), Value: k}
		}
		eng.ApplyBatch(ops, out, nil, nil)
		for _, r := range out {
			check(r.Err)
		}
	}
}

// counters reads the oplog's append and fsync counts and the table's
// count-word persists (zero for what the stack does not have).
func (s *stack) counters() (appends, fsyncs, persists uint64) {
	if s.lg != nil {
		appends, fsyncs = s.lg.Appends(), s.lg.Fsyncs()
	}
	if p, ok := s.eng.(interface{ CountPersists() uint64 }); ok {
		persists = p.CountPersists()
	}
	return appends, fsyncs, persists
}
