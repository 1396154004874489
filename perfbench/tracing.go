package main

import (
	"net"
	"sync/atomic"
	"time"

	"grouphash/internal/core"
	"grouphash/internal/engine"
	"grouphash/internal/layout"
	"grouphash/internal/stats"
)

// The traced run measures layers only from outside the program: a
// decorator around the engine handed to server.Config.Engine and a
// wrapper around the listener handed to Server.Serve. The untraced run
// hands the server the raw engine and listener.

// tracedEngine times the two engine calls the serving loop makes per
// request: Get for reads, ApplyBatch (with its committed callback, where
// the server appends to the oplog) for every coalesced run and batch
// frame. Every other method passes straight through.
type tracedEngine struct {
	engine.Engine

	gets, getNs atomic.Uint64
	getLat      stats.Histogram // per-Get wall time, ns

	applies, applyOps, applyNs atomic.Uint64
	// commits and commitNs time the committed callback; records counts
	// the applied indices handed to it (one oplog record each).
	commits, commitNs, records atomic.Uint64
}

var _ engine.Engine = (*tracedEngine)(nil)

func (t *tracedEngine) Get(k layout.Key) (uint64, bool) {
	t0 := time.Now()
	v, ok := t.Engine.Get(k)
	d := uint64(time.Since(t0))
	t.gets.Add(1)
	t.getNs.Add(d)
	t.getLat.Observe(d)
	return v, ok
}

func (t *tracedEngine) ApplyBatch(ops []core.BatchOp, out []core.BatchResult, sc *core.BatchScratch, committed func(applied []int)) {
	inner := committed
	if committed != nil {
		inner = func(applied []int) {
			c0 := time.Now()
			committed(applied)
			t.commitNs.Add(uint64(time.Since(c0)))
			t.commits.Add(1)
			t.records.Add(uint64(len(applied)))
		}
	}
	t0 := time.Now()
	t.Engine.ApplyBatch(ops, out, sc, inner)
	t.applyNs.Add(uint64(time.Since(t0)))
	t.applies.Add(1)
	t.applyOps.Add(uint64(len(ops)))
}

// engineCounts is a point-in-time copy of a tracedEngine's counters.
type engineCounts struct {
	gets, getNs                uint64
	getLat                     *stats.HistSnapshot
	applies, applyOps, applyNs uint64
	commits, commitNs, records uint64
}

func (t *tracedEngine) snapshot() engineCounts {
	return engineCounts{
		gets: t.gets.Load(), getNs: t.getNs.Load(), getLat: t.getLat.Snapshot(),
		applies: t.applies.Load(), applyOps: t.applyOps.Load(), applyNs: t.applyNs.Load(),
		commits: t.commits.Load(), commitNs: t.commitNs.Load(), records: t.records.Load(),
	}
}

// connStats aggregates the server side of every accepted connection:
// the socket calls and their timing, which the server's own series do
// not show (it counts bytes, in gh_server_bytes_*_total). residenceNs
// sums, per burst, the time from the Read that brought the burst's
// first bytes to the first Write of its responses: everything the
// server did for the burst before answering.
type connStats struct {
	reads, writes, writeNs, bursts, residenceNs atomic.Uint64
}

type connCounts struct {
	reads, writes, writeNs, bursts, residenceNs uint64
}

func (c *connStats) snapshot() connCounts {
	return connCounts{
		reads: c.reads.Load(), writes: c.writes.Load(),
		writeNs: c.writeNs.Load(), bursts: c.bursts.Load(), residenceNs: c.residenceNs.Load(),
	}
}

// tracedListener hands the server connections that count their socket
// calls into st.
type tracedListener struct {
	net.Listener
	st *connStats
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, st: l.st}, nil
}

// epoch anchors the monotonic stamps a tracedConn keeps in an integer.
var epoch = time.Now()

type tracedConn struct {
	net.Conn
	st *connStats
	// burstStart is the monotonic stamp (ns since epoch, never 0) of
	// the Read that opened the current burst; 0 while none is open. The
	// server reads on one goroutine and writes on another, so it is
	// atomic. With one burst in flight per connection, the next burst's
	// bytes cannot arrive before this one is answered.
	burstStart atomic.Int64
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.reads.Add(1)
	if n > 0 {
		c.burstStart.CompareAndSwap(0, int64(time.Since(epoch))+1)
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	now := int64(time.Since(epoch)) + 1
	if s := c.burstStart.Swap(0); s != 0 {
		c.st.residenceNs.Add(uint64(now - s))
		c.st.bursts.Add(1)
	}
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.st.writeNs.Add(uint64(time.Since(t0)))
	c.st.writes.Add(1)
	return n, err
}
