package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"

	"grouphash/internal/harness"
	"grouphash/internal/stats"
	"grouphash/internal/wire"
)

// The batch experiment measures what end-to-end batching buys: acked
// throughput through a real server over loopback TCP when the same
// operations travel as pipelined single frames (the server coalesces
// them transparently) versus explicit OpBatch frames of 1, 8, 64 and
// 256 sub-ops. Every shape keeps the same number of operations in
// flight per connection, so the comparison isolates framing and apply
// shape from pipelining depth. Each row also reports the two write
// amplification counters batching amortises — oplog AppendBatch calls
// (lock acquisitions + group-commit staging) and count-word persist
// barriers — and the process-wide allocation rate over the measured
// phase, which the pooled serving loop is required to hold near zero.

// batchRow is one (workload, shape) cell of the batch experiment.
type batchRow struct {
	Workload string  `json:"workload"` // get, put, mixed
	Shape    string  `json:"shape"`    // "single-coalesced" or "batch-frames"
	Batch    int     `json:"batch"`    // sub-ops per OpBatch frame (0 = single frames)
	Conns    int     `json:"conns"`
	Ops      int     `json:"ops"` // measured acked operations
	WallMs   float64 `json:"wall_ms"`
	KopsSec  float64 `json:"kops_per_sec"`
	// Speedup vs the same workload's single-coalesced baseline (1.0
	// for the baseline row itself).
	Speedup float64 `json:"speedup_vs_single"`
	// Process-wide heap allocations per acked op over the measured
	// phase (server + allocation-free clients in one process, after a
	// warmup phase and a forced GC). The steady-state serving loop is
	// pooled, so this should stay well below one allocation per op.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Durability write amplification, per thousand acked ops: oplog
	// AppendBatch calls and table count-word persists. Both drop as
	// runs lengthen; zero for the pure-get workload.
	OplogAppendsPerKop  float64 `json:"oplog_appends_per_kop"`
	CountPersistsPerKop float64 `json:"count_persists_per_kop"`
}

// batchBurst is the number of operations every shape keeps in flight
// per connection: the baseline pipelines batchBurst single frames per
// write, and frame shapes send batchBurst/B OpBatch frames per write.
const batchBurst = 256

// batchKeyspan is the per-connection preloaded key range gets cycle
// over (always hitting); puts target fresh keys beyond it, so every
// put is a genuine insert that moves the count word — the persist the
// stripe-grouped apply amortises.
const batchKeyspan = 4096

// batchWorker drives one raw connection with reused buffers: the
// request byte buffer, the sub-op slice, the response slice and the
// channels that pace bursts are allocated once, so the client side
// contributes (near) nothing to the measured allocation rate. The
// calling goroutine builds and sends bursts; a reader goroutine
// consumes their responses in send order, so up to c.inflight bursts
// are on the wire at once.
type batchWorker struct {
	c     cell
	conn  net.Conn
	br    *bufio.Reader
	buf   []byte
	subs  []wire.Request
	resps []wire.Response
	base  uint64         // first key of this connection's range (exclusive, +1)
	next  uint64         // rotating get cursor into [1, c.preload]
	fresh uint64         // monotonic put cursor beyond the preloaded span
	slots chan struct{}  // one token per burst in flight
	sent  chan time.Time // send time of each burst in flight, in send order
	done  chan struct{}  // the reader has consumed every burst of a run
}

func newBatchWorker(conn net.Conn, c cell, base uint64) *batchWorker {
	return &batchWorker{
		c:     c,
		conn:  conn,
		br:    bufio.NewReaderSize(conn, 64<<10),
		buf:   make([]byte, 0, c.burst*32),
		subs:  make([]wire.Request, c.burst),
		resps: make([]wire.Response, c.burst),
		base:  base,
		slots: make(chan struct{}, max(c.inflight, 1)),
		sent:  make(chan time.Time, max(c.inflight, 1)),
		done:  make(chan struct{}),
	}
}

// run acks bursts bursts: fill each for the workload and ship it as
// single frames (frame 0) or OpBatch frames of c.frame sub-ops once
// fewer than c.inflight bursts are unanswered, then return when the
// reader has checked every response. With rtt set, each burst's round
// trip (send → last response) is observed into it.
func (w *batchWorker) run(bursts int, rtt *stats.Histogram) {
	go w.read(bursts, rtt)
	for b := 0; b < bursts; b++ {
		w.fill()
		w.slots <- struct{}{}
		w.sent <- time.Now()
		_, err := w.conn.Write(w.buf)
		check(err)
	}
	<-w.done
}

// fill builds the next burst's sub-ops and their wire bytes: gets
// cycle over the preloaded keys, puts insert fresh keys past them.
func (w *batchWorker) fill() {
	span := uint64(w.c.preload)
	for j := range w.subs {
		op, k := byte(wire.OpPut), w.base+span+w.fresh+1
		if w.c.workload == "get" || w.c.workload == "mixed" && j&1 == 0 {
			op, k = wire.OpGet, w.base+w.next%span+1
			w.next++
		} else {
			w.fresh++
		}
		w.subs[j] = wire.Request{Op: op, Key: benchKey(k), Value: k}
	}
	w.buf = w.buf[:0]
	for off := 0; off < len(w.subs); off += max(w.c.frame, 1) {
		if w.c.frame == 0 {
			w.buf = wire.AppendRequest(w.buf, w.subs[off])
			continue
		}
		var err error
		w.buf, err = wire.AppendBatchRequest(w.buf, w.subs[off:min(off+w.c.frame, len(w.subs))])
		check(err)
	}
}

// read consumes bursts bursts of responses in send order, panicking on
// anything but StatusOK, and frees a slot after each.
func (w *batchWorker) read(bursts int, rtt *stats.Histogram) {
	for b := 0; b < bursts; b++ {
		t0 := <-w.sent
		for off := 0; off < len(w.resps); off += max(w.c.frame, 1) {
			var err error
			if w.c.frame == 0 {
				w.resps[off], err = wire.ReadResponse(w.br)
			} else {
				err = wire.ReadBatchResponses(w.br, w.resps[off:min(off+w.c.frame, len(w.resps))])
			}
			check(err)
		}
		for _, resp := range w.resps {
			if resp.Status != wire.StatusOK {
				panic(fmt.Sprintf("batch worker: status %d", resp.Status))
			}
		}
		if rtt != nil {
			rtt.Observe(uint64(time.Since(t0)))
		}
		<-w.slots
	}
	w.done <- struct{}{}
}

// sweepCell is the one shape the batch and engines experiments sweep:
// 16 connections, each keeping one batchBurst-op burst in flight
// against an adaptive-oplog flagship server with batchKeyspan keys
// preloaded per connection, measured over 131,072–262,144 ops (short
// runs drown the speedup ratios in startup noise) after warmBursts
// bursts per connection. The sweeps set the frame size and the engine.
func sweepCell(scale harness.Scale, workload string, warmBursts int) cell {
	const conns = 16
	return cell{
		engine: "grouphash", capacity: 1 << 19, log: &adaptiveLog, preload: batchKeyspan,
		workload: workload, conns: conns, burst: batchBurst, inflight: 1,
		warm: conns * batchBurst * warmBursts, ops: min(max(scale.Ops, 131_072), 262_144),
	}
}

// runBatchExperiment sweeps workload × frame shape on the flagship,
// best of five per cell (throughput decides; the counter ratios of the
// winning run are kept), and folds every row into the JSON report. The
// speedup reference of each workload is the single-op pipelined
// baseline, which the server coalesces transparently; explicit frames
// must beat that.
func runBatchExperiment(w io.Writer, scale harness.Scale, report *jsonReport) {
	shapes := []struct {
		label string
		frame int
	}{
		{"single-coalesced", 0},
		{"batch=1", 1},
		{"batch=8", 8},
		{"batch=64", 64},
		{"batch=256", 256},
	}
	for _, workload := range []string{"get", "put", "mixed"} {
		c := sweepCell(scale, workload, 4)
		fmt.Fprintf(w, "Batched throughput, %s workload (loopback TCP, %d conns, %d ops in flight per conn, adaptive oplog):\n",
			workload, c.conns, c.burst)
		var baseline float64
		for _, sh := range shapes {
			c.frame = sh.frame
			r := c.best(5)
			if baseline == 0 {
				baseline = r.kopsSec()
			}
			shape := "batch-frames"
			if sh.frame == 0 {
				shape = "single-coalesced"
			}
			row := batchRow{
				Workload: workload, Shape: shape, Batch: sh.frame, Conns: c.conns, Ops: r.ops,
				WallMs: r.wallMs(), KopsSec: r.kopsSec(), Speedup: r.kopsSec() / baseline,
				AllocsPerOp:         r.perOp(r.mallocs),
				OplogAppendsPerKop:  r.perKop(r.appends),
				CountPersistsPerKop: r.perKop(r.persists),
			}
			fmt.Fprintf(w, "  %-16s %8d ops  %8.1f ms  %8.1f kops/s  speedup %.2fx  allocs/op %6.3f  appends/kop %7.2f  persists/kop %7.2f\n",
				sh.label, row.Ops, row.WallMs, row.KopsSec, row.Speedup,
				row.AllocsPerOp, row.OplogAppendsPerKop, row.CountPersistsPerKop)
			report.BatchThroughput = append(report.BatchThroughput, row)
		}
	}
}
