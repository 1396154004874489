package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"grouphash"
	"grouphash/internal/harness"
	"grouphash/internal/layout"
	"grouphash/internal/oplog"
	"grouphash/internal/server"
	"grouphash/internal/stats"
	"grouphash/internal/wire"
)

// The oplog experiment measures what the durability contract costs:
// acked-write throughput through a real server over loopback TCP,
// without the operation log, with a zero-length commit window (fsync
// as soon as a write is staged), and with the (T, B) windows the
// server ships with. Pipelining is the whole story — the more writes
// are staged while an fsync is in flight, the more acked writes share
// the next one (a waiting ack closes a window at once, so the (T, B)
// window only bounds writes nobody waits on) — so each row
// also reports the fsync count and the ack-latency tail the batching
// buys that throughput with.

// oplogThroughputRow is one (mode, shape) measurement of pipelined
// acked writes through the network server.
type oplogThroughputRow struct {
	Mode     string  `json:"mode"`  // "no-oplog", "oplog-zero-window", "oplog-100us-64KiB", ...
	Conns    int     `json:"conns"` // concurrent client connections
	Batch    int     `json:"batch"` // requests per pipelined batch
	Depth    int     `json:"depth"` // batches in flight per connection
	Ops      int     `json:"ops"`   // total acked writes
	WallMs   float64 `json:"wall_ms"`
	KopsSec  float64 `json:"kops_per_sec"`
	Slowdown float64 `json:"slowdown_vs_baseline"` // 1.0 for the baseline row
	Fsyncs   uint64  `json:"fsyncs,omitempty"`     // log fsyncs over the run
	// Server-side ack latency (request receipt → durable release) and
	// client-side batch RTT quantiles, microseconds. Ack quantiles are
	// zero for the no-oplog row: nothing is held for durability there.
	AckP50Us float64 `json:"ack_p50_us,omitempty"`
	AckP99Us float64 `json:"ack_p99_us,omitempty"`
	RTTP50Us float64 `json:"rtt_p50_us"`
	RTTP99Us float64 `json:"rtt_p99_us"`
}

// oplogWorker streams perConn acked writes over one raw connection
// with up to depth batches in flight — the windowed pipelining the
// apply/ack decoupling is built for: the server keeps applying (and
// staging log records) while earlier batches' acks wait for the
// durable watermark, so one group commit releases a window's worth of
// work. depth 1 degenerates to the synchronous Do-per-batch client.
// Per-batch round trips (send start → last response), in nanoseconds,
// land in rtt.
func oplogWorker(addr string, base uint64, perConn, batch, depth int, rtt *stats.Histogram) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		panic(err)
	}
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, 64<<10)
	br := bufio.NewReaderSize(conn, 64<<10)
	batches := perConn / batch
	sent := make(chan time.Time, depth-1) // buffered sends beyond the one being read
	done := make(chan error, 1)
	go func() {
		for b := 0; b < batches; b++ {
			t0 := <-sent
			for j := 0; j < batch; j++ {
				resp, err := wire.ReadResponse(br)
				if err != nil {
					done <- err
					return
				}
				if resp.Status != wire.StatusOK {
					done <- fmt.Errorf("put status %d", resp.Status)
					return
				}
			}
			rtt.Observe(uint64(time.Since(t0)))
		}
		done <- nil
	}()
	var buf []byte
	for b := 0; b < batches; b++ {
		buf = buf[:0]
		for j := 0; j < batch; j++ {
			k := base + uint64(b*batch+j) + 1
			buf = wire.AppendRequest(buf, wire.Request{Op: wire.OpPut, Key: layout.Key{Lo: k}, Value: k})
		}
		sent <- time.Now() // blocks while depth batches are already in flight
		if _, err := bw.Write(buf); err != nil {
			panic(err)
		}
		if err := bw.Flush(); err != nil {
			panic(err)
		}
	}
	if err := <-done; err != nil {
		panic(err)
	}
}

// oplogThroughputBench acks `ops` pipelined writes through a freshly
// started server and returns the wall time plus latency quantiles.
// With withLog, every ack is covered by the durable watermark of an
// operation log running under lcfg (the zero Config is a zero-length
// commit window).
func oplogThroughputBench(mode string, conns, batch, depth, ops int, withLog bool, lcfg oplog.Config) oplogThroughputRow {
	dir, err := os.MkdirTemp("", "ghbench-oplog-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	st, err := grouphash.New(grouphash.Options{Capacity: 1 << 18, Concurrent: true})
	if err != nil {
		panic(err)
	}
	var lg *oplog.Log
	if withLog {
		if lg, err = oplog.OpenConfig(filepath.Join(dir, "oplog"), 1, lcfg); err != nil {
			panic(err)
		}
	}
	srv, err := server.New(server.Config{Engine: st, Oplog: lg})
	if err != nil {
		panic(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	perConn := ops / conns
	var wg sync.WaitGroup
	var rtt stats.Histogram
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			oplogWorker(ln.Addr().String(), uint64(c+1)<<40, perConn, batch, depth, &rtt)
		}(c)
	}
	wg.Wait()
	wall := float64(time.Since(start).Nanoseconds()) / 1e6
	row := oplogThroughputRow{
		Mode: mode, Conns: conns, Batch: batch, Depth: depth, Ops: conns * perConn,
		WallMs: wall, KopsSec: float64(conns*perConn) / wall,
	}
	if withLog {
		row.Fsyncs = uint64(lg.Fsyncs())
		ack := srv.AckLatency()
		row.AckP50Us = ack.Quantile(0.50) / 1e3
		row.AckP99Us = ack.Quantile(0.99) / 1e3
	}
	rtts := rtt.Snapshot()
	row.RTTP50Us = rtts.Quantile(0.50) / 1e3
	row.RTTP99Us = rtts.Quantile(0.99) / 1e3
	if err := srv.Drain(); err != nil {
		panic(err)
	}
	<-serveDone
	return row
}

// runOplogExperiment measures acked-write throughput without the log,
// with a zero-length commit window, and with the two shipped (T, B)
// group-commit windows, folding every row (throughput, fsyncs, ack and
// RTT quantiles) into the JSON report. The acceptance bar is the
// 100µs/64KiB default staying within 1.2x of the no-oplog baseline.
func runOplogExperiment(w io.Writer, scale harness.Scale, report *jsonReport) {
	ops := scale.Ops
	if ops > 200_000 {
		ops = 200_000
	}
	if ops < 128_000 {
		ops = 128_000 // short runs drown the slowdown ratio in startup noise
	}

	modes := []struct {
		name    string
		withLog bool
		cfg     oplog.Config
	}{
		{"no-oplog", false, oplog.Config{}},
		{"oplog-zero-window", true, oplog.Config{}},
		{"oplog-100us-64KiB", true, oplog.Config{
			SyncEvery: 100 * time.Microsecond, SyncBytes: 64 << 10, PreallocBytes: 4 << 20}},
		{"oplog-1ms-256KiB", true, oplog.Config{
			SyncEvery: time.Millisecond, SyncBytes: 256 << 10, PreallocBytes: 4 << 20}},
	}
	shapes := []struct{ conns, batch, depth int }{{4, 64, 1}, {4, 64, 8}, {16, 64, 16}}
	for _, sh := range shapes {
		conns, batch, depth := sh.conns, sh.batch, sh.depth
		fmt.Fprintf(w, "Acked-write throughput (loopback TCP, %d conns, %d-op batches, %d in flight):\n", conns, batch, depth)
		var baseline float64
		for _, m := range modes {
			// Best of five: each cell is a fresh server and a fraction of
			// a second of wall time, so scheduler and disk noise dominate
			// a single run; the fastest of five is the honest capability
			// number.
			var row oplogThroughputRow
			for rep := 0; rep < 5; rep++ {
				r := oplogThroughputBench(m.name, conns, batch, depth, ops, m.withLog, m.cfg)
				if rep == 0 || r.KopsSec > row.KopsSec {
					row = r
				}
			}
			if baseline == 0 {
				baseline = row.KopsSec
			}
			row.Slowdown = baseline / row.KopsSec
			fmt.Fprintf(w, "  %-18s %8d ops  %8.1f ms  %8.1f kops/s  slowdown %.2fx  fsyncs %6d  ack p50/p99 %6.0f/%6.0f µs  rtt p50/p99 %6.0f/%6.0f µs\n",
				row.Mode, row.Ops, row.WallMs, row.KopsSec, row.Slowdown, row.Fsyncs,
				row.AckP50Us, row.AckP99Us, row.RTTP50Us, row.RTTP99Us)
			report.OplogThroughput = append(report.OplogThroughput, row)
		}
	}
}
