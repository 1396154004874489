package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"grouphash"
	"grouphash/internal/harness"
	"grouphash/internal/layout"
	"grouphash/internal/oplog"
	"grouphash/internal/server"
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
// flush, and frame shapes send batchBurst/B OpBatch frames per flush.
const batchBurst = 256

// batchKeyspan is the per-connection preloaded key range gets cycle
// over (always hitting); puts target fresh keys beyond it, so every
// put is a genuine insert that moves the count word — the persist the
// stripe-grouped apply amortises.
const batchKeyspan = 4096

// batchWorker drives one raw connection with reused buffers: the
// request byte buffer, the sub-op slice and the response slice are
// allocated once, so the client side contributes (near) nothing to the
// measured allocation rate.
type batchWorker struct {
	bw    *bufio.Writer
	br    *bufio.Reader
	buf   []byte
	subs  []wire.Request
	resps []wire.Response
	base  uint64 // first key of this connection's range (exclusive, +1)
	next  uint64 // rotating get cursor into [1, batchKeyspan]
	fresh uint64 // monotonic put cursor beyond the preloaded span
}

func newBatchWorker(conn net.Conn, base uint64) *batchWorker {
	return &batchWorker{
		bw:    bufio.NewWriterSize(conn, 64<<10),
		br:    bufio.NewReaderSize(conn, 64<<10),
		buf:   make([]byte, 0, batchBurst*32),
		subs:  make([]wire.Request, batchBurst),
		resps: make([]wire.Response, batchBurst),
		base:  base,
	}
}

// run acks ops operations in bursts of batchBurst: fill the burst for
// the workload, ship it as single frames (frame == 0) or OpBatch
// frames of frame sub-ops, read every response back, repeat.
func (w *batchWorker) run(ops int, workload string, frame int) {
	for done := 0; done < ops; done += batchBurst {
		for j := range w.subs {
			op := byte(wire.OpPut)
			switch workload {
			case "get":
				op = wire.OpGet
			case "mixed":
				if j&1 == 0 {
					op = wire.OpGet
				}
			}
			var k uint64
			if op == wire.OpGet {
				k = w.base + w.next%batchKeyspan + 1
				w.next++
			} else {
				k = w.base + batchKeyspan + w.fresh + 1 // fresh insert
				w.fresh++
			}
			w.subs[j] = wire.Request{Op: op, Key: layout.Key{Lo: k, Hi: k * 0x9e3779b97f4a7c15}, Value: k}
		}
		w.buf = w.buf[:0]
		if frame == 0 {
			for j := range w.subs {
				w.buf = wire.AppendRequest(w.buf, w.subs[j])
			}
		} else {
			for off := 0; off < len(w.subs); off += frame {
				end := min(off+frame, len(w.subs))
				var err error
				if w.buf, err = wire.AppendBatchRequest(w.buf, w.subs[off:end]); err != nil {
					panic(err)
				}
			}
		}
		if _, err := w.bw.Write(w.buf); err != nil {
			panic(err)
		}
		if err := w.bw.Flush(); err != nil {
			panic(err)
		}
		if frame == 0 {
			for j := 0; j < len(w.subs); j++ {
				resp, err := wire.ReadResponse(w.br)
				if err != nil {
					panic(err)
				}
				if resp.Status != wire.StatusOK {
					panic(fmt.Sprintf("batch worker: status %d", resp.Status))
				}
			}
		} else {
			for off := 0; off < len(w.subs); off += frame {
				end := min(off+frame, len(w.subs))
				if err := wire.ReadBatchResponses(w.br, w.resps[off:end]); err != nil {
					panic(err)
				}
				for j := off; j < end; j++ {
					if w.resps[j].Status != wire.StatusOK {
						panic(fmt.Sprintf("batch worker: status %d", w.resps[j].Status))
					}
				}
			}
		}
	}
}

// batchCell runs one cell: a fresh oplog-backed server, a preloaded
// keyspace, a warmup phase on the same connections, then a measured
// phase bracketed by GC + MemStats and counter snapshots.
func batchCell(workload string, conns, frame, warmOps, ops int) batchRow {
	dir, err := os.MkdirTemp("", "ghbench-batch-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	st, err := grouphash.New(grouphash.Options{Capacity: 1 << 19, Concurrent: true})
	if err != nil {
		panic(err)
	}
	// Preload the get key range directly through the façade, sized so
	// that preload plus every fresh measured insert stays well below
	// the expansion threshold: the measured phase never migrates.
	for c := 0; c < conns; c++ {
		base := uint64(c+1) << 40
		for n := uint64(1); n <= batchKeyspan; n++ {
			k := base + n
			if err := st.Put(layout.Key{Lo: k, Hi: k * 0x9e3779b97f4a7c15}, k); err != nil {
				panic(err)
			}
		}
	}
	lg, err := oplog.OpenConfig(filepath.Join(dir, "oplog"), 1, oplog.Config{
		SyncEvery: 100 * time.Microsecond, SyncBytes: 64 << 10, PreallocBytes: 4 << 20})
	if err != nil {
		panic(err)
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
	var warm, wg sync.WaitGroup
	warm.Add(conns)
	wg.Add(conns)
	gate := make(chan struct{})
	for c := 0; c < conns; c++ {
		go func(c int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
			if err != nil {
				panic(err)
			}
			defer conn.Close()
			w := newBatchWorker(conn, uint64(c+1)<<40)
			w.run(warmOps/conns, workload, frame)
			warm.Done()
			<-gate
			w.run(perConn, workload, frame)
		}(c)
	}
	warm.Wait()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	appends0, persists0 := lg.Appends(), st.CountPersists()
	start := time.Now()
	close(gate)
	wg.Wait()
	wall := float64(time.Since(start).Nanoseconds()) / 1e6
	runtime.ReadMemStats(&m1)
	appends, persists := lg.Appends()-appends0, st.CountPersists()-persists0

	total := conns * perConn
	shape := "batch-frames"
	if frame == 0 {
		shape = "single-coalesced"
	}
	row := batchRow{
		Workload: workload, Shape: shape, Batch: frame, Conns: conns, Ops: total,
		WallMs: wall, KopsSec: float64(total) / wall,
		AllocsPerOp:         float64(m1.Mallocs-m0.Mallocs) / float64(total),
		OplogAppendsPerKop:  float64(appends) / (float64(total) / 1000),
		CountPersistsPerKop: float64(persists) / (float64(total) / 1000),
	}
	if err := srv.Drain(); err != nil {
		panic(err)
	}
	<-serveDone
	return row
}

// runBatchExperiment sweeps workload × frame shape, best of three per
// cell (throughput decides; the counter ratios of the winning run are
// kept), and folds every row into the JSON report. The speedup
// reference of each workload is the single-op pipelined baseline,
// which the server coalesces transparently; explicit frames must beat
// that.
func runBatchExperiment(w io.Writer, scale harness.Scale, report *jsonReport) {
	ops := scale.Ops
	if ops > 262_144 {
		ops = 262_144
	}
	if ops < 131_072 {
		ops = 131_072 // short runs drown the speedup ratios in startup noise
	}
	const conns = 16
	ops = (ops / (conns * batchBurst)) * conns * batchBurst // whole bursts per connection
	warm := conns * batchBurst * 4

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
		fmt.Fprintf(w, "Batched throughput, %s workload (loopback TCP, %d conns, %d ops in flight per conn, adaptive oplog):\n",
			workload, conns, batchBurst)
		var baseline float64
		for _, sh := range shapes {
			// Best of five: each cell is a fresh server and a fraction
			// of a second of wall time, so scheduler noise dominates a
			// single run; the fastest is the honest capability number.
			var row batchRow
			for rep := 0; rep < 5; rep++ {
				r := batchCell(workload, conns, sh.frame, warm, ops)
				if rep == 0 || r.KopsSec > row.KopsSec {
					row = r
				}
			}
			if baseline == 0 {
				baseline = row.KopsSec
			}
			row.Speedup = row.KopsSec / baseline
			fmt.Fprintf(w, "  %-16s %8d ops  %8.1f ms  %8.1f kops/s  speedup %.2fx  allocs/op %6.3f  appends/kop %7.2f  persists/kop %7.2f\n",
				sh.label, row.Ops, row.WallMs, row.KopsSec, row.Speedup,
				row.AllocsPerOp, row.OplogAppendsPerKop, row.CountPersistsPerKop)
			report.BatchThroughput = append(report.BatchThroughput, row)
		}
	}
}
