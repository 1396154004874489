package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"grouphash/internal/core"
	"grouphash/internal/engine"
	"grouphash/internal/harness"
	"grouphash/internal/layout"
	"grouphash/internal/oplog"
	"grouphash/internal/server"
)

// The engines experiment is the paper's scheme shoot-out moved
// end-to-end over the wire: every engine behind the internal/engine
// seam serves the same workloads through the same server, oplog and
// batch funnel — the flagship group-hash store with its striped batch
// path, the comparison schemes through the mutex adapter's sequential
// fallback. The shape matches the batch experiment's strongest cell
// (16 conns, 256 ops in flight as explicit OpBatch frames, adaptive
// oplog), so the flagship row here against BENCH_PR8's batch=256 rows
// is the measured cost of the engine interface itself.
//
// Every engine is preloaded with the same items (batchKeyspan keys per
// connection) over the same key space; structural capacity differs by
// scheme geometry, so each row reports its own measured load factor.

// engineRow is one (engine, workload) cell of the engines experiment.
type engineRow struct {
	Engine   string  `json:"engine"`
	Workload string  `json:"workload"` // get, put, mixed
	Batch    int     `json:"batch"`    // sub-ops per OpBatch frame
	Conns    int     `json:"conns"`
	Ops      int     `json:"ops"`
	WallMs   float64 `json:"wall_ms"`
	KopsSec  float64 `json:"kops_per_sec"`
	// Items and LoadFactor are the engine's occupancy after the
	// measured phase (preload + fresh measured inserts / structural
	// capacity — fixed-size schemes have ~2x cell headroom, so the
	// same item count lands at a scheme-specific load factor).
	Items      uint64  `json:"items"`
	Capacity   uint64  `json:"capacity"`
	LoadFactor float64 `json:"load_factor"`
	// RelVsFlagship is this row's throughput relative to the grouphash
	// row of the same workload (1.0 for grouphash itself).
	RelVsFlagship float64 `json:"rel_vs_flagship"`
	// AllocsPerOp is the process-wide heap allocation rate over the
	// measured phase; the flagship path is pooled to zero, the adapter
	// path is required to stay flat too.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// engineCell measures one (engine, workload) cell: a fresh server over
// the chosen engine with an adaptive oplog, preload, warmup on the
// same connections, then a GC-bracketed measured phase — batchCell's
// protocol with the engine swapped out.
func engineCell(name, workload string, conns, frame, warmOps, ops int) engineRow {
	dir, err := os.MkdirTemp("", "ghbench-engines-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	eng, err := engine.New(engine.Spec{Name: name, Capacity: 1 << 19})
	if err != nil {
		panic(err)
	}
	preload := make([]core.BatchOp, batchKeyspan)
	out := make([]core.BatchResult, batchKeyspan)
	for c := 0; c < conns; c++ {
		base := uint64(c+1) << 40
		for n := range preload {
			k := base + uint64(n) + 1
			preload[n] = core.BatchOp{Kind: core.BatchPut, Key: layout.Key{Lo: k, Hi: k * 0x9e3779b97f4a7c15}, Value: k}
		}
		eng.ApplyBatch(preload, out, nil, nil)
		for _, r := range out {
			if r.Err != nil {
				panic(r.Err)
			}
		}
	}
	lg, err := oplog.OpenConfig(filepath.Join(dir, "oplog"), 1, oplog.Config{
		SyncEvery: 100 * time.Microsecond, SyncBytes: 64 << 10, PreallocBytes: 4 << 20})
	if err != nil {
		panic(err)
	}
	srv, err := server.New(server.Config{Engine: eng, Oplog: lg})
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
	start := time.Now()
	close(gate)
	wg.Wait()
	wall := float64(time.Since(start).Nanoseconds()) / 1e6
	runtime.ReadMemStats(&m1)

	total := conns * perConn
	row := engineRow{
		Engine: name, Workload: workload, Batch: frame, Conns: conns, Ops: total,
		WallMs: wall, KopsSec: float64(total) / wall,
		Items: eng.Len(), Capacity: eng.Capacity(), LoadFactor: eng.LoadFactor(),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(total),
	}
	if err := srv.Drain(); err != nil {
		panic(err)
	}
	<-serveDone
	return row
}

// runEnginesExperiment sweeps engine × workload at the batch
// experiment's 16-conn/256-in-flight shape, best of five per cell,
// normalising each workload against its flagship row.
func runEnginesExperiment(w io.Writer, scale harness.Scale, report *jsonReport) {
	// Same clamp as the batch experiment, so the flagship rows here are
	// directly comparable to BENCH_PR8's batch=256 rows.
	ops := scale.Ops
	if ops > 262_144 {
		ops = 262_144
	}
	if ops < 131_072 {
		ops = 131_072
	}
	const conns = 16
	const frame = batchBurst // 256 sub-ops per OpBatch frame
	ops = (ops / (conns * batchBurst)) * conns * batchBurst
	warm := conns * batchBurst * 2

	for _, workload := range []string{"get", "put", "mixed"} {
		fmt.Fprintf(w, "Engine shoot-out, %s workload (loopback TCP, %d conns, batch=%d frames, adaptive oplog):\n",
			workload, conns, frame)
		var flagship float64
		for _, name := range engine.Names() {
			var row engineRow
			for rep := 0; rep < 5; rep++ {
				r := engineCell(name, workload, conns, frame, warm, ops)
				if rep == 0 || r.KopsSec > row.KopsSec {
					row = r
				}
			}
			if name == "grouphash" {
				flagship = row.KopsSec
			}
			row.RelVsFlagship = row.KopsSec / flagship
			fmt.Fprintf(w, "  %-12s %8d ops  %8.1f ms  %8.1f kops/s  vs flagship %.2fx  lf %.3f (%d/%d)  allocs/op %6.3f\n",
				name, row.Ops, row.WallMs, row.KopsSec, row.RelVsFlagship,
				row.LoadFactor, row.Items, row.Capacity, row.AllocsPerOp)
			report.Engines = append(report.Engines, row)
		}
	}
}
