package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"grouphash"
	"grouphash/internal/client"
	"grouphash/internal/harness"
	"grouphash/internal/layout"
	"grouphash/internal/server"
	"grouphash/internal/wire"
)

// The metrics experiment prices the observability layer itself: the
// per-request instrumentation (a clock read, a lock-free histogram
// observe and two byte counters) sits on the server's hot path, and
// the PR's budget says it may cost at most 5% of acked-write
// throughput. Both modes run the identical no-oplog server — the purely
// CPU-bound configuration where a hot-path regression is most visible,
// not hidden under fsync time — and differ only in Config.DisableTiming.

// metricsOverheadRow is one (mode) acked-write throughput measurement;
// Overhead is this mode's slowdown versus the uninstrumented baseline.
type metricsOverheadRow struct {
	Mode     string  `json:"mode"`  // "uninstrumented" or "instrumented"
	Conns    int     `json:"conns"` // concurrent client connections
	Batch    int     `json:"batch"` // requests per pipelined Do
	Ops      int     `json:"ops"`   // total acked writes
	WallMs   float64 `json:"wall_ms"`
	KopsSec  float64 `json:"kops_per_sec"`
	Overhead float64 `json:"overhead_vs_uninstrumented"` // 1.0 for the baseline row
}

// metricsOverheadBench acks `ops` pipelined writes through a freshly
// started (oplog-free) server with the given timing setting and
// returns the wall time. With timing on, the run ends with a real
// scrape so the measured configuration is the one operators deploy.
func metricsOverheadBench(conns, batch, ops int, timing bool) metricsOverheadRow {
	st, err := grouphash.New(grouphash.Options{Capacity: 1 << 18, Concurrent: true})
	if err != nil {
		panic(err)
	}
	srv, err := server.New(server.Config{Engine: st, DisableTiming: !timing})
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
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.Dial(ln.Addr().String(), 2*time.Second)
			if err != nil {
				panic(err)
			}
			defer cl.Close()
			base := uint64(c+1) << 40
			reqs := make([]wire.Request, batch)
			for done := 0; done < perConn; done += batch {
				for j := range reqs {
					k := base + uint64(done+j) + 1
					reqs[j] = wire.Request{Op: wire.OpPut, Key: layout.Key{Lo: k}, Value: k}
				}
				resps, err := cl.Do(reqs)
				if err != nil {
					panic(err)
				}
				for _, r := range resps {
					if r.Status != wire.StatusOK {
						panic(fmt.Sprintf("put status %d", r.Status))
					}
				}
			}
		}(c)
	}
	wg.Wait()
	wall := float64(time.Since(start).Nanoseconds()) / 1e6

	if timing {
		// Prove the scrape path works on the loaded server (untimed —
		// scrapes are rare next to requests).
		cl, err := client.Dial(ln.Addr().String(), 2*time.Second)
		if err != nil {
			panic(err)
		}
		if _, err := cl.ServerMetrics(); err != nil {
			panic(err)
		}
		cl.Close()
	}
	if err := srv.Drain(); err != nil {
		panic(err)
	}
	<-serveDone
	total := conns * perConn
	mode := "uninstrumented"
	if timing {
		mode = "instrumented"
	}
	return metricsOverheadRow{
		Mode: mode, Conns: conns, Batch: batch, Ops: total,
		WallMs: wall, KopsSec: float64(total) / wall,
	}
}

// runMetricsExperiment measures acked-write throughput with request
// instrumentation off and on, best-of-3 per mode to shave loopback
// scheduling noise, and folds both rows into the JSON report. The
// acceptance bar is the instrumented run within 1.05x of the baseline.
func runMetricsExperiment(w io.Writer, scale harness.Scale, report *jsonReport) {
	ops := scale.Ops
	if ops > 200_000 {
		ops = 200_000
	}
	if ops < 20_000 {
		ops = 20_000
	}
	const conns, batch, reps = 4, 64, 3
	best := func(timing bool) metricsOverheadRow {
		var b metricsOverheadRow
		for i := 0; i < reps; i++ {
			r := metricsOverheadBench(conns, batch, ops, timing)
			if i == 0 || r.KopsSec > b.KopsSec {
				b = r
			}
		}
		return b
	}
	base := best(false)
	base.Overhead = 1
	instr := best(true)
	instr.Overhead = base.KopsSec / instr.KopsSec

	fmt.Fprintf(w, "Instrumentation overhead (loopback TCP acked writes, %d conns, %d-op batches, best of %d):\n",
		conns, batch, reps)
	for _, r := range []metricsOverheadRow{base, instr} {
		fmt.Fprintf(w, "  %-14s %8d ops  %8.1f ms  %8.1f kops/s  overhead %.3fx\n",
			r.Mode, r.Ops, r.WallMs, r.KopsSec, r.Overhead)
	}
	report.MetricsOverhead = append(report.MetricsOverhead, base, instr)
}
