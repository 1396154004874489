package main

import (
	"fmt"
	"io"
	"time"

	"grouphash/internal/harness"
	"grouphash/internal/oplog"
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

// runOplogExperiment measures acked-write throughput without the log,
// with a zero-length commit window, and with the two shipped (T, B)
// group-commit windows, folding every row (throughput, fsyncs, ack and
// RTT quantiles) into the JSON report. Each connection streams 64-op
// pipelined bursts of fresh puts with up to depth of them in flight —
// the windowed pipelining the apply/ack decoupling is built for: the
// server keeps applying (and staging log records) while earlier bursts'
// acks wait for the durable watermark, so one group commit releases a
// window's worth of work. The acceptance bar is the 100µs/64KiB default
// staying within 1.2x of the no-oplog baseline.
func runOplogExperiment(w io.Writer, scale harness.Scale, report *jsonReport) {
	modes := []struct {
		name string
		log  *oplog.Config
	}{
		{"no-oplog", nil},
		{"oplog-zero-window", &oplog.Config{}},
		{"oplog-100us-64KiB", &adaptiveLog},
		{"oplog-1ms-256KiB", &oplog.Config{
			SyncEvery: time.Millisecond, SyncBytes: 256 << 10, PreallocBytes: 4 << 20}},
	}
	shapes := []struct{ conns, batch, depth int }{{4, 64, 1}, {4, 64, 8}, {16, 64, 16}}
	for _, sh := range shapes {
		fmt.Fprintf(w, "Acked-write throughput (loopback TCP, %d conns, %d-op batches, %d in flight):\n", sh.conns, sh.batch, sh.depth)
		var baseline float64
		for _, m := range modes {
			// Short runs drown the slowdown ratio in startup noise.
			c := cell{
				engine: "grouphash", capacity: 1 << 18, log: m.log, workload: "put",
				conns: sh.conns, burst: sh.batch, inflight: sh.depth,
				ops: min(max(scale.Ops, 128_000), 200_000),
			}
			r := c.best(5)
			if baseline == 0 {
				baseline = r.kopsSec()
			}
			row := oplogThroughputRow{
				Mode: m.name, Conns: sh.conns, Batch: sh.batch, Depth: sh.depth, Ops: r.ops,
				WallMs: r.wallMs(), KopsSec: r.kopsSec(), Slowdown: baseline / r.kopsSec(),
				Fsyncs:   r.fsyncs,
				RTTP50Us: quantileUs(r.rtt, 0.50),
				RTTP99Us: quantileUs(r.rtt, 0.99),
			}
			if m.log != nil {
				row.AckP50Us = quantileUs(r.ack, 0.50)
				row.AckP99Us = quantileUs(r.ack, 0.99)
			}
			fmt.Fprintf(w, "  %-18s %8d ops  %8.1f ms  %8.1f kops/s  slowdown %.2fx  fsyncs %6d  ack p50/p99 %6.0f/%6.0f µs  rtt p50/p99 %6.0f/%6.0f µs\n",
				row.Mode, row.Ops, row.WallMs, row.KopsSec, row.Slowdown, row.Fsyncs,
				row.AckP50Us, row.AckP99Us, row.RTTP50Us, row.RTTP99Us)
			report.OplogThroughput = append(report.OplogThroughput, row)
		}
	}
}
