package main

import (
	"fmt"
	"io"

	"grouphash/internal/harness"
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
	Batch    int     `json:"batch"` // requests per pipelined burst
	Ops      int     `json:"ops"`   // total acked writes: whole bursts
	WallMs   float64 `json:"wall_ms"`
	KopsSec  float64 `json:"kops_per_sec"`
	Overhead float64 `json:"overhead_vs_uninstrumented"` // 1.0 for the baseline row
}

// runMetricsExperiment measures acked-write throughput with request
// instrumentation off and on — 4 connections of 64-op pipelined put
// bursts against the identical no-oplog server, best of 3 per mode to
// shave loopback scheduling noise — and folds both rows into the JSON
// report. The acceptance bar is the instrumented run within 1.05x of
// the baseline.
func runMetricsExperiment(w io.Writer, scale harness.Scale, report *jsonReport) {
	const reps = 3
	c := cell{
		engine: "grouphash", capacity: 1 << 18, workload: "put",
		conns: 4, burst: 64, inflight: 1, ops: min(max(scale.Ops, 20_000), 200_000),
	}
	rows := make([]metricsOverheadRow, 2)
	for i, mode := range []string{"uninstrumented", "instrumented"} {
		c.untimed = i == 0
		r := c.best(reps)
		rows[i] = metricsOverheadRow{
			Mode: mode, Conns: c.conns, Batch: c.burst, Ops: r.ops,
			WallMs: r.wallMs(), KopsSec: r.kopsSec(),
		}
	}
	rows[0].Overhead, rows[1].Overhead = 1, rows[0].KopsSec/rows[1].KopsSec

	fmt.Fprintf(w, "Instrumentation overhead (loopback TCP acked writes, %d conns, %d-op batches, best of %d):\n",
		c.conns, c.burst, reps)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %8d ops  %8.1f ms  %8.1f kops/s  overhead %.3fx\n",
			r.Mode, r.Ops, r.WallMs, r.KopsSec, r.Overhead)
	}
	report.MetricsOverhead = append(report.MetricsOverhead, rows...)
}
