package main

import (
	"fmt"
	"io"

	"grouphash/internal/engine"
	"grouphash/internal/harness"
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

// runEnginesExperiment sweeps engine × workload over the batch
// experiment's cell shape with batch=256 frames, best of five per cell,
// normalising each workload against its flagship row. The flagship rows
// here are directly comparable to BENCH_PR8's batch=256 rows.
func runEnginesExperiment(w io.Writer, scale harness.Scale, report *jsonReport) {
	for _, workload := range []string{"get", "put", "mixed"} {
		c := sweepCell(scale, workload, 2)
		c.frame = batchBurst // 256 sub-ops per OpBatch frame
		fmt.Fprintf(w, "Engine shoot-out, %s workload (loopback TCP, %d conns, batch=%d frames, adaptive oplog):\n",
			workload, c.conns, c.frame)
		var flagship float64
		for _, name := range engine.Names() {
			c.engine = name
			r := c.best(5)
			if name == "grouphash" {
				flagship = r.kopsSec()
			}
			row := engineRow{
				Engine: name, Workload: workload, Batch: c.frame, Conns: c.conns, Ops: r.ops,
				WallMs: r.wallMs(), KopsSec: r.kopsSec(),
				Items: r.items, Capacity: r.capacity, LoadFactor: r.loadFactor,
				RelVsFlagship: r.kopsSec() / flagship,
				AllocsPerOp:   r.perOp(r.mallocs),
			}
			fmt.Fprintf(w, "  %-12s %8d ops  %8.1f ms  %8.1f kops/s  vs flagship %.2fx  lf %.3f (%d/%d)  allocs/op %6.3f\n",
				name, row.Ops, row.WallMs, row.KopsSec, row.RelVsFlagship,
				row.LoadFactor, row.Items, row.Capacity, row.AllocsPerOp)
			report.Engines = append(report.Engines, row)
		}
	}
}
