package main

import (
	"fmt"
	"io"

	"grouphash/internal/harness"
	"grouphash/internal/loadgen"
	"grouphash/internal/trace"
)

// The workload experiment measures how the serving stack's throughput
// and latency respond to workload SHAPE, everything else held fixed:
// the same flagship engine, oplog, connection count and burst framing
// serve a uniform key chooser, the paper-standard Zipfian θ=0.99, a
// flash crowd (a ~30% traffic spike onto one hot key mid-run), and a
// four-tenant split of the same skewed load. Shapes come from
// internal/trace.Mix and are driven by internal/loadgen — the exact
// generator behind cmd/ghload, so any row here is reproducible from
// the command line with the flag settings the row records.

// workloadRow is one shape of the workload experiment.
type workloadRow struct {
	Shape   string  `json:"shape"` // uniform, zipf, flash-crowd, zipf-tenants
	Engine  string  `json:"engine"`
	Theta   float64 `json:"zipf_theta"`
	Tenants int     `json:"tenants"`
	// Flash is the flash-crowd peak probability (0 = no crowd).
	Flash   float64 `json:"flash_peak"`
	Conns   int     `json:"conns"`
	Depth   int     `json:"depth"` // wire ops per burst
	Batch   int     `json:"batch"` // sub-ops per OpBatch frame
	Records uint64  `json:"records_per_tenant"`
	// Steps counts logical workload steps; Acked the wire operations
	// the server acknowledged (RMW and multi-chunk values fan one step
	// into several wire ops).
	Steps   uint64  `json:"steps"`
	Acked   uint64  `json:"acked_ops"`
	WallMs  float64 `json:"wall_ms"`
	KopsSec float64 `json:"kops_per_sec"`
	// Burst round-trip latency (one Depth-op burst over loopback).
	BurstP50Us float64 `json:"burst_p50_us"`
	BurstP99Us float64 `json:"burst_p99_us"`
}

// workloadCell runs one shape against a fresh flagship server with an
// adaptive oplog: preload the tenant keyspace, then drive the mix and
// report acked throughput and burst latency.
func workloadCell(shape string, mix trace.MixConfig, conns, depth, batch int, ops uint64) workloadRow {
	s := cell{engine: "grouphash", capacity: 1 << 19, log: &adaptiveLog}.boot()
	defer s.stop()
	cfg := loadgen.Config{
		Addr:  s.addr,
		Mix:   mix,
		Ops:   ops,
		Conns: conns,
		Depth: depth,
		Batch: batch,
	}
	_, err := loadgen.Preload(cfg)
	check(err)
	res, err := loadgen.Run(cfg)
	check(err)
	if res.Drained {
		panic("workload cell: server drained mid-run")
	}
	wall := float64(res.Wall.Nanoseconds()) / 1e6
	row := workloadRow{
		Shape: shape, Engine: "grouphash",
		Theta: mix.Theta, Tenants: mix.Tenants,
		Conns: conns, Depth: depth, Batch: batch, Records: mix.Records,
		Steps: res.Steps, Acked: res.Acked,
		WallMs: wall, KopsSec: float64(res.Acked) / wall,
		BurstP50Us: quantileUs(res.RTT, 0.50),
		BurstP99Us: quantileUs(res.RTT, 0.99),
	}
	if mix.Flash != nil {
		row.Flash = mix.Flash.Peak
	}
	return row
}

// runWorkloadExperiment sweeps the four shapes, best of three runs per
// shape (BENCH_PR10's workload table).
func runWorkloadExperiment(w io.Writer, scale harness.Scale, report *jsonReport) {
	const (
		conns   = 8
		depth   = 128
		batch   = 128
		records = uint64(1) << 16
	)
	ops := uint64(min(max(scale.Ops, 131_072), 262_144))
	perConn := ops / conns

	base := trace.MixConfig{
		Records:    records,
		Tenants:    1,
		ReadFrac:   0.90,
		UpdateFrac: 0.10,
		Seed:       42,
	}
	shapes := []struct {
		name string
		mut  func(*trace.MixConfig)
	}{
		{"uniform", func(m *trace.MixConfig) { m.Theta = 0 }},
		{"zipf", func(m *trace.MixConfig) { m.Theta = 0.99 }},
		{"flash-crowd", func(m *trace.MixConfig) {
			m.Theta = 0.99
			// Per-connection op counts: ramp to a 30% hot-key share over
			// the second quarter of the run, hold through the third.
			m.Flash = &trace.FlashCrowd{
				Start: perConn / 4, Ramp: perConn / 8, Hold: perConn / 4, Peak: 0.30,
			}
		}},
		{"zipf-tenants", func(m *trace.MixConfig) {
			m.Theta = 0.99
			m.Tenants = 4
		}},
	}

	fmt.Fprintf(w, "Workload shapes on the flagship (loopback TCP, %d conns, %d-op bursts as OpBatch frames, adaptive oplog):\n",
		conns, depth)
	for _, s := range shapes {
		mix := base
		s.mut(&mix)
		var row workloadRow
		for rep := 0; rep < 3; rep++ {
			r := workloadCell(s.name, mix, conns, depth, batch, ops)
			if rep == 0 || r.KopsSec > row.KopsSec {
				row = r
			}
		}
		crowd := ""
		if row.Flash > 0 {
			crowd = fmt.Sprintf("  flash peak %.0f%%", row.Flash*100)
		}
		fmt.Fprintf(w, "  %-12s θ=%-4v tenants=%d  %8d acked  %8.1f ms  %8.1f kops/s  burst p50=%.0fµs p99=%.0fµs%s\n",
			row.Shape, row.Theta, row.Tenants, row.Acked, row.WallMs, row.KopsSec,
			row.BurstP50Us, row.BurstP99Us, crowd)
		report.Workload = append(report.Workload, row)
	}
}
