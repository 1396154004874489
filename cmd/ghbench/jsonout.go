package main

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"

	"grouphash/internal/harness"
)

// jsonLatencyRow is one (scheme, trace, load-factor, phase) cell of a
// latency experiment, flattened to the per-op figure metrics: simulated
// ns, L3 misses, clflushes and newly-written NVM words per request.
type jsonLatencyRow struct {
	Experiment string  `json:"experiment"`
	Scheme     string  `json:"scheme"`
	Trace      string  `json:"trace"`
	LoadFactor float64 `json:"load_factor"`
	Phase      string  `json:"phase"`
	SimNsOp    float64 `json:"sim_ns_per_op"`
	L3MissOp   float64 `json:"l3_miss_per_op"`
	FlushOp    float64 `json:"flush_per_op"`
	NVMWordsOp float64 `json:"nvm_words_per_op"`
}

// jsonUtilRow is one space-utilisation measurement (Figure 7).
type jsonUtilRow struct {
	Experiment  string  `json:"experiment"`
	Scheme      string  `json:"scheme"`
	Trace       string  `json:"trace"`
	UtilPercent float64 `json:"util_percent"`
	Inserted    uint64  `json:"inserted"`
	Capacity    uint64  `json:"capacity"`
}

// jsonReport is the schema of the -json output file. One file holds
// every experiment the invocation ran, so a single
// "ghbench -exp all -json BENCH_default.json" captures all figure
// metrics of a scale in machine-readable form.
type jsonReport struct {
	Scale     string           `json:"scale"`
	Cells     uint64           `json:"random_num_cells"`
	OpsPhase  int              `json:"ops_per_phase"`
	Latency   []jsonLatencyRow `json:"latency,omitempty"`
	SpaceUtil []jsonUtilRow    `json:"space_util,omitempty"`
	// Expansion benchmarks (native backend, real wall-clock): the
	// rehash worker-count sweep and the per-write stall distribution
	// under online expansion. See cmd/ghbench/expand.go.
	ExpandRehash []expandRehashRow `json:"expand_rehash,omitempty"`
	ExpandStall  []expandStallRow  `json:"expand_stall,omitempty"`
	// Fingerprint-filtered vs unfiltered lookup latency (native
	// backend, real wall-clock). See cmd/ghbench/probe.go.
	Probe []probeRow `json:"probe,omitempty"`
	// Operation-log cost: acked-write throughput through the network
	// server with and without the oplog. See cmd/ghbench/oplog.go.
	OplogThroughput []oplogThroughputRow `json:"oplog_throughput,omitempty"`
	// Observability cost: acked-write throughput with per-request
	// instrumentation off and on. See cmd/ghbench/metrics.go.
	MetricsOverhead []metricsOverheadRow `json:"metrics_overhead,omitempty"`
	// End-to-end batching: single-pipelined frames (server-coalesced)
	// vs explicit OpBatch frames across batch sizes, with allocation
	// and write-amplification counters. See cmd/ghbench/batch.go.
	BatchThroughput []batchRow `json:"batch_throughput,omitempty"`
	// Engine shoot-out: every scheme behind the internal/engine seam
	// serving the same wire workloads. See cmd/ghbench/engines.go.
	Engines []engineRow `json:"engines,omitempty"`
	// Workload shapes: uniform vs Zipfian vs flash-crowd vs
	// multi-tenant load on the flagship. See cmd/ghbench/workload.go.
	Workload []workloadRow `json:"workload,omitempty"`
}

// addLatency flattens LatencyResult rows (insert/query/delete phases)
// into the report.
func (r *jsonReport) addLatency(experiment string, rows []harness.LatencyResult) {
	for _, row := range rows {
		for _, ph := range []struct {
			name string
			c    harness.OpCost
		}{{"insert", row.Insert}, {"query", row.Query}, {"delete", row.Delete}} {
			if ph.c.Count == 0 {
				continue
			}
			r.Latency = append(r.Latency, jsonLatencyRow{
				Experiment: experiment,
				Scheme:     row.Scheme,
				Trace:      row.Trace,
				LoadFactor: row.LoadFactor,
				Phase:      ph.name,
				SimNsOp:    ph.c.AvgLatencyNs,
				L3MissOp:   ph.c.AvgL3Misses,
				FlushOp:    ph.c.AvgFlushes,
				NVMWordsOp: ph.c.AvgNVMWords,
			})
		}
	}
}

// addSpaceUtil folds Figure 7 utilisation results into the report.
func (r *jsonReport) addSpaceUtil(experiment string, rows []harness.SpaceUtilResult) {
	for _, row := range rows {
		r.SpaceUtil = append(r.SpaceUtil, jsonUtilRow{
			Experiment:  experiment,
			Scheme:      row.Scheme,
			Trace:       row.Trace,
			UtilPercent: row.Utilization * 100,
			Inserted:    row.Inserted,
			Capacity:    row.Capacity,
		})
	}
}

// write marshals the report to path (conventionally BENCH_<scale>.json).
func (r *jsonReport) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeRowsCSV writes rows as CSV with the JSON report's schema: one
// column per field of the row struct, in declaration order, named by
// its json tag, so a CSV never drifts from the JSON rows it mirrors.
func writeRowsCSV[T any](f io.Writer, rows []T) error {
	t := reflect.TypeFor[T]()
	header := make([]string, t.NumField())
	for i := range header {
		header[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	records := [][]string{header}
	for _, row := range rows {
		v := reflect.ValueOf(row)
		rec := make([]string, len(header))
		for i := range rec {
			rec[i] = fmt.Sprint(v.Field(i).Interface())
		}
		records = append(records, rec)
	}
	return csv.NewWriter(f).WriteAll(records)
}
