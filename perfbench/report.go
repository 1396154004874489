package main

import (
	"fmt"
	"io"
	"time"

	"grouphash/internal/loadgen"
	"grouphash/internal/stats"
)

// metricDef describes one reported metric. For a per-layer metric,
// moves names the end-to-end metric it should move and on names the
// workload where it should, written down before any measurement.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// endToEndDefs are what a user of the system sees. Every workload
// reports all of them: every run serves, recovers and simulates.
var endToEndDefs = []metricDef{
	{name: "acked_kops", unit: "kop/s", better: "higher"},
	{name: "burst_p50_us", unit: "us", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "recover_s", unit: "s", better: "lower"},
	{name: "bytes_per_item", unit: "B", better: "lower"},
	{name: "sim_kops", unit: "kop/s", better: "higher"},
	{name: "sim_insert_ns", unit: "ns", better: "lower"},
	{name: "sim_query_ns", unit: "ns", better: "lower"},
	{name: "sim_delete_ns", unit: "ns", better: "lower"},
}

const (
	rz = "read-zipf-pipelined"
	wg = "write-grow-batch"
)

// perLayer are the traced run's metrics, by module.
var perLayer = []metricDef{
	{"server.read_calls_per_kop", "1/kop", "lower", "acked_kops", rz},
	{"server.write_calls_per_kop", "1/kop", "lower", "acked_kops", rz},
	{"server.bytes_in_per_op", "B/op", "lower", "acked_kops", rz},
	{"server.bytes_out_per_op", "B/op", "lower", "acked_kops", rz},
	{"server.coalesced_run_mean", "op", "higher", "burst_p50_us", rz},
	{"server.write_ns_per_call", "ns", "lower", "burst_p50_us", rz},
	{"server.ack_wait_p50_us", "us", "lower", "burst_p50_us", wg},
	{"server.ack_wait_p99_us", "us", "lower", "burst_p50_us", wg},
	{"engine.get_calls_per_kop", "1/kop", "lower", "acked_kops", rz},
	{"engine.get_ns_mean", "ns", "lower", "burst_p50_us", rz},
	{"engine.get_ns_p99", "ns", "lower", "burst_p50_us", rz},
	{"engine.apply_calls_per_kop", "1/kop", "lower", "acked_kops", wg},
	{"engine.apply_ops_per_call", "op", "higher", "acked_kops", wg},
	{"engine.apply_self_ns_per_op", "ns", "lower", "acked_kops", wg},
	{"engine.busy_s", "s", "lower", "acked_kops", rz + "," + wg},
	{"oplog.append_ns_per_record", "ns", "lower", "acked_kops", wg},
	{"oplog.appends_per_kop", "1/kop", "lower", "acked_kops", wg},
	{"oplog.fsyncs_per_kop", "1/kop", "lower", "burst_p50_us", wg},
	{"oplog.records_per_fsync", "count", "higher", "burst_p50_us", wg},
	{"oplog.fsync_p50_us", "us", "lower", "burst_p50_us", wg},
	{"oplog.fsync_p99_us", "us", "lower", "burst_p50_us", wg},
	{"oplog.bytes_per_write", "B", "lower", "recover_s", wg},
	{"core.count_persists_per_kop", "1/kop", "lower", "acked_kops", wg},
	{"core.fp_skips_per_get", "count", "higher", "burst_p50_us", rz},
	{"core.expansions", "count", "lower", "burst_p50_us", wg},
	{"core.expansion_stall_ms", "ms", "lower", "burst_p50_us", wg},
	{"core.stripes_migrated", "count", "lower", "bytes_per_item", wg},
	{"recover.replay_s", "s", "lower", "recover_s", wg},
	{"recover.records_replayed", "count", "lower", "recover_s", wg},
	{"recover.audit_s", "s", "lower", "recover_s", wg},
	{"client.bursts", "count", "higher", "burst_p50_us", rz + "," + wg},
	// The tail the client sees, from the untraced stage. It is not an
	// end-to-end metric: on a shared machine and disk its spread over
	// runs exceeds any bound the benchmark may set (see README.md).
	{"client.burst_p99_us", "us", "lower", "burst_p50_us", rz + "," + wg},
	{"memsim.insert_flushes", "count", "lower", "sim_insert_ns", rz},
	{"memsim.insert_fences", "count", "lower", "sim_insert_ns", rz},
	{"memsim.delete_flushes", "count", "lower", "sim_delete_ns", rz},
	{"cache.insert_l3_misses", "count", "lower", "sim_insert_ns", rz},
	{"cache.query_l3_misses", "count", "lower", "sim_query_ns", rz},
	{"nvm.insert_words", "count", "lower", "sim_insert_ns", rz},
	{"harness.cpu_s", "s", "lower", "sim_kops", rz},
	{"trace.overhead_ratio", "ratio", "lower", "acked_kops", rz + "," + wg},
}

// minBursts is the fewest bursts that leave ten samples beyond p99.
const minBursts = 1000

func kops(res loadgen.Result) float64 { return float64(res.Acked) / res.Wall.Seconds() / 1e3 }

func endToEnd(r servedRun, sim simRun) (map[string]float64, error) {
	for _, res := range r.rounds {
		if res.RTT.Count < minBursts {
			return nil, fmt.Errorf("a round measured only %d bursts; p99 needs at least %d", res.RTT.Count, minBursts)
		}
	}
	f := r.figures()
	return map[string]float64{
		"acked_kops":     f.kops,
		"burst_p50_us":   f.p50us,
		"setup_s":        median(r.setup),
		"recover_s":      recoverMedian(r.rec, func(x recovery) time.Duration { return x.total }),
		"bytes_per_item": r.bytesItem,
		"sim_kops":       float64(sim.ops()) / sim.cpu.Seconds() / 1e3,
		"sim_insert_ns":  sim.res.Insert.AvgLatencyNs,
		"sim_query_ns":   sim.res.Query.AvgLatencyNs,
		"sim_delete_ns":  sim.res.Delete.AvgLatencyNs,
	}, nil
}

// ratio is a/b, 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histSub is the observations a histogram gained between two snapshots.
func histSub(after, before *stats.HistSnapshot) *stats.HistSnapshot {
	d := *after
	for i := range d.Buckets {
		d.Buckets[i] -= before.Buckets[i]
	}
	d.Count -= before.Count
	d.Sum -= before.Sum
	return &d
}

// layerValues attributes the traced window tr to the layers; raw is the
// untraced stage of the same run, for the tracing overhead and recovery.
func layerValues(raw, tr servedRun, sim simRun) map[string]float64 {
	l := tr.layers
	p0, p1 := l.prom0, l.prom1
	e0, e1 := l.eng0, l.eng1
	c0, c1 := l.conn0, l.conn1
	acked := float64(tr.acked)
	kop := acked / 1e3
	gets := float64(e1.gets - e0.gets)
	applies := float64(e1.applies - e0.applies)
	applyOps := float64(e1.applyOps - e0.applyOps)
	applyNs := float64(e1.applyNs - e0.applyNs)
	commitNs := float64(e1.commitNs - e0.commitNs)
	writes := float64(c1.writes - c0.writes)
	coalesced := `{source="coalesced"}`
	logged := delta(p0, p1, "gh_oplog_last_lsn")
	return map[string]float64{
		"server.read_calls_per_kop":  ratio(float64(c1.reads-c0.reads), kop),
		"server.write_calls_per_kop": ratio(writes, kop),
		"server.bytes_in_per_op":     ratio(delta(p0, p1, "gh_server_bytes_read_total"), acked),
		"server.bytes_out_per_op":    ratio(delta(p0, p1, "gh_server_bytes_written_total"), acked),
		"server.coalesced_run_mean": ratio(delta(p0, p1, "gh_server_batch_size_sum"+coalesced),
			delta(p0, p1, "gh_server_batch_size_count"+coalesced)),
		"server.write_ns_per_call": ratio(float64(c1.writeNs-c0.writeNs), writes),
		"server.ack_wait_p50_us":   histDelta(p0, p1, "gh_server_ack_latency_seconds", 0.50) * 1e6,
		"server.ack_wait_p99_us":   histDelta(p0, p1, "gh_server_ack_latency_seconds", 0.99) * 1e6,

		"engine.get_calls_per_kop":    ratio(gets, kop),
		"engine.get_ns_mean":          ratio(float64(e1.getNs-e0.getNs), gets),
		"engine.get_ns_p99":           histSub(e1.getLat, e0.getLat).Quantile(0.99),
		"engine.apply_calls_per_kop":  ratio(applies, kop),
		"engine.apply_ops_per_call":   ratio(applyOps, applies),
		"engine.apply_self_ns_per_op": ratio(applyNs-commitNs, applyOps),
		"engine.busy_s":               (float64(e1.getNs-e0.getNs) + applyNs) / 1e9,

		"oplog.append_ns_per_record": ratio(commitNs, float64(e1.records-e0.records)),
		"oplog.appends_per_kop":      ratio(delta(p0, p1, "gh_oplog_appends_total"), kop),
		"oplog.fsyncs_per_kop":       ratio(delta(p0, p1, "gh_oplog_fsyncs_total"), kop),
		"oplog.records_per_fsync": ratio(delta(p0, p1, "gh_oplog_batch_records_sum"),
			delta(p0, p1, "gh_oplog_batch_records_count")),
		"oplog.fsync_p50_us":    histDelta(p0, p1, "gh_oplog_sync_latency_seconds", 0.50) * 1e6,
		"oplog.fsync_p99_us":    histDelta(p0, p1, "gh_oplog_sync_latency_seconds", 0.99) * 1e6,
		"oplog.bytes_per_write": ratio(delta(p0, p1, "gh_oplog_bytes_written_total"), logged),

		"core.count_persists_per_kop": ratio(float64(l.core1.countPersists-l.core0.countPersists), kop),
		"core.fp_skips_per_get":       ratio(float64(l.core1.fpSkips-l.core0.fpSkips), gets),
		"core.expansions":             float64(l.core1.expansions - l.core0.expansions),
		"core.expansion_stall_ms":     float64(l.core1.stallNs-l.core0.stallNs) / 1e6,
		"core.stripes_migrated":       float64(l.core1.stripes - l.core0.stripes),

		"recover.replay_s":         recoverMedian(raw.rec, func(x recovery) time.Duration { return x.replay }),
		"recover.records_replayed": float64(raw.rec[0].replayed),
		"recover.audit_s":          recoverMedian(raw.rec, func(x recovery) time.Duration { return x.audit }),

		"client.bursts":       float64(tr.rtt.Count),
		"client.burst_p99_us": raw.figures().p99us,

		"memsim.insert_flushes":  sim.res.Insert.AvgFlushes,
		"memsim.insert_fences":   sim.res.Insert.AvgFences,
		"memsim.delete_flushes":  sim.res.Delete.AvgFlushes,
		"cache.insert_l3_misses": sim.res.Insert.AvgL3Misses,
		"cache.query_l3_misses":  sim.res.Query.AvgL3Misses,
		"nvm.insert_words":       sim.res.Insert.AvgNVMWords,
		"harness.cpu_s":          sim.cpu.Seconds(),

		"trace.overhead_ratio": ratio(raw.figures().kops, tr.figures().kops),
	}
}

// printStages writes a human-readable summary of both stages.
func printStages(out io.Writer, w workload, r servedRun, sim simRun) {
	var wall time.Duration
	var kopsRounds []float64
	for _, res := range r.rounds {
		wall += res.Wall
		kopsRounds = append(kopsRounds, kops(res))
	}
	var recs []float64
	for _, x := range r.rec {
		recs = append(recs, x.total.Seconds())
	}
	fmt.Fprintf(out, "# serve: %d acked of %d attempted (failed_frac %g) in %.3fs, %d bursts, kop/s by round %.4v, setup %.3v s, recover %.3v s (%d records)\n",
		r.acked, r.attempted, ratio(float64(r.attempted-min(r.attempted, r.acked)), float64(r.attempted)),
		wall.Seconds(), r.rtt.Count, kopsRounds, r.setup, recs, r.rec[0].replayed)
	fmt.Fprintf(out, "# sim: %d cells, %d loaded, %d ops per phase, host %.3fs, cpu %.3fs, flushes/insert %.2f\n",
		w.simCells, sim.res.Loaded, w.simOps, sim.host.Seconds(), sim.cpu.Seconds(), sim.res.Insert.AvgFlushes)
}

// printLayers writes every per-layer metric beside the end-to-end
// metric it should move.
func printLayers(out io.Writer, v map[string]float64) {
	fmt.Fprintf(out, "# %-30s %14s %-6s  moves %s on\n", "per-layer metric", "value", "unit", "end-to-end")
	for _, d := range perLayer {
		fmt.Fprintf(out, "# %-30s %14.4f %-6s  %s on %s\n", d.name, v[d.name], d.unit, d.moves, d.on)
	}
}

// printTimeTable splits the traced window's mean burst round trip into
// the parts measured at the layer boundaries. The server handles a
// connection's burst on its own goroutines, so a layer's total time
// over all bursts, divided by the bursts, is its share of one.
func printTimeTable(out io.Writer, raw, tr servedRun) {
	l := tr.layers
	e0, e1, c0, c1 := l.eng0, l.eng1, l.conn0, l.conn1
	bursts := float64(tr.rtt.Count)
	us := func(ns uint64) float64 { return ratio(float64(ns), bursts) / 1e3 }
	rtt := tr.rtt.Mean() / 1e3
	get := us(e1.getNs - e0.getNs)
	commit := us(e1.commitNs - e0.commitNs)
	apply := us(e1.applyNs-e0.applyNs) - commit
	residence := us(c1.residenceNs - c0.residenceNs)
	wait := residence - get - apply - commit
	write := us(c1.writeNs - c0.writeNs)
	rows := []struct {
		name string
		v    float64
	}{
		{"engine Get self", get},
		{"engine ApplyBatch self", apply},
		{"oplog append (committed callback)", commit},
		{"ack wait and decode (server residence minus engine)", wait},
		{"socket write", write},
		{"unattributed remainder", rtt - residence - write},
	}
	fmt.Fprintf(out, "# where the time goes: mean burst round trip %.2f us over %d bursts\n", rtt, tr.rtt.Count)
	for _, r := range rows {
		fmt.Fprintf(out, "#   %-52s %10.2f us %6.1f%%\n", r.name, r.v, 100*ratio(r.v, rtt))
	}
	untraced, traced := raw.figures().kops, tr.figures().kops
	fmt.Fprintf(out, "# tracing overhead: untraced / traced acked_kops = %.4f / %.4f = %.4f\n",
		untraced, traced, ratio(untraced, traced))
}
