// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4), plus ablations of the design choices called out in
// DESIGN.md. Simulated quantities (request latency, L3 misses, flush
// counts) are attached to each benchmark as custom metrics:
//
//	sim-ns/op     simulated request latency (Figures 2a, 5, 8a)
//	L3miss/op     simulated L3 misses (Figures 2b, 6)
//	flush/op      clflush instructions per request
//	util%         space utilisation (Figures 7, 8b)
//	recovery-ms   simulated recovery time (Table 3)
//
// Benchmarks default to harness.TestScale so `go test -bench=.` stays
// fast; `go run ./cmd/ghbench -scale default` (or `-scale paper`) runs
// the full-size experiments and prints the figure tables.
package grouphash_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"grouphash"
	"grouphash/internal/core"
	"grouphash/internal/harness"
	"grouphash/internal/layout"
	"grouphash/internal/memsim"
	"grouphash/internal/oplog"
	"grouphash/internal/trace"
	"grouphash/internal/wal"
)

// benchScale is shared by every figure bench.
func benchScale() harness.Scale { return harness.TestScale() }

// reportOp attaches one phase's simulated costs to the benchmark.
func reportOp(b *testing.B, c harness.OpCost) {
	b.ReportMetric(c.AvgLatencyNs, "sim-ns/op")
	b.ReportMetric(c.AvgL3Misses, "L3miss/op")
	b.ReportMetric(c.AvgFlushes, "flush/op")
}

// BenchmarkFig2ConsistencyCost reproduces Figure 2: the six baseline
// variants (linear, pfht, path × {plain, logged}) on RandomNum at load
// factor 0.5. Sub-benchmarks report per-op insert and delete costs; the
// headline logged/unlogged ratios print once.
func BenchmarkFig2ConsistencyCost(b *testing.B) {
	s := benchScale()
	for _, k := range harness.Fig2Schemes() {
		k := k
		b.Run(string(k), func(b *testing.B) {
			var res harness.LatencyResult
			for i := 0; i < b.N; i++ {
				res = harness.RunLatency(harness.LatencyConfig{
					Build:      harness.BuildConfig{Kind: k, TotalCells: s.RandomNumCells, Seed: 1},
					Trace:      trace.NewRandomNum(s.Seed),
					LoadFactor: 0.5,
					Ops:        s.Ops,
					Seed:       s.Seed,
				})
			}
			b.ReportMetric(res.Insert.AvgLatencyNs+res.Delete.AvgLatencyNs, "sim-ns/op")
			b.ReportMetric(res.Insert.AvgL3Misses+res.Delete.AvgL3Misses, "L3miss/op")
		})
	}
}

// BenchmarkFig5Latency and BenchmarkFig6CacheMisses share the same runs
// (one RunLatency yields both metrics); each cell of the paper's 3×2
// grid is a sub-benchmark per scheme and operation.
func BenchmarkFig5Latency(b *testing.B) { benchRequestMatrix(b, false) }

// BenchmarkFig6CacheMisses reports the miss metric of the same grid.
func BenchmarkFig6CacheMisses(b *testing.B) { benchRequestMatrix(b, true) }

func benchRequestMatrix(b *testing.B, misses bool) {
	s := benchScale()
	for _, tr := range trace.All(s.Seed) {
		for _, lf := range []float64{0.5, 0.75} {
			for _, k := range harness.Fig5Schemes() {
				tr, lf, k := tr, lf, k
				name := fmt.Sprintf("%s/lf%.2f/%s", tr.Name(), lf, k)
				b.Run(name, func(b *testing.B) {
					var res harness.LatencyResult
					for i := 0; i < b.N; i++ {
						res = harness.RunLatency(harness.LatencyConfig{
							Build:      harness.BuildConfig{Kind: k, TotalCells: s.RandomNumCells, Seed: 1},
							Trace:      tr,
							LoadFactor: lf,
							Ops:        s.Ops,
							Seed:       s.Seed,
						})
					}
					for phase, c := range map[string]harness.OpCost{
						"insert": res.Insert, "query": res.Query, "delete": res.Delete,
					} {
						if misses {
							b.ReportMetric(c.AvgL3Misses, phase+"-L3miss/op")
						} else {
							b.ReportMetric(c.AvgLatencyNs, phase+"-sim-ns/op")
						}
					}
				})
			}
		}
	}
}

// BenchmarkFig7SpaceUtil reproduces Figure 7: utilisation at first
// insertion failure for PFHT, path and group hashing on each trace.
func BenchmarkFig7SpaceUtil(b *testing.B) {
	s := benchScale()
	for _, tr := range trace.All(s.Seed) {
		for _, k := range []harness.Kind{harness.PFHT, harness.Path, harness.Group} {
			tr, k := tr, k
			b.Run(fmt.Sprintf("%s/%s", tr.Name(), k), func(b *testing.B) {
				var res harness.SpaceUtilResult
				for i := 0; i < b.N; i++ {
					res = harness.RunSpaceUtil(harness.BuildConfig{
						Kind: k, TotalCells: s.RandomNumCells, Seed: 1,
					}, tr)
				}
				b.ReportMetric(res.Utilization*100, "util%")
			})
		}
	}
}

// BenchmarkFig8GroupSize reproduces Figure 8: request latency and space
// utilisation across group sizes on RandomNum at load factor 0.5.
func BenchmarkFig8GroupSize(b *testing.B) {
	s := benchScale()
	for _, gs := range s.GroupSizes {
		gs := gs
		b.Run(fmt.Sprintf("group%d", gs), func(b *testing.B) {
			var lat harness.LatencyResult
			var util harness.SpaceUtilResult
			for i := 0; i < b.N; i++ {
				lat = harness.RunLatency(harness.LatencyConfig{
					Build: harness.BuildConfig{
						Kind: harness.Group, TotalCells: s.RandomNumCells,
						GroupSize: gs, Seed: 1,
					},
					Trace:      trace.NewRandomNum(s.Seed),
					LoadFactor: 0.5,
					Ops:        s.Ops,
					Seed:       s.Seed,
				})
				util = harness.RunSpaceUtil(harness.BuildConfig{
					Kind: harness.Group, TotalCells: s.RandomNumCells,
					GroupSize: gs, Seed: 1,
				}, trace.NewRandomNum(s.Seed))
			}
			reportOp(b, lat.Insert)
			b.ReportMetric(util.Utilization*100, "util%")
		})
	}
}

// BenchmarkTable3Recovery reproduces Table 3: simulated recovery time
// vs. table size, with the load ("execution") time for the percentage.
func BenchmarkTable3Recovery(b *testing.B) {
	s := benchScale()
	for _, bytes := range s.RecoverySizes {
		bytes := bytes
		b.Run(fmt.Sprintf("%dMB", bytes>>20), func(b *testing.B) {
			var res harness.RecoveryResult
			for i := 0; i < b.N; i++ {
				res = harness.RunRecovery(bytes, s.Seed)
			}
			b.ReportMetric(res.RecoveryMs, "recovery-ms")
			b.ReportMetric(res.ExecMs, "exec-ms")
			b.ReportMetric(res.Percentage, "recovery%")
		})
	}
}

// BenchmarkAblationPrefetch isolates the sequential-prefetch assumption
// behind group sharing's cache argument: the same group-hash query
// workload with the modelled next-line prefetcher on and off.
func BenchmarkAblationPrefetch(b *testing.B) {
	for _, pf := range []bool{true, false} {
		pf := pf
		name := "prefetch-on"
		if !pf {
			name = "prefetch-off"
		}
		b.Run(name, func(b *testing.B) {
			var q harness.OpCost
			for i := 0; i < b.N; i++ {
				q = runGroupQueries(!pf)
			}
			reportOp(b, q)
		})
	}
}

func runGroupQueries(disablePrefetch bool) harness.OpCost {
	s := benchScale()
	cfg := harness.BuildConfig{Kind: harness.Group, TotalCells: s.RandomNumCells, KeyBytes: 8, Seed: 1}
	mem := memsim.New(memsim.Config{
		Size:            harness.RegionBytes(cfg),
		Seed:            1,
		DisablePrefetch: disablePrefetch,
	})
	tab := harness.Build(mem, cfg)
	tr := trace.NewRandomNum(1)
	var keys []layout.Key
	for tab.LoadFactor() < 0.75 {
		it := tr.Next()
		if tab.Insert(it.Key, it.Value) != nil {
			break
		}
		keys = append(keys, it.Key)
	}
	before := mem.Counters()
	n := s.Ops
	for i := 0; i < n; i++ {
		tab.Lookup(keys[(i*7919)%len(keys)])
	}
	d := mem.Counters().Sub(before)
	return harness.OpCost{
		Count:        n,
		AvgLatencyNs: d.ClockNs / float64(n),
		AvgL3Misses:  float64(d.L3Misses) / float64(n),
		AvgFlushes:   float64(d.Flushes) / float64(n),
	}
}

// BenchmarkAblationFlushLatency sweeps the paper's emulated NVM write
// penalty (default 300 ns) to show how the group-vs-logged-baseline gap
// scales with the cost of persistence.
func BenchmarkAblationFlushLatency(b *testing.B) {
	s := benchScale()
	for _, extra := range []float64{0, 150, 300, 600, 1000} {
		extra := extra
		b.Run(fmt.Sprintf("extra%dns", int(extra)), func(b *testing.B) {
			var group, linearL harness.OpCost
			for i := 0; i < b.N; i++ {
				group = runInsertsWithLatency(harness.Group, extra, s)
				linearL = runInsertsWithLatency(harness.LinearL, extra, s)
			}
			b.ReportMetric(group.AvgLatencyNs, "group-sim-ns/op")
			b.ReportMetric(linearL.AvgLatencyNs, "linearL-sim-ns/op")
			if group.AvgLatencyNs > 0 {
				b.ReportMetric(linearL.AvgLatencyNs/group.AvgLatencyNs, "speedup")
			}
		})
	}
}

func runInsertsWithLatency(kind harness.Kind, extra float64, s harness.Scale) harness.OpCost {
	cfg := harness.BuildConfig{Kind: kind, TotalCells: s.RandomNumCells, KeyBytes: 8, Seed: 1}
	lat := memsim.DefaultLatency()
	lat.NVMWriteExtra = extra
	mem := memsim.New(memsim.Config{Size: harness.RegionBytes(cfg), Seed: 1, Latency: &lat})
	tab := harness.Build(mem, cfg)
	tr := trace.NewRandomNum(1)
	for tab.LoadFactor() < 0.5 {
		it := tr.Next()
		if tab.Insert(it.Key, it.Value) != nil {
			break
		}
	}
	before := mem.Counters()
	n := s.Ops
	for i := 0; i < n; i++ {
		it := tr.Next()
		tab.Insert(it.Key, it.Value)
	}
	d := mem.Counters().Sub(before)
	return harness.OpCost{Count: n, AvgLatencyNs: d.ClockNs / float64(n)}
}

// BenchmarkAblationGroupWithWAL measures what the 8-byte-atomic design
// saves: the same group-hash insert workload with a WAL's duplicate-
// copy writes artificially added around each insert (the cost a logged
// design would pay; group hashing needs none of it).
func BenchmarkAblationGroupWithWAL(b *testing.B) {
	s := benchScale()
	for _, logged := range []bool{false, true} {
		logged := logged
		name := "atomic-commit"
		if logged {
			name = "with-wal"
		}
		b.Run(name, func(b *testing.B) {
			var cost harness.OpCost
			for i := 0; i < b.N; i++ {
				cost = runGroupInsertsMaybeLogged(logged, s)
			}
			reportOp(b, cost)
		})
	}
}

func runGroupInsertsMaybeLogged(logged bool, s harness.Scale) harness.OpCost {
	cfg := harness.BuildConfig{Kind: harness.Group, TotalCells: s.RandomNumCells, KeyBytes: 8, Seed: 1}
	mem := memsim.New(memsim.Config{Size: harness.RegionBytes(cfg), Seed: 1})
	tab := harness.Build(mem, cfg)
	var log *wal.Log
	if logged {
		log = wal.New(mem, layout.ForKeySize(8))
	}
	tr := trace.NewRandomNum(1)
	for tab.LoadFactor() < 0.5 {
		it := tr.Next()
		if tab.Insert(it.Key, it.Value) != nil {
			break
		}
	}
	before := mem.Counters()
	n := s.Ops
	for i := 0; i < n; i++ {
		it := tr.Next()
		if log != nil {
			// The duplicate-copy cost a logging design pays per
			// mutation: one cell pre-image appended and published,
			// one commit record — exactly the Linear-L protocol.
			log.LogCell(0, 0, it.Key, it.Value)
		}
		tab.Insert(it.Key, it.Value)
		if log != nil {
			log.Commit()
		}
	}
	d := mem.Counters().Sub(before)
	return harness.OpCost{
		Count:        n,
		AvgLatencyNs: d.ClockNs / float64(n),
		AvgL3Misses:  float64(d.L3Misses) / float64(n),
		AvgFlushes:   float64(d.Flushes) / float64(n),
	}
}

// BenchmarkAblationTwoChoice reproduces the §4.4 trade-off the paper
// describes but does not plot: a second hash function raises space
// utilisation while damaging the contiguity of collision probing.
func BenchmarkAblationTwoChoice(b *testing.B) {
	s := benchScale()
	for _, k := range []harness.Kind{harness.Group, harness.Group2C} {
		k := k
		b.Run(string(k), func(b *testing.B) {
			var lat harness.LatencyResult
			var util harness.SpaceUtilResult
			for i := 0; i < b.N; i++ {
				lat = harness.RunLatency(harness.LatencyConfig{
					Build:      harness.BuildConfig{Kind: k, TotalCells: s.RandomNumCells, Seed: 1},
					Trace:      trace.NewRandomNum(s.Seed),
					LoadFactor: 0.75,
					Ops:        s.Ops,
					Seed:       s.Seed,
				})
				util = harness.RunSpaceUtil(harness.BuildConfig{
					Kind: k, TotalCells: s.RandomNumCells, Seed: 1,
				}, trace.NewRandomNum(s.Seed))
			}
			b.ReportMetric(lat.Query.AvgLatencyNs, "query-sim-ns/op")
			b.ReportMetric(lat.Query.AvgL3Misses, "query-L3miss/op")
			b.ReportMetric(util.Utilization*100, "util%")
		})
	}
}

// BenchmarkWear quantifies NVM media wear per mutation for every
// consistent scheme — the endurance motivation of §2.1.
func BenchmarkWear(b *testing.B) {
	s := benchScale()
	for _, k := range harness.Fig5Schemes() {
		k := k
		b.Run(string(k), func(b *testing.B) {
			var res harness.WearResult
			for i := 0; i < b.N; i++ {
				res = harness.RunWear(harness.BuildConfig{
					Kind: k, TotalCells: s.RandomNumCells, Seed: 1,
				}, trace.NewRandomNum(s.Seed), s.Ops, s.Seed)
			}
			b.ReportMetric(res.MediaWritesPerOp, "media-writes/op")
			b.ReportMetric(float64(res.MaxPerWord), "hottest-word")
		})
	}
}

// BenchmarkAblationBatchInsert compares per-op inserts against one
// ApplyBatch, which persists the hot count word once per stripe-run
// instead of once per insert. A one-stripe Concurrent over the
// simulated machine makes the whole batch a single run.
func BenchmarkAblationBatchInsert(b *testing.B) {
	s := benchScale()
	for _, batch := range []bool{false, true} {
		name := "single"
		if batch {
			name = "batched"
		}
		b.Run(name, func(b *testing.B) {
			var perOp float64
			for i := 0; i < b.N; i++ {
				perOp = runBatchInsertTrial(batch, s)
			}
			b.ReportMetric(perOp, "sim-ns/op")
		})
	}
}

func runBatchInsertTrial(batch bool, s harness.Scale) float64 {
	cfg := harness.BuildConfig{Kind: harness.Group, TotalCells: s.RandomNumCells, KeyBytes: 8, Seed: 1}
	mem := memsim.New(memsim.Config{Size: harness.RegionBytes(cfg), Seed: 1})
	c := core.NewConcurrent(harness.Build(mem, cfg).(*core.Table), 1)
	n := s.Ops * 5
	ops := make([]core.BatchOp, n)
	tr := trace.NewRandomNum(1)
	for i := range ops {
		it := tr.Next()
		ops[i] = core.BatchOp{Kind: core.BatchInsert, Key: it.Key, Value: it.Value}
	}
	t0 := mem.Clock()
	if batch {
		c.ApplyBatch(ops, make([]core.BatchResult, n), nil, nil)
	} else {
		for _, op := range ops {
			c.Apply(op)
		}
	}
	return (mem.Clock() - t0) / float64(n)
}

// BenchmarkAblationFingerprints measures the DRAM fingerprint
// sidecar's effect on absent-key lookups (the worst case of Algorithm
// 2's full-group scan). The simulated machine leaves the sidecar off so
// the figures measure the paper's probe sequence; EnableFingerprints
// arms it.
func BenchmarkAblationFingerprints(b *testing.B) {
	for _, filtered := range []bool{false, true} {
		name := "full-scan"
		if filtered {
			name = "fingerprints"
		}
		b.Run(name, func(b *testing.B) {
			var perOp float64
			for i := 0; i < b.N; i++ {
				perOp = runAbsentLookups(b, filtered)
			}
			b.ReportMetric(perOp, "sim-ns/op")
		})
	}
}

func runAbsentLookups(b *testing.B, filtered bool) float64 {
	s := benchScale()
	cfg := harness.BuildConfig{Kind: harness.Group, TotalCells: s.RandomNumCells, KeyBytes: 8, Seed: 1}
	mem := memsim.New(memsim.Config{Size: harness.RegionBytes(cfg), Seed: 1})
	tab := harness.Build(mem, cfg).(*core.Table)
	tr := trace.NewRandomNum(1)
	for tab.LoadFactor() < 0.5 {
		it := tr.Next()
		if tab.Insert(it.Key, it.Value) != nil {
			break
		}
	}
	if filtered && !tab.EnableFingerprints() {
		b.Fatal("fingerprint sidecar unsupported at this group size")
	}
	n := s.Ops
	t0 := mem.Clock()
	for i := 0; i < n; i++ {
		tab.Lookup(layout.Key{Lo: 1<<40 + uint64(i)})
	}
	return (mem.Clock() - t0) / float64(n)
}

// BenchmarkReplayOplog measures restart time: replaying an operation
// log into an empty concurrent store, which grows by online expansion
// as it goes. The log is 2^20 fresh-key puts shaped as a batch-insert
// server writes them — two tenants' keys, appended 256 records at a
// time — and each iteration replays it into a fresh store of capacity
// 2^16 on a collected heap, then settles it with an empty Quiesce.
func BenchmarkReplayOplog(b *testing.B) {
	const records, batch = 1 << 20, 256
	base := filepath.Join(b.TempDir(), "oplog")
	lg, err := oplog.OpenConfig(base, 1, oplog.Config{SyncEvery: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]oplog.Record, batch)
	for n := 0; n < records; n += batch {
		tenant, id := n/batch%2, uint64(n/batch/2*batch+1)
		for i := range recs {
			k := trace.MixKey(tenant, id+uint64(i), 0)
			recs[i] = oplog.Record{BatchOp: grouphash.BatchOp{Kind: grouphash.BatchPut, Key: k, Value: k.Lo}}
		}
		lg.AppendBatch(recs)
	}
	if err := lg.WaitDurable(lg.LastLSN()); err != nil {
		b.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		st, err := grouphash.New(grouphash.Options{Capacity: 1 << 16, Concurrent: true})
		if err != nil {
			b.Fatal(err)
		}
		applied, _, err := st.ReplayOplog(base, 0)
		if err != nil || applied != records {
			b.Fatalf("replayed %d of %d records: %v", applied, records, err)
		}
		st.Quiesce(func() {})
		if st.Len() != records {
			b.Fatalf("replayed store holds %d items, want %d", st.Len(), records)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}

// BenchmarkNativeStore measures real Go-level throughput of the public
// Store API on process memory (no simulation): the cost of the
// algorithms themselves.
func BenchmarkNativeStore(b *testing.B) {
	b.Run("put", func(b *testing.B) {
		st, err := grouphash.New(grouphash.Options{Capacity: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Put(grouphash.Key{Lo: uint64(i) + 1}, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get", func(b *testing.B) {
		st, _ := grouphash.New(grouphash.Options{Capacity: 1 << 20})
		const n = 1 << 19
		for i := uint64(1); i <= n; i++ {
			st.Put(grouphash.Key{Lo: i}, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Get(grouphash.Key{Lo: uint64(i)%n + 1})
		}
	})
	b.Run("delete-insert", func(b *testing.B) {
		st, _ := grouphash.New(grouphash.Options{Capacity: 1 << 20})
		const n = 1 << 19
		for i := uint64(1); i <= n; i++ {
			st.Put(grouphash.Key{Lo: i}, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := grouphash.Key{Lo: uint64(i)%n + 1}
			st.Delete(k)
			st.Insert(k, 1)
		}
	})
}

// BenchmarkConcurrentStore measures parallel throughput scaling of the
// striped-lock wrapper (an extension beyond the single-threaded paper).
func BenchmarkConcurrentStore(b *testing.B) {
	st, err := grouphash.New(grouphash.Options{Capacity: 1 << 20, Concurrent: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(1); i <= 1<<19; i++ {
		st.Put(grouphash.Key{Lo: i}, i)
	}
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			i++
			k := grouphash.Key{Lo: i%(1<<19) + 1}
			if i%10 == 0 {
				st.Put(k, i)
			} else {
				st.Get(k)
			}
		}
	})
}
