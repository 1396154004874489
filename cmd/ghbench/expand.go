package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"grouphash/internal/core"
	"grouphash/internal/harness"
	"grouphash/internal/layout"
	"grouphash/internal/native"
)

// The expansion experiments run on the NATIVE backend (real wall-clock
// time, not simulated ns): expansion throughput is dominated by the
// memory bandwidth of the rehash and by lock handoffs, neither of which
// the single-threaded simulator can exhibit.

// expandRehashRow is one full-table rehash measurement: the same
// migration executed with an explicit worker count, on identical table
// contents. Workers, GOMAXPROCS and the physical CPU count are all
// recorded so a "parallel speedup" can never again be mistaken for a
// hardware property the machine does not have (the PR3 sweep compared
// "sequential" against "parallel-1" on a 1-CPU box — the same code
// path measured twice).
type expandRehashRow struct {
	Mode       string  `json:"mode"`    // "sequential" or "workers-<N>"
	Workers    int     `json:"workers"` // rehash pool size (1 = sequential path)
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Cells      uint64  `json:"cells"`   // level-1 cells before expansion
	Items      uint64  `json:"items"`   // live items migrated
	WallMs     float64 `json:"wall_ms"` // best-of-N wall time
	Speedup    float64 `json:"speedup"` // vs the workers-1 row (1.0 there)
}

// expandStallRow summarises per-write latency while online expansions
// run underneath a write-heavy workload — the "how long does a write
// stall when it collides with a migration" question.
type expandStallRow struct {
	Writers    int     `json:"writers"`
	Ops        int     `json:"ops"`
	Expansions uint64  `json:"expansions"`
	FullErrors uint64  `json:"full_errors"`
	P50us      float64 `json:"p50_us"`
	P90us      float64 `json:"p90_us"`
	P99us      float64 `json:"p99_us"`
	MaxUs      float64 `json:"max_us"`
	WallMs     float64 `json:"wall_ms"`
}

// rehashWorkerSweep returns the worker counts the rehash benchmark
// measures: 1 (the sequential path) through GOMAXPROCS, padded with
// 2- and 4-worker pools when GOMAXPROCS is smaller — on a machine with
// fewer cores those rows measure pure pool overhead (goroutine handoff
// with no parallel hardware underneath), which is exactly the number
// needed to interpret a flat sweep.
func rehashWorkerSweep() []int {
	procs := runtime.GOMAXPROCS(0)
	var ws []int
	for n := 1; n <= procs; n *= 2 {
		ws = append(ws, n)
		if n < procs && n*2 > procs {
			ws = append(ws, procs)
		}
	}
	for _, forced := range []int{2, 4} {
		if forced > procs {
			ws = append(ws, forced)
		}
	}
	return ws
}

// expandRehashBench builds ONE table at ~70% of the load-factor
// trigger and times uncommitted full-table rehashes across the worker
// sweep (best of reps each). The rehash runs one worker per P, so each
// row sets GOMAXPROCS to its worker count, restored afterwards. Reusing
// one table keeps the 10M+-key row affordable and guarantees every
// worker count migrates identical contents.
func expandRehashBench(l1 uint64, seed uint64, reps int) (rows []expandRehashRow) {
	items := l1 * 2 * 7 / 10 // ~70% of the two-level capacity
	mem := native.New(1 << 16)
	tab, err := core.Create(mem, core.Options{Cells: l1, GroupSize: 256, Seed: seed})
	check(err)
	for i := uint64(1); i <= items; i++ {
		check(tab.InsertAutoExpand(layout.Key{Lo: i * 0x9e3779b97f4a7c15}, i))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var seq float64
	for _, workers := range rehashWorkerSweep() {
		runtime.GOMAXPROCS(workers)
		best := 0.0
		for rep := 0; rep < reps; rep++ {
			d, err := tab.RehashBench()
			check(err)
			if ms := float64(d.Nanoseconds()) / 1e6; rep == 0 || ms < best {
				best = ms
			}
		}
		mode := fmt.Sprintf("workers-%d", workers)
		if workers == 1 {
			mode, seq = "sequential", best
		}
		rows = append(rows, expandRehashRow{
			Mode: mode, Workers: workers,
			GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Cells: l1, Items: items, WallMs: best, Speedup: seq / best,
		})
	}
	return rows
}

// expandStallBench drives a write-heavy load through the concurrent
// store from a tiny initial table, so the workload crosses many online
// expansions, and reports the per-write latency distribution.
func expandStallBench(writers, ops int, seed uint64) expandStallRow {
	mem := native.New(1 << 16)
	tab, err := core.Create(mem, core.Options{Cells: 1 << 10, GroupSize: 64, Seed: seed})
	check(err)
	c := core.NewConcurrent(tab, 0)
	c.EnableOnlineExpand()

	perWorker := ops / writers
	lats := make([][]float64, writers) // per-op microseconds
	var fullErrs uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat := make([]float64, 0, perWorker)
			base := uint64(w+1) << 40
			for i := uint64(1); i <= uint64(perWorker); i++ {
				t0 := time.Now()
				err := c.Apply(core.BatchOp{Kind: core.BatchInsert, Key: layout.Key{Lo: base + i}, Value: i}).Err
				lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
				if err != nil {
					mu.Lock()
					fullErrs++
					mu.Unlock()
				}
			}
			lats[w] = lat
		}(w)
	}
	wg.Wait()
	wall := float64(time.Since(start).Nanoseconds()) / 1e6
	c.WaitExpansion()

	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Float64s(all)
	q := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	return expandStallRow{
		Writers: writers, Ops: writers * perWorker,
		Expansions: c.Expansions(), FullErrors: fullErrs,
		P50us: q(0.50), P90us: q(0.90), P99us: q(0.99), MaxUs: all[len(all)-1],
		WallMs: wall,
	}
}

// runExpandExperiment executes both expansion benchmarks, prints them,
// and folds the rows into the JSON report.
func runExpandExperiment(w io.Writer, scale harness.Scale, report *jsonReport) {
	l1 := scale.RandomNumCells / 2
	if l1 < 1<<12 {
		l1 = 1 << 12
	}
	rehash := expandRehashBench(l1, uint64(scale.Seed), 3)
	if scale.Name != "test" {
		// The worker sweep again at 10M+ live items (2^23 level-1 cells
		// at 70% two-level fill ⇒ ~11.7M keys): big enough that the
		// migration is memory-bound rather than cache-resident, which is
		// where a parallel claim must prove itself.
		rehash = append(rehash, expandRehashBench(1<<23, uint64(scale.Seed), 2)...)
	}
	fmt.Fprintf(w, "Expansion rehash worker sweep (native backend, GOMAXPROCS=%d, %d CPUs):\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, r := range rehash {
		fmt.Fprintf(w, "  %9d cells  %-12s %8.2f ms   speedup %.2fx\n", r.Cells, r.Mode, r.WallMs, r.Speedup)
	}

	ops := scale.Ops
	if ops > 400_000 {
		ops = 400_000
	}
	if ops < 40_000 {
		ops = 40_000
	}
	stall := expandStallBench(4, ops, uint64(scale.Seed))
	fmt.Fprintf(w, "\nOnline expansion write stalls (%d writers, %d inserts, 1K-cell start):\n",
		stall.Writers, stall.Ops)
	fmt.Fprintf(w, "  expansions=%d full_errors=%d wall=%.1f ms\n",
		stall.Expansions, stall.FullErrors, stall.WallMs)
	fmt.Fprintf(w, "  per-write latency: p50=%.1fus p90=%.1fus p99=%.1fus max=%.1fus\n",
		stall.P50us, stall.P90us, stall.P99us, stall.MaxUs)

	report.ExpandRehash = rehash
	report.ExpandStall = append(report.ExpandStall, stall)
}
