// Command perfbench is the repository's benchmark. One run executes one
// seeded workload through the whole system: a serving stage (a flagship
// store behind the TCP server with its adaptive oplog, loaded over
// loopback by internal/loadgen, then crashed and recovered from the
// oplog) and a cost-model stage (the paper's latency procedure for group
// hashing on the simulated NVM machine). The workloads differ in which
// stage carries the weight; see the workload table below and
// README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload read-zipf-pipelined --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run measures every end-to-end metric with nothing
// instrumented. With --trace 1 it also repeats the serving stage with
// the engine and listener wrapped, and reports the per-layer metrics, a
// where-the-time-goes table and the tracing overhead. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. A failed correctness check prints "correct":
// false and exits with status 1; any other failure exits with status 1
// and no result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// workload is one set of inputs. Every workload runs both stages; the
// sizes decide which one dominates.
type workload struct {
	name string

	// Serving stage: engine capacity at boot, records preloaded per
	// tenant, the operation mix, and burst shape (depth ops per burst;
	// batch > 0 ships OpBatch frames of that many ops, 0 pipelined
	// single frames).
	capacity             uint64
	records              uint64
	tenants              int
	read, update, insert float64
	theta                float64
	depth, batch         int
	// warmOps is the length of the unmeasured warm-up, in operations.
	warmOps uint64
	// ops is the measured window's length in operations at --seconds
	// refSeconds; other --seconds scale it. Every window is a count,
	// not a time, so the oplog a crash leaves, and so the replay that
	// recover_s times, and a growing table's final size do not depend
	// on how fast the program serves.
	ops uint64

	// Cost-model stage: total simulated cells and measured ops per phase.
	simCells uint64
	simOps   int
}

// refSeconds is the --seconds at which a window runs its workload's ops.
const refSeconds = 20

var workloads = []workload{
	{
		name:     "read-zipf-pipelined",
		capacity: 1 << 21, records: 1 << 20, tenants: 1,
		read: 0.95, update: 0.05, theta: 0.99,
		depth: 128, warmOps: 1 << 18, ops: 3 << 20,
		// The paper's Fig. 5 size: 32 MiB of cells, beyond the simulated
		// 15 MB L3.
		simCells: 1 << 21, simOps: 4000,
	},
	{
		name:     "write-grow-batch",
		capacity: 1 << 16, tenants: 2,
		insert: 1,
		depth:  256, batch: 256,
		ops: 1 << 22,
		// A control size that fits the simulated L3.
		simCells: 1 << 19, simOps: 4000,
	},
}

// windowOps is the measured window's length in operations for a
// --seconds of window: a whole number of operations per connection in
// every round, and at least one.
func (w workload) windowOps(window time.Duration) uint64 {
	const grain = rounds * conns
	n := w.ops * uint64(window/time.Second) / refSeconds
	return max(grain, n-n%grain)
}

// wantLen is how many items the store must hold after a window of n
// operations: the preload, plus every insert of an insert-only window.
func (w workload) wantLen(n uint64) uint64 {
	want := w.records * uint64(w.tenants)
	if w.insert == 1 {
		want += n
	}
	return want
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// idBase is the mix's record count: the preloaded ids 1..records, or,
// for an insert-only workload, a seed-chosen id origin so that each
// seed inserts a different key set.
func (w workload) idBase(seed int64) uint64 {
	if w.records > 0 {
		return w.records
	}
	return 2 + uint64(seed)%(1<<16)
}

// errCheck marks a failed correctness check.
var errCheck = errors.New("correctness check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", refSeconds, "scales the serving window's operation count linearly; 20 runs each workload's reference count")
	traced := flag.Int("trace", 0, "1 = also run the traced serving stage and report per-layer metrics")
	flag.Parse()
	w, ok := lookup(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds >= 1, --trace 0|1\n", names())
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(".bench_build", "data-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printStamp(os.Stdout, w.name, *seed)
	// The build, or the run before, may leave dirty pages whose writeback
	// would compete with the oplog's fsyncs; write them out before any
	// timing starts.
	syscall.Sync()
	res, err := run(os.Stdout, w, dir, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	os.RemoveAll(dir)
	if errors.Is(err, errCheck) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
		emit(os.Stdout, res)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	emit(os.Stdout, res)
}

func names() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// printStamp records what produced the result: source revision (when
// the build saw one), toolchain, processors and seed.
func printStamp(out io.Writer, name string, seed int64) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	fmt.Fprintf(out, "# stamp git_sha=%s go=%s num_cpu=%d gomaxprocs=%d workload=%s seed=%d\n",
		rev, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), name, seed)
}

func emit(out io.Writer, res result) {
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	if res.Attempted == 0 { // the result format counts at least one attempt
		res.Attempted = 1
	}
	b, err := json.Marshal(res)
	if err != nil { // unreachable: finite numbers and strings only
		panic(err)
	}
	fmt.Fprintln(out, string(b))
}

// run executes workload w. Untraced, it returns every end-to-end metric;
// traced, every per-layer metric, after writing the per-layer report to
// out.
func run(out io.Writer, w workload, dir string, seed int64, window time.Duration, traced bool) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	raw, err := serve(w, filepath.Join(dir, "raw"), seed, window, false)
	res.Attempted, res.Failed = raw.attempted, raw.attempted-min(raw.attempted, raw.acked)
	if err != nil {
		return res, err
	}
	var tr servedRun
	if traced {
		if tr, err = serve(w, filepath.Join(dir, "traced"), seed, window, true); err != nil {
			return res, err
		}
	}
	sim, err := simulate(w.simCells, w.simOps, seed)
	res.Attempted += uint64(sim.ops())
	res.Failed += uint64(sim.failures())
	if err != nil {
		return res, err
	}
	if res.Failed > 0 {
		return res, checkf("%d of %d operations failed (%d served; simulated: %d inserts, %d queries, %d deletes)",
			res.Failed, res.Attempted, raw.attempted-min(raw.attempted, raw.acked),
			sim.res.Insert.Failures, sim.res.Query.Failures, sim.res.Delete.Failures)
	}
	printStages(out, w, raw, sim)
	var values map[string]float64
	var catalog []metricDef
	if traced {
		values, catalog = layerValues(raw, tr, sim), perLayer
		printLayers(out, values)
		printTimeTable(out, raw, tr)
	} else {
		if values, err = endToEnd(raw, sim); err != nil {
			return res, err
		}
		catalog = endToEndDefs
	}
	for _, d := range catalog {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return res, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
