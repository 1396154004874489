// Command ghbench regenerates the tables and figures of the paper's
// evaluation section (§4) on the simulated NVM machine.
//
// Usage:
//
//	ghbench [-exp all|fig2|fig5|fig6|fig7|fig8|table3|...] [-scale test|default|paper]
//	        [-csv dir] [-json BENCH_<scale>.json] [-plot]
//
// -exp accepts a comma-separated list (e.g. -exp probe,expand), so one
// invocation — and one -json file — can capture several experiments.
//
// The default scale shrinks table sizes ~16× against the paper (keeping
// them far larger than the simulated 15 MB L3, so cache behaviour and
// all qualitative conclusions carry over); -scale paper runs the exact
// §4.1 sizes and needs several GB of memory and tens of minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"grouphash/internal/harness"
	"grouphash/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: all, fig2, fig5, fig6, fig7, fig8, table3, wear, ycsb, excluded, curve, repeat, expand, probe, oplog, metrics, batch, engines, workload")
	scaleName := flag.String("scale", "default", "experiment scale: test, default, paper")
	csvDir := flag.String("csv", "", "also write each experiment's data as CSV into this directory")
	plotOut := flag.Bool("plot", false, "render figures additionally as terminal bar charts")
	jsonOut := flag.String("json", "", "write figure metrics (sim-ns/op, L3miss/op, flush/op, util%) as JSON to this file (convention: BENCH_<scale>.json)")
	flag.Parse()

	writeCSV := func(name string, fn func(f *os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "ghbench: %v\n", err)
			os.Exit(1)
		}
		path := filepath.Join(*csvDir, name)
		file, err := os.Create(path)
		if err == nil {
			err = fn(file)
			if cerr := file.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ghbench: writing %s: %v\n", path, err)
			os.Exit(1)
		}
	}

	var scale harness.Scale
	switch *scaleName {
	case "test":
		scale = harness.TestScale()
	case "default":
		scale = harness.DefaultScale()
	case "paper", "full":
		scale = harness.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "ghbench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	sel := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		sel[strings.TrimSpace(e)] = true
	}
	want := func(name string) bool {
		if sel["all"] {
			// repeat and curve are opt-in only: both rerun whole figure
			// workloads several times over.
			return name != "repeat" && name != "curve"
		}
		return sel[name]
	}
	ran := 0
	w := os.Stdout
	report := jsonReport{Scale: scale.Name, Cells: scale.RandomNumCells, OpsPhase: scale.Ops}

	fmt.Fprintf(w, "group hashing reproduction — scale %q\n", scale.Name)
	fmt.Fprintf(w, "  RandomNum %d cells, Bag-of-Words %d cells, Fingerprint %d cells, %d ops/phase\n\n",
		scale.RandomNumCells, scale.BagOfWordsCells, scale.FingerprintCells, scale.Ops)

	timed := func(name string, fn func()) {
		start := time.Now()
		fn()
		fmt.Fprintf(w, "\n  [%s completed in %v]\n\n%s\n", name, time.Since(start).Round(time.Millisecond), strings.Repeat("-", 72))
		ran++
	}

	if want("fig2") {
		timed("fig2", func() {
			r := harness.Fig2(scale)
			harness.PrintFig2(w, r)
			report.addLatency("fig2", r.Rows)
			writeCSV("fig2.csv", func(f *os.File) error { return harness.WriteLatencyCSV(f, r.Rows) })
		})
	}
	if want("fig5") || want("fig6") {
		var m harness.RequestMatrix
		timed("fig5+fig6", func() {
			m = harness.Fig5and6(scale)
			if want("fig5") {
				harness.PrintFig5(w, m)
				if *plotOut {
					harness.PlotFig5(w, m)
				}
			}
			if want("fig6") {
				harness.PrintFig6(w, m)
				if *plotOut {
					harness.PlotFig6(w, m)
				}
			}
			report.addLatency("fig5_fig6", m.Rows)
			writeCSV("fig5_fig6.csv", func(f *os.File) error { return harness.WriteLatencyCSV(f, m.Rows) })
		})
	}
	if want("fig7") {
		timed("fig7", func() {
			r := harness.Fig7(scale)
			harness.PrintFig7(w, r)
			if *plotOut {
				harness.PlotFig7(w, r)
			}
			report.addSpaceUtil("fig7", r)
			writeCSV("fig7.csv", func(f *os.File) error { return harness.WriteSpaceUtilCSV(f, r) })
		})
	}
	if want("fig8") {
		timed("fig8", func() {
			r := harness.Fig8(scale)
			harness.PrintFig8(w, r)
			if *plotOut {
				harness.PlotFig8(w, r)
			}
			writeCSV("fig8.csv", func(f *os.File) error { return harness.WriteFig8CSV(f, r) })
		})
	}
	if want("table3") {
		timed("table3", func() {
			r := harness.Table3(scale)
			harness.PrintTable3(w, r)
			writeCSV("table3.csv", func(f *os.File) error { return harness.WriteRecoveryCSV(f, r) })
		})
	}
	if want("wear") {
		timed("wear", func() {
			r := harness.WearComparison(scale)
			harness.PrintWear(w, r)
			writeCSV("wear.csv", func(f *os.File) error { return harness.WriteWearCSV(f, r) })
		})
	}
	if sel["repeat"] {
		// The paper's §4.1 protocol: each result is the average of five
		// independent executions. Run the RandomNum lf-0.5 row of
		// Figure 5 that way, reporting mean ± stddev.
		timed("repeat", func() {
			var rows []harness.RepeatedLatencyResult
			for _, k := range harness.Fig5Schemes() {
				rows = append(rows, harness.RepeatLatency(harness.LatencyConfig{
					Build:      harness.BuildConfig{Kind: k, TotalCells: scale.RandomNumCells, Seed: uint64(scale.Seed)},
					Trace:      trace.NewRandomNum(scale.Seed),
					LoadFactor: 0.5,
					Ops:        scale.Ops,
					Seed:       scale.Seed,
				}, 5))
			}
			harness.PrintRepeated(w, rows)
		})
	}
	if sel["curve"] {
		timed("curve", func() {
			r := harness.LoadCurves(scale)
			harness.PrintCurves(w, r)
			writeCSV("curve.csv", func(f *os.File) error { return harness.WriteCurveCSV(f, r) })
		})
	}
	if want("excluded") {
		timed("excluded", func() {
			r := harness.ExcludedComparison(scale)
			harness.PrintExcluded(w, r)
			writeCSV("excluded.csv", func(f *os.File) error { return harness.WriteExcludedCSV(f, r) })
		})
	}
	if want("expand") {
		timed("expand", func() {
			runExpandExperiment(w, scale, &report)
			writeCSV("expand.csv", func(f *os.File) error { return writeRowsCSV(f, report.ExpandRehash) })
		})
	}
	if want("probe") {
		timed("probe", func() {
			runProbeExperiment(w, scale, &report)
			writeCSV("probe.csv", func(f *os.File) error { return writeRowsCSV(f, report.Probe) })
		})
	}
	if want("oplog") {
		timed("oplog", func() {
			runOplogExperiment(w, scale, &report)
			writeCSV("oplog.csv", func(f *os.File) error { return writeRowsCSV(f, report.OplogThroughput) })
		})
	}
	if want("metrics") {
		timed("metrics", func() {
			runMetricsExperiment(w, scale, &report)
			writeCSV("metrics.csv", func(f *os.File) error { return writeRowsCSV(f, report.MetricsOverhead) })
		})
	}
	if want("batch") {
		timed("batch", func() {
			runBatchExperiment(w, scale, &report)
			writeCSV("batch.csv", func(f *os.File) error { return writeRowsCSV(f, report.BatchThroughput) })
		})
	}
	if want("engines") {
		timed("engines", func() {
			runEnginesExperiment(w, scale, &report)
			writeCSV("engines.csv", func(f *os.File) error { return writeRowsCSV(f, report.Engines) })
		})
	}
	if want("workload") {
		timed("workload", func() {
			runWorkloadExperiment(w, scale, &report)
			writeCSV("workload.csv", func(f *os.File) error { return writeRowsCSV(f, report.Workload) })
		})
	}
	if want("ycsb") {
		timed("ycsb", func() {
			r := harness.YCSBComparison(scale)
			harness.PrintYCSB(w, r)
			writeCSV("ycsb.csv", func(f *os.File) error { return harness.WriteYCSBCSV(f, r) })
		})
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "ghbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *jsonOut != "" {
		if err := report.write(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "ghbench: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "figure metrics written to %s\n", *jsonOut)
	}
}
