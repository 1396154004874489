// Command ghbenchdiff compares two `go test -bench` output files the
// way benchstat does — per-benchmark old-vs-new with a percentage
// delta — without the external dependency (this repository is
// stdlib-only by policy).
//
// Usage:
//
//	ghbenchdiff old.txt new.txt
//	ghbenchdiff -gate ceilings.txt current.txt
//
// Run each side with -count N (N ≥ 3 recommended) so a delta is a
// comparison of means with a visible spread, not two noisy samples.
// The tool exits 0 regardless of regressions: it is a reporting aid
// for `make bench-diff`, and what counts as a regression is for the
// reader (or the PR discussion) to decide — benchmarks here include
// wall-clock numbers from shared CI machines. Rows whose baseline
// mean is zero (or whose samples are empty/unparseable) print "n/a"
// instead of a delta: a refreshed baseline must never make the tool
// divide by zero or crash the diff for every later PR.
//
// Allocation numbers are the exception to "the reader decides": they
// are deterministic (no wall-clock noise), so -gate enforces them.
// The ceilings file lists `BenchmarkName  max-allocs/op` pairs (#
// comments and blank lines ignored; names match with the -GOMAXPROCS
// suffix stripped); a benchmark whose mean allocs/op exceeds its
// ceiling — or that is missing from the bench output entirely, so a
// rename can't silently skip the gate — fails the run with exit 1.
// `make bench-allocs` drives this against bench_allocs_floors.txt.
package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// sample is every measurement collected for one benchmark name in one
// file, one slice per unit ("ns/op", "B/op", ...).
type sample struct {
	units map[string][]float64
	order []string // units in first-seen order
}

// primaryUnit is the first-seen unit of a sample, or "" when the
// benchmark line carried no parseable (value, unit) pair at all — a
// malformed baseline must degrade to an "n/a" row, not an index panic.
func (s *sample) primaryUnit() string {
	if s == nil || len(s.order) == 0 {
		return ""
	}
	return s.order[0]
}

// parseBench reads a `go test -bench` output file: lines shaped
//
//	BenchmarkName[/sub...]-P  <iters>  <value> <unit> [<value> <unit>...]
//
// Everything else (PASS, ok, --- BENCH log sections, b.Logf output) is
// ignored. The -P GOMAXPROCS suffix stays in the name; run decides
// whether rows match with or without it.
func parseBench(path string) (map[string]*sample, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	out := map[string]*sample{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not an iteration count; some other line
		}
		s := out[fields[0]]
		if s == nil {
			s = &sample{units: map[string][]float64{}}
			out[fields[0]] = s
			order = append(order, fields[0])
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			unit := fields[i+1]
			if _, seen := s.units[unit]; !seen {
				s.order = append(s.order, unit)
			}
			s.units[unit] = append(s.units[unit], v)
		}
	}
	return out, order, sc.Err()
}

// meanSpread reduces a sample set to its mean and max relative
// deviation from the mean (the ± the report prints). An empty set
// yields (0, 0), never NaN.
func meanSpread(xs []float64) (mean, spreadPct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		if d := math.Abs(x-mean) / math.Max(mean, 1e-12) * 100; d > spreadPct {
			spreadPct = d
		}
	}
	return mean, spreadPct
}

func main() {
	w := bufio.NewWriter(os.Stdout)
	switch {
	case len(os.Args) == 4 && os.Args[1] == "-gate":
		ok, err := gate(os.Args[2], os.Args[3], w)
		w.Flush()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ghbenchdiff: %v\n", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
	case len(os.Args) == 3:
		err := run(os.Args[1], os.Args[2], w)
		w.Flush()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ghbenchdiff: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: ghbenchdiff old.txt new.txt\n       ghbenchdiff -gate ceilings.txt current.txt")
		os.Exit(2)
	}
}

// stripProcSuffix removes the trailing -GOMAXPROCS decoration go test
// appends to benchmark names ("BenchmarkFoo/sub-8" → "BenchmarkFoo/sub"),
// so ceilings files stay valid across machines with different core
// counts. Only an all-digit final segment is stripped.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}

// gate enforces the allocs/op ceilings in floorsPath against the bench
// output in benchPath. Returns ok=false (after printing every verdict)
// when any listed benchmark exceeds its ceiling or is absent from the
// output; an unparseable ceilings file is an error, not a pass.
func gate(floorsPath, benchPath string, w io.Writer) (bool, error) {
	f, err := os.Open(floorsPath)
	if err != nil {
		return false, err
	}
	defer f.Close()
	type ceiling struct {
		name string
		max  float64
	}
	var ceilings []ceiling
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return false, fmt.Errorf("%s:%d: want `BenchmarkName max-allocs/op`, got %q", floorsPath, line, text)
		}
		max, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || max < 0 {
			return false, fmt.Errorf("%s:%d: bad ceiling %q", floorsPath, line, fields[1])
		}
		ceilings = append(ceilings, ceiling{fields[0], max})
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	if len(ceilings) == 0 {
		return false, fmt.Errorf("%s: no ceilings — an empty gate gates nothing", floorsPath)
	}

	cur, curOrder, err := parseBench(benchPath)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-44s %12s %12s  %s\n", "benchmark", "allocs/op", "ceiling", "verdict")
	for _, c := range ceilings {
		found := false
		for _, name := range curOrder {
			if stripProcSuffix(name) != c.name {
				continue
			}
			found = true
			xs := cur[name].units["allocs/op"]
			if len(xs) == 0 {
				ok = false
				fmt.Fprintf(w, "%-44s %12s %12g  FAIL (no allocs/op — run with -benchmem)\n",
					strings.TrimPrefix(name, "Benchmark"), "—", c.max)
				continue
			}
			mean, _ := meanSpread(xs)
			verdict := "ok"
			if mean > c.max {
				ok = false
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "%-44s %12.3f %12g  %s\n",
				strings.TrimPrefix(name, "Benchmark"), mean, c.max, verdict)
		}
		if !found {
			ok = false
			fmt.Fprintf(w, "%-44s %12s %12g  FAIL (missing from bench output)\n",
				strings.TrimPrefix(c.name, "Benchmark"), "—", c.max)
		}
	}
	return ok, nil
}

// stripsUniquely reports whether no two names collide once their
// -GOMAXPROCS suffixes are stripped, i.e. the file is no -cpu sweep.
func stripsUniquely(names []string) bool {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		k := stripProcSuffix(n)
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

// run is the whole comparison: parse both files, print the aligned
// table and per-unit geomeans to w. Split from main so the degenerate
// baselines (zero means, empty samples) are testable without a
// subprocess.
//
// Rows match by name with the -GOMAXPROCS suffix stripped, as -gate
// matches them, so a baseline recorded on another core count still
// pairs row for row. When stripping would merge two rows of either
// file (a -cpu sweep), rows match by their full names instead. Each
// row is labelled with its name in the old file, or in the new file
// when the old one lacks it.
func run(oldPath, newPath string, w io.Writer) error {
	old, oldOrder, err := parseBench(oldPath)
	if err != nil {
		return err
	}
	cur, curOrder, err := parseBench(newPath)
	if err != nil {
		return err
	}
	key := func(name string) string { return name }
	if stripsUniquely(oldOrder) && stripsUniquely(curOrder) {
		key = stripProcSuffix
	}
	curByKey := make(map[string]*sample, len(curOrder))
	for _, n := range curOrder {
		curByKey[key(n)] = cur[n]
	}

	// Old file dictates row order; new-only benchmarks append after.
	type row struct {
		name string
		o, c *sample
	}
	var rows []row
	inOld := make(map[string]bool, len(oldOrder))
	for _, n := range oldOrder {
		inOld[key(n)] = true
		rows = append(rows, row{n, old[n], curByKey[key(n)]})
	}
	for _, n := range curOrder {
		if !inOld[key(n)] {
			rows = append(rows, row{n, nil, cur[n]})
		}
	}

	fmt.Fprintf(w, "%-52s %16s %16s %9s\n", "name", "old", "new", "delta")
	byUnit := map[string][]float64{} // per-unit delta ratios for the geomean
	for _, r := range rows {
		o, c := r.o, r.c
		short := strings.TrimPrefix(r.name, "Benchmark")
		switch {
		case c == nil:
			fmt.Fprintf(w, "%-52s %16s %16s %9s\n", short, fmtMean(o, o.primaryUnit()), "—", "deleted")
		case o == nil:
			fmt.Fprintf(w, "%-52s %16s %16s %9s\n", short, "—", fmtMean(c, c.primaryUnit()), "new")
		default:
			for _, unit := range o.order {
				if _, ok := c.units[unit]; !ok {
					continue
				}
				om, _ := meanSpread(o.units[unit])
				cm, _ := meanSpread(c.units[unit])
				label := short
				if unit != o.primaryUnit() {
					label = short + " [" + unit + "]"
				}
				delta := "n/a"
				if om > 0 {
					delta = fmt.Sprintf("%+8.2f%%", (cm-om)/om*100)
				}
				fmt.Fprintf(w, "%-52s %16s %16s %9s\n",
					label, fmtMean(o, unit), fmtMean(c, unit), delta)
				if om > 0 && cm > 0 {
					byUnit[unit] = append(byUnit[unit], cm/om)
				}
			}
		}
	}
	units := make([]string, 0, len(byUnit))
	for u := range byUnit {
		units = append(units, u)
	}
	sort.Strings(units)
	for _, u := range units {
		ratios := byUnit[u]
		logSum := 0.0
		for _, r := range ratios {
			logSum += math.Log(r)
		}
		fmt.Fprintf(w, "geomean [%s]  %+.2f%%  (%d benchmarks)\n",
			u, (math.Exp(logSum/float64(len(ratios)))-1)*100, len(ratios))
	}
	return nil
}

// fmtMean renders one unit of a sample as "mean ±spread% unit", or "—"
// when the sample has no measurements under that unit.
func fmtMean(s *sample, unit string) string {
	if s == nil || len(s.units[unit]) == 0 {
		return "—"
	}
	m, sp := meanSpread(s.units[unit])
	val := strconv.FormatFloat(m, 'g', 5, 64)
	if sp >= 0.5 {
		return fmt.Sprintf("%s%s ±%.0f%%", val, unitSuffix(unit), sp)
	}
	return val + unitSuffix(unit)
}

// unitSuffix abbreviates the dominant units for column compactness.
func unitSuffix(unit string) string {
	switch unit {
	case "ns/op":
		return "ns"
	case "B/op":
		return "B"
	case "allocs/op":
		return "al"
	}
	return unit
}
