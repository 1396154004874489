package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestZeroBaselineMeanIsNA is the regression test for the divide-by-
// zero crash: a refreshed baseline can legitimately record 0 for a
// counter-style unit (e.g. 0 allocs/op, 0 fsyncs/op). The diff must
// render "n/a" for that row's delta, keep the row out of the geomean,
// and exit cleanly.
func TestZeroBaselineMeanIsNA(t *testing.T) {
	oldP := writeTemp(t, "old.txt", `
BenchmarkAckedWrite/nolog-8   1000  120.0 ns/op  0 allocs/op
BenchmarkAckedWrite/legacy-8  1000  900.0 ns/op  2 allocs/op
`)
	newP := writeTemp(t, "new.txt", `
BenchmarkAckedWrite/nolog-8   1000  110.0 ns/op  1 allocs/op
BenchmarkAckedWrite/legacy-8  1000  450.0 ns/op  2 allocs/op
`)
	var b strings.Builder
	if err := run(oldP, newP, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "n/a") {
		t.Fatalf("zero baseline mean did not render n/a:\n%s", out)
	}
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Fatalf("output leaked Inf/NaN:\n%s", out)
	}
	if !strings.Contains(out, "-50.00%") {
		t.Fatalf("healthy row lost its delta:\n%s", out)
	}
	// The allocs/op geomean must only count the rows with a non-zero
	// baseline — one benchmark, not two.
	if !strings.Contains(out, "geomean [allocs/op]  +0.00%  (1 benchmarks)") {
		t.Fatalf("geomean included the zero-baseline row:\n%s", out)
	}
}

// TestMalformedSampleNoPanic pins the o.order[0] hardening: a baseline
// row whose measurements never parse (empty unit list) used to panic
// when the benchmark was later deleted. It must render an em-dash row.
func TestMalformedSampleNoPanic(t *testing.T) {
	oldP := writeTemp(t, "old.txt", `
BenchmarkBroken-8  1000  garbage ns/op
BenchmarkFine-8    1000  100.0 ns/op
`)
	newP := writeTemp(t, "new.txt", `
BenchmarkFine-8    1000  100.0 ns/op
`)
	var b strings.Builder
	if err := run(oldP, newP, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Broken-8") || !strings.Contains(out, "deleted") {
		t.Fatalf("malformed deleted row missing:\n%s", out)
	}
	if !strings.Contains(out, "+0.00%") {
		t.Fatalf("healthy row missing:\n%s", out)
	}
}

// TestGatePassAndFail covers the -gate verdicts: a benchmark at or
// under its ceiling passes, one over fails, and a ceiling whose
// benchmark never ran fails too (a rename must not skip the gate).
func TestGatePassAndFail(t *testing.T) {
	bench := writeTemp(t, "cur.txt", `
BenchmarkWriteResponseFixed-8    1000  12.0 ns/op  0 B/op  0 allocs/op
BenchmarkWriteResponseFixed-8    1000  12.5 ns/op  0 B/op  0 allocs/op
BenchmarkServeBatchPipeline-8    1000  6000 ns/op  3 B/op  2 allocs/op
`)
	floors := writeTemp(t, "floors.txt", `
# comment lines and blanks are fine
BenchmarkWriteResponseFixed 0
BenchmarkServeBatchPipeline 0.5
BenchmarkRequestReaderBatch 0
`)
	var b strings.Builder
	ok, err := gate(floors, bench, &b)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("gate passed despite a violation and a missing benchmark:\n%s", b.String())
	}
	out := b.String()
	if !strings.Contains(out, "WriteResponseFixed-8") || strings.Contains(out, "WriteResponseFixed-8 ") && !strings.Contains(out, "ok") {
		t.Fatalf("passing row missing:\n%s", out)
	}
	if !strings.Contains(out, "FAIL (missing from bench output)") {
		t.Fatalf("missing-benchmark row not flagged:\n%s", out)
	}
	if strings.Count(out, "FAIL") != 2 {
		t.Fatalf("want exactly 2 FAIL rows (over-ceiling + missing):\n%s", out)
	}

	allPass := writeTemp(t, "floors2.txt", "BenchmarkWriteResponseFixed 0\nBenchmarkServeBatchPipeline 2\n")
	b.Reset()
	ok, err = gate(allPass, bench, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("gate failed with every ceiling satisfied:\n%s", b.String())
	}
}

// TestGateRejectsDegenerateInputs pins the error paths: a malformed
// ceilings line, a benchmark run without -benchmem, and an empty
// ceilings file must all refuse to pass.
func TestGateRejectsDegenerateInputs(t *testing.T) {
	bench := writeTemp(t, "cur.txt", "BenchmarkNoMem-8 1000 12.0 ns/op\n")
	var b strings.Builder
	if _, err := gate(writeTemp(t, "bad.txt", "BenchmarkNoMem zero allocs\n"), bench, &b); err == nil {
		t.Fatal("malformed ceilings line accepted")
	}
	if _, err := gate(writeTemp(t, "empty.txt", "# nothing\n"), bench, &b); err == nil {
		t.Fatal("empty ceilings file accepted")
	}
	b.Reset()
	ok, err := gate(writeTemp(t, "floors.txt", "BenchmarkNoMem 0\n"), bench, &b)
	if err != nil {
		t.Fatal(err)
	}
	if ok || !strings.Contains(b.String(), "-benchmem") {
		t.Fatalf("benchmark without allocs/op passed the allocation gate:\n%s", b.String())
	}
}

// TestStripProcSuffix pins the name normalisation the ceilings file
// relies on.
func TestStripProcSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFoo-8":          "BenchmarkFoo",
		"BenchmarkFoo/sub-16":     "BenchmarkFoo/sub",
		"BenchmarkFoo":            "BenchmarkFoo",
		"BenchmarkAdaptive-1ms-8": "BenchmarkAdaptive-1ms", // only the numeric tail goes
		"BenchmarkTrailingDash-":  "BenchmarkTrailingDash-",
	} {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestNewAndDeletedRows covers the alignment paths around a baseline
// refresh: rows only in the old file read "deleted", rows only in the
// new file read "new", and ordering follows the old file first.
func TestNewAndDeletedRows(t *testing.T) {
	oldP := writeTemp(t, "old.txt", "BenchmarkGone-8 100 50.0 ns/op\n")
	newP := writeTemp(t, "new.txt", "BenchmarkAdded-8 100 75.0 ns/op\n")
	var b strings.Builder
	if err := run(oldP, newP, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	gone := strings.Index(out, "Gone-8")
	added := strings.Index(out, "Added-8")
	if gone < 0 || added < 0 || gone > added {
		t.Fatalf("row alignment wrong:\n%s", out)
	}
	if !strings.Contains(out, "deleted") || !strings.Contains(out, "new") {
		t.Fatalf("status columns missing:\n%s", out)
	}
}

// statusOf returns the last column of every table row whose name
// column is name, skipping the header and geomean lines.
func statusOf(out, name string) []string {
	var got []string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 1 && f[0] == name {
			got = append(got, f[len(f)-1])
		}
	}
	return got
}

// TestDiffPairsAcrossProcCounts: a baseline recorded at GOMAXPROCS 1
// against a run at 2 pairs every row by the stripped name, so none
// reads "deleted" or "new" and each gets its delta.
func TestDiffPairsAcrossProcCounts(t *testing.T) {
	oldP := writeTemp(t, "old.txt", `
BenchmarkSubstrateCacheHit-1        1000  4.0 ns/op
BenchmarkAckedWrite/nolog-1         1000  100.0 ns/op
BenchmarkAdaptive-1ms-1             1000  50.0 ns/op
`)
	newP := writeTemp(t, "new.txt", `
BenchmarkSubstrateCacheHit-2        1000  2.0 ns/op
BenchmarkAckedWrite/nolog-2         1000  150.0 ns/op
BenchmarkAdaptive-1ms-2             1000  50.0 ns/op
`)
	var b strings.Builder
	if err := run(oldP, newP, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for name, want := range map[string]string{
		"SubstrateCacheHit-1": "-50.00%",
		"AckedWrite/nolog-1":  "+50.00%",
		"Adaptive-1ms-1":      "+0.00%",
	} {
		if got := statusOf(out, name); len(got) != 1 || got[0] != want {
			t.Errorf("row %s: delta %v, want [%s]", name, got, want)
		}
	}
	if strings.Contains(out, "deleted") || len(statusOf(out, "SubstrateCacheHit-2")) != 0 {
		t.Fatalf("rows of a -1 baseline did not pair with a -2 run:\n%s", out)
	}
}

// TestDiffKeepsCPUSweepRows: a -cpu 1,2 sweep names each benchmark
// twice, and stripping would merge them, so rows match by full name and
// each GOMAXPROCS keeps its own row and delta.
func TestDiffKeepsCPUSweepRows(t *testing.T) {
	oldP := writeTemp(t, "old.txt", `
BenchmarkConcurrentMixedParallel-1  1000  100.0 ns/op
BenchmarkConcurrentMixedParallel-2  1000  200.0 ns/op
`)
	newP := writeTemp(t, "new.txt", `
BenchmarkConcurrentMixedParallel-1  1000  110.0 ns/op
BenchmarkConcurrentMixedParallel-2  1000  100.0 ns/op
`)
	var b strings.Builder
	if err := run(oldP, newP, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for name, want := range map[string]string{
		"ConcurrentMixedParallel-1": "+10.00%",
		"ConcurrentMixedParallel-2": "-50.00%",
	} {
		if got := statusOf(out, name); len(got) != 1 || got[0] != want {
			t.Errorf("row %s: delta %v, want [%s]\n%s", name, got, want, out)
		}
	}
}
