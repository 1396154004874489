package harness

import (
	"bytes"
	"strings"
	"testing"

	"grouphash/internal/hashtab"
	"grouphash/internal/native"
	"grouphash/internal/stats"
	"grouphash/internal/trace"
)

func TestBuildAllKinds(t *testing.T) {
	for _, k := range []Kind{Group, Linear, LinearL, PFHT, PFHTL, Path, PathL} {
		cfg := BuildConfig{Kind: k, TotalCells: 1 << 12, KeyBytes: 8, Seed: 1}
		mem := native.New(RegionBytes(cfg))
		tab := Build(mem, cfg)
		if tab == nil {
			t.Fatalf("Build(%s) returned nil", k)
		}
		if string(k) != tab.Name() {
			t.Fatalf("kind %q built table named %q", k, tab.Name())
		}
		// Capacity within 2x of the budget for every scheme.
		if tab.Capacity() < 1<<11 || tab.Capacity() > 1<<13 {
			t.Fatalf("%s capacity %d is far from the %d budget", k, tab.Capacity(), 1<<12)
		}
	}
}

func TestBuildUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(native.New(1<<20), BuildConfig{Kind: "bogus", TotalCells: 1 << 10})
}

func TestRunLatencySmoke(t *testing.T) {
	s := TestScale()
	res := RunLatency(LatencyConfig{
		Build:      BuildConfig{Kind: Group, TotalCells: s.RandomNumCells, Seed: 1},
		Trace:      trace.NewRandomNum(1),
		LoadFactor: 0.5,
		Ops:        100,
		Seed:       1,
	})
	if res.Scheme != "group" || res.Trace != "RandomNum" {
		t.Fatalf("labels: %+v", res)
	}
	if res.Loaded == 0 {
		t.Fatal("load phase inserted nothing")
	}
	for name, c := range map[string]OpCost{"insert": res.Insert, "query": res.Query, "delete": res.Delete} {
		if c.AvgLatencyNs <= 0 {
			t.Fatalf("%s latency not positive: %+v", name, c)
		}
		if c.Count != 100 {
			t.Fatalf("%s measured %d ops", name, c.Count)
		}
	}
	// Query must be cheaper than insert (no persistence work).
	if res.Query.AvgLatencyNs >= res.Insert.AvgLatencyNs {
		t.Fatalf("query (%.0f) not cheaper than insert (%.0f)",
			res.Query.AvgLatencyNs, res.Insert.AvgLatencyNs)
	}
	// Queries and deletes of resident keys must all succeed.
	if res.Query.Failures != 0 || res.Delete.Failures != 0 {
		t.Fatalf("failures: query %d delete %d", res.Query.Failures, res.Delete.Failures)
	}
}

func TestLoggingCostShowsInFig2(t *testing.T) {
	r := Fig2(TestScale())
	if len(r.Rows) != 6 {
		t.Fatalf("Fig2 rows = %d", len(r.Rows))
	}
	if r.SchemesCompared != 3 {
		t.Fatalf("pairs = %d", r.SchemesCompared)
	}
	if r.LatencyRatio <= 1.0 {
		t.Fatalf("logging did not slow mutations down: ratio %.2f", r.LatencyRatio)
	}
	if r.L3MissRatio <= 1.0 {
		t.Fatalf("logging did not add L3 misses: ratio %.2f", r.L3MissRatio)
	}
}

func TestSpaceUtilOrdering(t *testing.T) {
	// Figure 7's shape: path > pfht > group, and group ≥ ~70% even at
	// test scale.
	s := TestScale()
	tr := trace.NewRandomNum(1)
	get := func(k Kind) float64 {
		return RunSpaceUtil(BuildConfig{Kind: k, TotalCells: s.RandomNumCells, Seed: 1}, tr).Utilization
	}
	path := get(Path)
	pfht := get(PFHT)
	group := get(Group)
	if !(path > group && pfht > group) {
		t.Fatalf("utilisation ordering wrong: path %.3f pfht %.3f group %.3f", path, pfht, group)
	}
	if group < 0.70 || group > 0.95 {
		t.Fatalf("group utilisation %.3f outside the plausible band around the paper's 82%%", group)
	}
}

func TestFig8Monotonicity(t *testing.T) {
	rows := Fig8(TestScale())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Utilisation grows with group size (Figure 8b).
	for i := 1; i < len(rows); i++ {
		if rows[i].Utilization.Utilization <= rows[i-1].Utilization.Utilization {
			t.Fatalf("utilisation not increasing: %v -> %v",
				rows[i-1].Utilization.Utilization, rows[i].Utilization.Utilization)
		}
	}
}

func TestTable3RecoveryUnderOnePercent(t *testing.T) {
	rows := Table3(TestScale())
	for _, r := range rows {
		if r.Percentage > 5 {
			t.Fatalf("recovery is %.2f%% of execution for %d bytes (paper: <1%%)",
				r.Percentage, r.TableBytes)
		}
		if r.RecoveryMs <= 0 || r.ExecMs <= 0 {
			t.Fatalf("degenerate timing: %+v", r)
		}
	}
	// Recovery time grows with table size.
	if rows[1].RecoveryMs <= rows[0].RecoveryMs {
		t.Fatalf("recovery time not growing with size: %+v", rows)
	}
}

// TestRecoverHelper pins what ghrecover's crash rounds rely on: a
// harness-built group table is hashtab.Recoverable, and recovering a
// clean one succeeds.
func TestRecoverHelper(t *testing.T) {
	cfg := BuildConfig{Kind: Group, TotalCells: 1 << 10, KeyBytes: 8}
	mem := native.New(RegionBytes(cfg))
	r, ok := Build(mem, cfg).(hashtab.Recoverable)
	if !ok {
		t.Fatal("group table must be recoverable")
	}
	if _, err := r.Recover(); err != nil {
		t.Fatalf("recovering a clean group table: %v", err)
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	s := TestScale()
	var buf bytes.Buffer

	f2 := Fig2(s)
	PrintFig2(&buf, f2)
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Fatal("Fig2 printer")
	}

	buf.Reset()
	m := RequestMatrix{Rows: []LatencyResult{{Scheme: "group", Trace: "RandomNum", LoadFactor: 0.5}}}
	PrintFig5(&buf, m)
	PrintFig6(&buf, m)
	if !strings.Contains(buf.String(), "Figure 5") || !strings.Contains(buf.String(), "Figure 6") {
		t.Fatal("Fig5/6 printers")
	}

	buf.Reset()
	PrintFig7(&buf, []SpaceUtilResult{{Scheme: "group", Trace: "RandomNum", Utilization: 0.82}})
	if !strings.Contains(buf.String(), "82.0%") {
		t.Fatalf("Fig7 printer: %s", buf.String())
	}

	buf.Reset()
	PrintFig8(&buf, []Fig8Row{{GroupSize: 256}})
	if !strings.Contains(buf.String(), "256") {
		t.Fatal("Fig8 printer")
	}

	buf.Reset()
	PrintTable3(&buf, []RecoveryResult{{TableBytes: 128 << 20, RecoveryMs: 77.8, ExecMs: 8426.2, Percentage: 0.92}})
	if !strings.Contains(buf.String(), "128MB") || !strings.Contains(buf.String(), "0.92%") {
		t.Fatalf("Table3 printer: %s", buf.String())
	}
}

func TestRepeatLatencyAggregates(t *testing.T) {
	s := TestScale()
	r := RepeatLatency(LatencyConfig{
		Build:      BuildConfig{Kind: Group, TotalCells: s.RandomNumCells, Seed: 1},
		Trace:      trace.NewRandomNum(1),
		LoadFactor: 0.5,
		Ops:        100,
		Seed:       1,
	}, 5)
	if r.Runs != 5 {
		t.Fatalf("runs = %d", r.Runs)
	}
	if r.Insert.Latency.Mean() <= 0 {
		t.Fatal("no latency aggregated")
	}
	// Independent seeds: the runs must not be byte-identical, but they
	// must be close (same configuration) — the paper's averaging is
	// only meaningful if run-to-run variance is modest.
	if r.Insert.Latency.Stddev() == 0 {
		t.Fatal("five executions identical — seeds not independent")
	}
	for _, lat := range []stats.Summary{r.Insert.Latency, r.Query.Latency, r.Delete.Latency} {
		if cv := lat.Stddev() / lat.Mean(); cv > 0.5 {
			t.Fatalf("wild variance across runs: %v", cv)
		}
	}
	var buf bytes.Buffer
	PrintRepeated(&buf, []RepeatedLatencyResult{r})
	if !strings.Contains(buf.String(), "n=5") {
		t.Fatalf("printer: %s", buf.String())
	}
}

func TestRepeatLatencySingleRunFloor(t *testing.T) {
	s := TestScale()
	r := RepeatLatency(LatencyConfig{
		Build:      BuildConfig{Kind: Group, TotalCells: s.RandomNumCells, Seed: 1},
		Trace:      trace.NewRandomNum(1),
		LoadFactor: 0.5,
		Ops:        50,
		Seed:       1,
	}, 0)
	if r.Runs != 1 {
		t.Fatalf("runs = %d, want floor of 1", r.Runs)
	}
}

func TestRunYCSBAllWorkloadsAllSchemes(t *testing.T) {
	for _, w := range []byte{'a', 'b', 'c', 'd', 'f'} {
		for _, k := range Fig5Schemes() {
			res := RunYCSB(k, w, 2000, 500, 1)
			if res.Ops != 500 || res.AvgLatencyNs <= 0 {
				t.Fatalf("%s/%c: %+v", k, w, res)
			}
			if w == 'c' && res.WriteLatencyNs != 0 {
				t.Fatalf("read-only workload had writes: %+v", res)
			}
			if w != 'c' && res.WriteLatencyNs <= res.ReadLatencyNs {
				t.Fatalf("%s/%c: writes (%f) not costlier than reads (%f)",
					k, w, res.WriteLatencyNs, res.ReadLatencyNs)
			}
		}
	}
}

func TestYCSBPrinter(t *testing.T) {
	var buf bytes.Buffer
	PrintYCSB(&buf, []YCSBResult{{Scheme: "group", Workload: "YCSB-A", Ops: 10}})
	if !strings.Contains(buf.String(), "YCSB-A") {
		t.Fatal("printer")
	}
}

func TestPlotsRender(t *testing.T) {
	var buf bytes.Buffer
	m := RequestMatrix{Rows: []LatencyResult{{
		Scheme: "group", Trace: "RandomNum", LoadFactor: 0.5,
		Insert: OpCost{AvgLatencyNs: 1400, AvgL3Misses: 2.2},
		Delete: OpCost{AvgLatencyNs: 1300, AvgL3Misses: 2.1},
	}}}
	PlotFig5(&buf, m)
	PlotFig6(&buf, m)
	PlotFig7(&buf, []SpaceUtilResult{{Scheme: "group", Trace: "RandomNum", Utilization: 0.79}})
	PlotFig8(&buf, []Fig8Row{{GroupSize: 256, Latency: LatencyResult{Insert: OpCost{AvgLatencyNs: 1420}}, Utilization: SpaceUtilResult{Utilization: 0.79}}})
	out := buf.String()
	for _, want := range []string{"█", "79.0%", "group insert", "group 256"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plots missing %q:\n%s", want, out)
		}
	}
}

func TestExcludedComparison(t *testing.T) {
	rows := ExcludedComparison(TestScale())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]ExcludedResult{}
	for _, r := range rows {
		byName[r.Scheme] = r
	}
	group, chained, dchoice := byName["group"], byName["chained"], byName["2choice"]
	// The paper's two exclusion reasons, as measured facts:
	if dchoice.Utilization > 0.2 {
		t.Fatalf("2-choice utilisation %.3f not 'too low'", dchoice.Utilization)
	}
	if chained.L3Misses <= group.L3Misses {
		t.Fatalf("chained pointer chasing (%.2f) not worse than group (%.2f)",
			chained.L3Misses, group.L3Misses)
	}
	if chained.QueryNs <= group.QueryNs {
		t.Fatalf("chained query (%.0f) not slower than group (%.0f)",
			chained.QueryNs, group.QueryNs)
	}
	if chained.BytesPerItem <= group.BytesPerItem {
		t.Fatalf("chained footprint (%.1f B/item) not above group (%.1f)",
			chained.BytesPerItem, group.BytesPerItem)
	}
	var buf bytes.Buffer
	PrintExcluded(&buf, rows)
	if !strings.Contains(buf.String(), "exclusion") {
		t.Fatal("printer")
	}
}

func TestPhaseTailLatencies(t *testing.T) {
	s := TestScale()
	res := RunLatency(LatencyConfig{
		Build:      BuildConfig{Kind: Group, TotalCells: s.RandomNumCells, Seed: 1},
		Trace:      trace.NewRandomNum(1),
		LoadFactor: 0.75,
		Ops:        200,
		Seed:       1,
	})
	for name, c := range map[string]OpCost{"insert": res.Insert, "query": res.Query} {
		if c.MedianNs <= 0 || c.P99Ns <= 0 {
			t.Fatalf("%s: missing tail stats %+v", name, c)
		}
		if c.P99Ns < c.MedianNs {
			t.Fatalf("%s: p99 (%f) below median (%f)", name, c.P99Ns, c.MedianNs)
		}
	}
	// The group-scan tail: query p99 well above the median at lf 0.75.
	if res.Query.P99Ns < 1.5*res.Query.MedianNs {
		t.Fatalf("query tail suspiciously flat: median %f p99 %f",
			res.Query.MedianNs, res.Query.P99Ns)
	}
}

func TestLoadCurve(t *testing.T) {
	r := RunLoadCurve(Group, 1<<14, []float64{0.2, 0.5, 0.75}, 150, 1)
	if r.Scheme != "group" || len(r.Points) != 3 {
		t.Fatalf("curve = %+v", r)
	}
	for i, p := range r.Points {
		if p.InsertNs <= 0 || p.QueryNs <= 0 {
			t.Fatalf("point %d degenerate: %+v", i, p)
		}
	}
	// Query cost grows with fill level for group hashing (deeper scans).
	if r.Points[2].QueryNs <= r.Points[0].QueryNs {
		t.Fatalf("query cost not growing with fill: %+v", r.Points)
	}
	var buf bytes.Buffer
	PrintCurves(&buf, []CurveResult{r})
	if !strings.Contains(buf.String(), "Load curve") {
		t.Fatal("printer")
	}
	buf.Reset()
	if err := WriteCurveCSV(&buf, []CurveResult{r}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "scheme,load_factor") {
		t.Fatal("csv header")
	}
}

func TestWearComparison(t *testing.T) {
	rows := WearComparison(TestScale())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]WearResult{}
	for _, r := range rows {
		if r.Ops == 0 || r.MediaWritesPerOp <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		byName[r.Scheme] = r
	}
	group := byName["group"]
	for _, logged := range []string{"linear-L", "pfht-L", "path-L"} {
		if byName[logged].MediaWritesPerOp < 2*group.MediaWritesPerOp {
			t.Fatalf("%s media writes (%.2f) not well above group (%.2f)",
				logged, byName[logged].MediaWritesPerOp, group.MediaWritesPerOp)
		}
		// Logged schemes hammer the log header words; their p99 wear
		// is far above group's.
		if byName[logged].P99PerWord <= group.P99PerWord {
			t.Fatalf("%s p99 wear (%d) not above group (%d)",
				logged, byName[logged].P99PerWord, group.P99PerWord)
		}
	}
	var buf bytes.Buffer
	PrintWear(&buf, rows)
	if !strings.Contains(buf.String(), "media writes/op") {
		t.Fatal("printer")
	}
}
