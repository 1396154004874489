package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"grouphash"
	"grouphash/internal/client"
	"grouphash/internal/core"
	"grouphash/internal/layout"
	"grouphash/internal/stats"
)

func TestTracedEngineApplyBatchPassesThrough(t *testing.T) {
	st, err := grouphash.New(grouphash.Options{Capacity: 1 << 10, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracedEngine{Engine: st}
	ops := []core.BatchOp{
		{Kind: grouphash.BatchPut, Key: layout.Key{Lo: 1}, Value: 10},
		{Kind: grouphash.BatchPut, Key: layout.Key{Lo: 2}, Value: 20},
		{Kind: grouphash.BatchDelete, Key: layout.Key{Lo: 3}}, // absent: not applied
		{Kind: grouphash.BatchPut, Key: layout.Key{Lo: 1}, Value: 11},
	}
	out := make([]core.BatchResult, len(ops))
	var seen []int
	tr.ApplyBatch(ops, out, nil, func(applied []int) { seen = append(seen, applied...) })

	if len(seen) != 3 {
		t.Fatalf("committed saw applied indices %v, want the three mutations", seen)
	}
	for _, i := range seen {
		if i == 2 {
			t.Fatalf("committed saw the absent delete: %v", seen)
		}
	}
	if out[2].Found || out[2].Err != nil {
		t.Fatalf("absent delete result %+v", out[2])
	}
	for k, want := range map[uint64]uint64{1: 11, 2: 20} {
		if v, ok := tr.Get(layout.Key{Lo: k}); !ok || v != want {
			t.Fatalf("Get(%d) = %d, %v; want %d", k, v, ok, want)
		}
	}
	c := tr.snapshot()
	if c.applies != 1 || c.applyOps != 4 || c.records != 3 || c.commits == 0 || c.gets != 2 {
		t.Fatalf("counters %+v", c)
	}
	if c.commitNs > c.applyNs {
		t.Fatalf("callback time %d exceeds ApplyBatch time %d", c.commitNs, c.applyNs)
	}

	// A nil callback stays nil: the engine must not see a hook to run.
	tr.ApplyBatch(ops[:1], out[:1], nil, nil)
	if c2 := tr.snapshot(); c2.commits != c.commits || c2.applies != 2 {
		t.Fatalf("nil callback: counters %+v", c2)
	}
}

// TestAuditRejectsLostWrite crashes a stage, cuts the last acked record
// off its oplog, and requires both the recovery audit and the check of
// a store against its acked load to notice.
func TestAuditRejectsLostWrite(t *testing.T) {
	w, _ := lookup("write-grow-batch")
	st, err := boot(w, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(st.addr, time.Second)
	if err != nil {
		st.discard()
		t.Fatal(err)
	}
	keys, vals := make([]client.Key, 100), make([]uint64, 100)
	for i := range keys {
		keys[i], vals[i] = client.Key{Lo: uint64(i + 1)}, uint64(i)
	}
	err = c.PutBatch(keys, vals)
	c.Close()
	if err != nil {
		st.discard()
		t.Fatal(err)
	}
	if err := checkDrained(st.store, uint64(len(keys))); err != nil {
		t.Fatalf("check of the intact store: %v", err)
	}
	want, wantLen := digestOf(st.store), st.store.Len()
	if err := audit(want, wantLen, st.store); err != nil {
		t.Fatalf("audit of the store itself: %v", err)
	}
	if err := st.crash(); err != nil {
		t.Fatal(err)
	}
	const recordLen = 40
	fi, err := os.Stat(st.log.ActivePath())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(st.log.ActivePath(), fi.Size()-recordLen); err != nil {
		t.Fatal(err)
	}
	fresh, err := newStore(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fresh.ReplayOplog(st.oplogBase(), 0); err != nil {
		t.Fatal(err)
	}
	if err := audit(want, wantLen, fresh); err == nil {
		t.Fatal("audit accepted a recovery that lost an acked write")
	}
	if err := checkDrained(fresh, uint64(len(keys))); !errors.Is(err, errCheck) {
		t.Fatalf("check of a store missing an acked write: %v", err)
	}
	// The same key set with one value changed must fail too.
	for i, k := range keys {
		if err := fresh.Put(k, vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fresh.Put(keys[0], vals[0]+1); err != nil {
		t.Fatal(err)
	}
	if err := audit(want, wantLen, fresh); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("audit of a changed value: %v", err)
	}
}

func TestSimulationRepeatsExactly(t *testing.T) {
	a, err := simulate(1<<12, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simulate(1<<12, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.res != b.res {
		t.Fatalf("same seed, different counts:\n%+v\n%+v", a.res, b.res)
	}
	c, err := simulate(1<<12, 200, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.res == a.res {
		t.Fatal("a different seed gave identical counts")
	}
}

// TestHistDeltaReadsTheWindow checks that quantiles read from two
// scrapes of a registry histogram cover only what the window observed.
func TestHistDeltaReadsTheWindow(t *testing.T) {
	var h stats.Histogram
	r := stats.NewRegistry()
	r.RegisterHistogram("x_seconds", "", "Test latencies.", 1e-9, &h)
	for i := 0; i < 1000; i++ {
		h.Observe(1000) // before the window: 1 µs each
	}
	before, err := readRegistry(r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(uint64(i) * 1000) // the window: 1 µs .. 1 ms
	}
	after, err := readRegistry(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := histDelta(before, after, "x_seconds", q)*1e6, q*1000
		if math.Abs(got-want) > want/8 {
			t.Errorf("q%g = %.1f us, want %.1f us within a bucket", q, got, want)
		}
	}
}

// tiny shrinks a workload to a few seconds while keeping its shape and
// a thousand bursts per round for a p99.
func tiny(w workload) workload {
	w.capacity = 1 << 10
	if w.records > 0 {
		w.records = 1 << 9
	}
	w.ops = 40000
	w.depth = 1
	if w.batch > 0 {
		w.depth, w.batch = 4, 4
	}
	if w.warmOps > 0 {
		w.warmOps = 1000
	}
	w.simCells, w.simOps = 1<<12, 100
	return w
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := run(io.Discard, w, t.TempDir(), 3, refSeconds*time.Second, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				defs := endToEndDefs
				if traced {
					defs = perLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(defs) {
					t.Fatalf("traced=%v: result %+v", traced, res)
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Fatalf("traced=%v: metric %s missing or mis-united: %+v", traced, d.name, m)
					}
					if !traced && m.Value <= 0 {
						t.Fatalf("end-to-end metric %s = %g, want > 0", d.name, m.Value)
					}
				}
			}
		})
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metric tables
// here in step.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var f struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Fatalf("workload %d: %+v, want %s with a why", i, w, workloads[i].name)
		}
	}
	match := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, d := range got {
			w := want[i]
			if d.Name != w.name || d.Unit != w.unit || d.Better != w.better {
				t.Fatalf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, d, w)
			}
		}
	}
	match("end_to_end", f.EndToEnd, endToEndDefs)
	match("per_layer", f.PerLayer, perLayer)
	for _, d := range f.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Fatalf("end-to-end %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
