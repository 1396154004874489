package core

import (
	"errors"
	"testing"

	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
	"grouphash/internal/native"
	"grouphash/internal/pmfs"
)

func newBatchFixture(t *testing.T, cells, gsz uint64, stripes int) (*native.Memory, *Table, *Concurrent) {
	t.Helper()
	mem := native.New(1 << 20)
	tab, err := Create(mem, Options{Cells: cells, GroupSize: gsz, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return mem, tab, NewConcurrent(tab, stripes)
}

// TestApplyBatchBasic pins the stripe-grouped apply contract: per-op
// outcomes, same-key submission order within a stripe, one count
// persist per mutating stripe-run, and the commit hook seeing exactly
// the mutating ops in apply order.
func TestApplyBatchBasic(t *testing.T) {
	_, tab, c := newBatchFixture(t, 256, 16, 8)

	ops := []BatchOp{
		{Kind: BatchInsert, Key: layout.Key{Lo: 1}, Value: 10},
		{Kind: BatchPut, Key: layout.Key{Lo: 2}, Value: 20},
		{Kind: BatchPut, Key: layout.Key{Lo: 1}, Value: 11}, // same key as op 0: must update, not duplicate
		{Kind: BatchDelete, Key: layout.Key{Lo: 3}},         // absent: no-op
		{Kind: BatchInsert, Key: layout.Key{}, Value: 1},    // invalid zero key
		{Kind: BatchInsert, Key: layout.Key{Lo: 4}, Value: 40},
		{Kind: BatchDelete, Key: layout.Key{Lo: 4}}, // delete what op 5 inserted
	}
	out := make([]BatchResult, len(ops))
	var sc BatchScratch
	var hookCalls int
	applied := make(map[int]bool)
	persistsBefore := tab.CountPersists()
	c.ApplyBatch(ops, out, &sc, func(run []int) {
		hookCalls++
		for _, idx := range run {
			if applied[idx] {
				t.Errorf("op %d handed to the commit hook twice", idx)
			}
			applied[idx] = true
		}
	})

	if out[0].Err != nil || out[0].Found {
		t.Errorf("op 0 (fresh insert) = %+v", out[0])
	}
	if out[1].Err != nil || out[1].Found {
		t.Errorf("op 1 (fresh put) = %+v", out[1])
	}
	if out[2].Err != nil || !out[2].Found {
		t.Errorf("op 2 (same-key put) = %+v, want in-place update", out[2])
	}
	if out[3].Err != nil || out[3].Found {
		t.Errorf("op 3 (absent delete) = %+v", out[3])
	}
	if !errors.Is(out[4].Err, hashtab.ErrInvalidKey) {
		t.Errorf("op 4 (zero key) err = %v, want ErrInvalidKey", out[4].Err)
	}
	if out[5].Err != nil || !out[6].Found {
		t.Errorf("ops 5/6 (insert+delete) = %+v / %+v", out[5], out[6])
	}
	for _, want := range []int{0, 1, 2, 5, 6} {
		if !applied[want] {
			t.Errorf("mutating op %d never reached the commit hook", want)
		}
	}
	if applied[3] || applied[4] {
		t.Error("non-mutating op reached the commit hook")
	}

	if v, ok := c.Lookup(layout.Key{Lo: 1}); !ok || v != 11 {
		t.Errorf("key 1 = (%d, %v), want (11, true): same-key order violated", v, ok)
	}
	if got := c.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	// Count persists: at most one per stripe-run that changed the count
	// (5 mutating ops across ≤ 8 stripes), never one per op.
	persists := tab.CountPersists() - persistsBefore
	if persists == 0 || persists > uint64(hookCalls) {
		t.Errorf("count persists = %d over %d runs — amortisation broken", persists, hookCalls)
	}
}

// TestApplyBatchCheaperThanSingles prices the amortised count persist
// on the simulated machine, which charges every persist barrier: with
// one stripe, 1000 inserts in one batch form a single stripe-run and
// persist the count once, so they must cost at most 0.85× the same
// inserts applied one at a time (the saving is roughly the count
// persist, about a third of an insert).
func TestApplyBatchCheaperThanSingles(t *testing.T) {
	run := func(batch bool) float64 {
		mem := simMem(81)
		c := NewConcurrent(mustCreate(t, mem, Options{Cells: 4096, GroupSize: 64, Seed: 5}), 1)
		ops := make([]BatchOp, 1000)
		for i := range ops {
			ops[i] = BatchOp{Kind: BatchInsert, Key: layout.Key{Lo: uint64(i) + 1}, Value: 1}
		}
		out := make([]BatchResult, len(ops))
		t0 := mem.Clock()
		if batch {
			c.ApplyBatch(ops, out, nil, nil)
		} else {
			for i := range ops {
				out[i] = c.Apply(ops[i])
			}
		}
		cost := mem.Clock() - t0
		for i := range out {
			if out[i].Err != nil {
				t.Fatalf("batch=%v: op %d: %v", batch, i, out[i].Err)
			}
		}
		if got := c.Len(); got != uint64(len(ops)) {
			t.Fatalf("batch=%v: Len = %d, want %d", batch, got, len(ops))
		}
		return cost
	}
	single, batched := run(false), run(true)
	t.Logf("1000 inserts: %.0f sim-ns as singles, %.0f as one batch (%.2f×)", single, batched, batched/single)
	if batched > single*0.85 {
		t.Fatalf("batch costs %.0f sim-ns against %.0f for singles, want at most 0.85×", batched, single)
	}
}

// TestApplyBatchCrashMidRunRecovers crashes INSIDE a stripe-run, where
// TestApplyBatchCrashAtRunBoundaries only captures between runs: a
// shadow power failure lands among the run's cell commits, before its
// one count persist. The crash image holds a committed prefix of the
// run behind a stale count; Recover must leave a consistent table whose
// count equals its occupied cells, and those cells must be exactly that
// prefix.
func TestApplyBatchCrashMidRunRecovers(t *testing.T) {
	mem := simMem(82)
	tab := mustCreate(t, mem, Options{Cells: 512, GroupSize: 32, Seed: 5})
	c := NewConcurrent(tab, 1)
	const n = 200
	ops := make([]BatchOp, n)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchInsert, Key: layout.Key{Lo: uint64(i) + 1}, Value: uint64(i) + 1}
	}
	mem.ScheduleShadowCrash(mem.Counters().Accesses+500, 0.5)
	c.ApplyBatch(ops, make([]BatchResult, n), nil, nil)
	if !mem.AdoptShadowCrash() {
		t.Fatal("the crash point fell past the batch")
	}
	if got := tab.Len(); got != 0 {
		t.Fatalf("count %d in the crash image: the crash missed the run's cell commits", got)
	}
	if _, err := tab.Recover(); err != nil {
		t.Fatal(err)
	}
	if bad := tab.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("inconsistencies: %v", bad)
	}
	occupied := uint64(0)
	tab.Range(func(layout.Key, uint64) bool {
		occupied++
		return true
	})
	if tab.Len() != occupied {
		t.Fatalf("count %d != %d occupied cells", tab.Len(), occupied)
	}
	t.Logf("%d of %d inserts survived the crash", occupied, n)
	if occupied == 0 || occupied == n {
		t.Fatalf("%d of %d inserts survived: the crash did not land inside the run", occupied, n)
	}
	for i := uint64(1); i <= n; i++ {
		v, ok := tab.Lookup(layout.Key{Lo: i})
		if want := i <= occupied; ok != want || ok && v != i {
			t.Fatalf("key %d = (%d, %v) with %d cells recovered: not a committed prefix", i, v, ok, occupied)
		}
	}
}

// TestApplyBatchAllocs pins the zero-steady-state-allocation contract
// with a reused scratch (no expansion in flight).
func TestApplyBatchAllocs(t *testing.T) {
	_, _, c := newBatchFixture(t, 1<<12, 16, 8)
	const n = 64
	ops := make([]BatchOp, n)
	out := make([]BatchResult, n)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchPut, Key: layout.Key{Lo: uint64(i + 1)}, Value: uint64(i)}
	}
	var sc BatchScratch
	committed := func(run []int) {}
	c.ApplyBatch(ops, out, &sc, committed) // warm the scratch
	if n := testing.AllocsPerRun(50, func() {
		c.ApplyBatch(ops, out, &sc, committed)
	}); n != 0 {
		t.Errorf("steady-state ApplyBatch allocates %.1f times per batch, want 0", n)
	}
}

// TestApplyBatchExpansionMidBatch drives a batch far past the initial
// capacity so placement fails mid-run and the run must wait out an
// online expansion and resume — the awaitRoom retry loop, amortised.
func TestApplyBatchExpansionMidBatch(t *testing.T) {
	_, tab, c := newBatchFixture(t, 64, 8, 4)
	c.EnableOnlineExpand()

	const n = 300 // initial capacity is 128 cells: forces ≥ 1 doubling mid-batch
	ops := make([]BatchOp, n)
	out := make([]BatchResult, n)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchInsert, Key: layout.Key{Lo: uint64(i + 1)}, Value: uint64(i + 1)}
	}
	c.ApplyBatch(ops, out, nil, nil)
	c.WaitExpansion()
	for i := range out {
		if out[i].Err != nil {
			t.Fatalf("op %d failed despite online expansion: %v", i, out[i].Err)
		}
	}
	if c.Expansions() == 0 {
		t.Fatal("batch fit without expanding — the test lost its point")
	}
	if got := c.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := c.Lookup(layout.Key{Lo: i}); !ok || v != i {
			t.Fatalf("key %d = (%d, %v) after mid-batch expansion", i, v, ok)
		}
	}
	if bad := tab.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("inconsistencies: %v", bad)
	}
}

// TestApplyBatchCrashAtRunBoundaries is the batch crash-injection leg:
// capture the memory image at EVERY stripe-run boundary of a batch
// (the deterministic kill points), reopen each image as a restart
// would, run Recover, and verify the state is exactly the committed
// prefix of runs — every op of a committed run present exactly once,
// nothing from later runs, and the recomputed count agreeing — i.e.
// prefix-committed runs + stale count is a state recovery repairs.
func TestApplyBatchCrashAtRunBoundaries(t *testing.T) {
	mem, tab, c := newBatchFixture(t, 256, 16, 8)
	hdr := tab.Header()

	const n = 120
	ops := make([]BatchOp, n)
	out := make([]BatchResult, n)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchInsert, Key: layout.Key{Lo: uint64(i + 1)}, Value: uint64(i + 1)}
	}

	type capture struct {
		img   *pmfs.Image
		byRun [][]int // applied op indices of runs committed so far
	}
	var captures []capture
	var runs [][]int
	c.hookBatchRunCommitted = func(si int) {
		byRun := make([][]int, len(runs))
		copy(byRun, runs)
		captures = append(captures, capture{mem.Capture(), byRun})
	}
	c.ApplyBatch(ops, out, nil, func(applied []int) {
		runs = append(runs, append([]int(nil), applied...))
	})
	for i := range out {
		if out[i].Err != nil {
			t.Fatalf("op %d: %v", i, out[i].Err)
		}
	}
	if len(captures) < 2 {
		t.Fatalf("only %d stripe-runs — batch too small to exercise boundaries", len(captures))
	}

	for ci, cap := range captures {
		re := reopenImage(t, cap.img, hdr)
		committed := make(map[uint64]bool)
		for _, run := range cap.byRun {
			for _, idx := range run {
				committed[ops[idx].Key.Lo] = true
			}
		}
		for i := uint64(1); i <= n; i++ {
			v, ok := re.Lookup(layout.Key{Lo: i})
			if committed[i] && (!ok || v != i) {
				t.Fatalf("capture %d: committed key %d = (%d, %v)", ci, i, v, ok)
			}
			if !committed[i] && ok {
				t.Fatalf("capture %d: uncommitted key %d present after crash", ci, i)
			}
		}
		if got := re.Len(); got != uint64(len(committed)) {
			t.Fatalf("capture %d: recovered count %d, want %d", ci, got, len(committed))
		}
		// Exactly-once: count matches and every committed key resolves, so
		// a duplicate could only hide if Range disagreed with Lookup.
		seen := make(map[uint64]int)
		re.Range(func(k layout.Key, v uint64) bool {
			seen[k.Lo]++
			return true
		})
		for k, times := range seen {
			if times != 1 {
				t.Fatalf("capture %d: key %d present %d times", ci, k, times)
			}
		}
	}
}
