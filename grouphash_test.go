package grouphash

import (
	"errors"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"grouphash/internal/layout"
	"grouphash/internal/pmfs"
	"grouphash/internal/stats"
)

func TestStoreBasics(t *testing.T) {
	st, err := New(Options{Capacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(Key{Lo: 7}, 70); err != nil {
		t.Fatal(err)
	}
	if v, ok := st.Get(Key{Lo: 7}); !ok || v != 70 {
		t.Fatalf("Get = (%d, %v)", v, ok)
	}
	// Put is an upsert.
	if err := st.Put(Key{Lo: 7}, 71); err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Get(Key{Lo: 7}); v != 71 {
		t.Fatalf("value after upsert = %d", v)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d", st.Len())
	}
	if !st.Delete(Key{Lo: 7}) || st.Delete(Key{Lo: 7}) {
		t.Fatal("delete semantics")
	}
	if _, ok := st.Get(Key{Lo: 7}); ok {
		t.Fatal("deleted key visible")
	}
}

func TestStoreRejectsZeroKey(t *testing.T) {
	st, _ := New(Options{Capacity: 1 << 10})
	if err := st.Put(Key{Lo: 0}, 1); !errors.Is(err, ErrInvalidKey) {
		t.Fatalf("Put(zero key) = %v, want ErrInvalidKey", err)
	}
	st16, _ := New(Options{Capacity: 1 << 10, KeyBytes: 16})
	if err := st16.Put(Key{Lo: 0, Hi: 0}, 1); err != nil {
		t.Fatalf("16-byte layout must accept the zero key: %v", err)
	}
}

// TestApplyBatchZeroKeyBothModes pins one answer to a zero key across
// the sequential and concurrent stores: every kind, BatchDelete
// included, reports ErrInvalidKey, and none reaches the commit hook.
func TestApplyBatchZeroKeyBothModes(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		st, err := New(Options{Capacity: 1 << 10, Concurrent: concurrent})
		if err != nil {
			t.Fatal(err)
		}
		ops := []BatchOp{
			{Kind: BatchPut, Key: Key{}, Value: 1},
			{Kind: BatchInsert, Key: Key{}, Value: 2},
			{Kind: BatchDelete, Key: Key{}},
		}
		out := make([]BatchResult, len(ops))
		st.ApplyBatch(ops, out, nil, func(applied []int) {
			t.Errorf("concurrent=%v: ops %v reached the commit hook", concurrent, applied)
		})
		for i, r := range out {
			if !errors.Is(r.Err, ErrInvalidKey) || r.Found {
				t.Errorf("concurrent=%v: op %d (kind %d) = %+v, want ErrInvalidKey", concurrent, i, ops[i].Kind, r)
			}
		}
		if st.Len() != 0 {
			t.Errorf("concurrent=%v: Len = %d after a batch of invalid keys", concurrent, st.Len())
		}
	}
}

func TestStoreAutoExpands(t *testing.T) {
	st, err := New(Options{Capacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	before := st.Capacity()
	for i := uint64(1); i <= 2000; i++ {
		if err := st.Put(Key{Lo: i}, i); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if st.Capacity() <= before {
		t.Fatal("store did not expand")
	}
	for i := uint64(1); i <= 2000; i++ {
		if v, ok := st.Get(Key{Lo: i}); !ok || v != i {
			t.Fatalf("key %d after expansion: (%d, %v)", i, v, ok)
		}
	}
	if msgs := st.CheckConsistency(); len(msgs) != 0 {
		t.Fatalf("inconsistencies: %v", msgs)
	}
}

func TestStoreDisableExpand(t *testing.T) {
	st, _ := New(Options{Capacity: 64, DisableExpand: true})
	var sawFull bool
	for i := uint64(1); i <= 10000; i++ {
		if err := st.Put(Key{Lo: i}, i); err != nil {
			if !errors.Is(err, ErrTableFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("fixed-size store never filled")
	}
}

// TestSequentialInsertGrowsLikePut pins one insert path on a sequential
// store: Insert, Put of fresh keys and ApplyBatch(BatchInsert) grow a
// 64-item store to the same capacity and place every item, and with
// DisableExpand all three refuse the same items.
func TestSequentialInsertGrowsLikePut(t *testing.T) {
	const n = 10000
	ops := make([]BatchOp, n)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchInsert, Key: Key{Lo: uint64(i) + 1}, Value: uint64(i)}
	}
	paths := []struct {
		name string
		run  func(st *Store) []BatchResult
	}{
		{"Put", func(st *Store) []BatchResult {
			out := make([]BatchResult, n)
			for i, op := range ops {
				out[i].Err = st.Put(op.Key, op.Value)
			}
			return out
		}},
		{"Insert", func(st *Store) []BatchResult {
			out := make([]BatchResult, n)
			for i, op := range ops {
				out[i].Err = st.Insert(op.Key, op.Value)
			}
			return out
		}},
		{"ApplyBatch", func(st *Store) []BatchResult {
			out := make([]BatchResult, n)
			st.ApplyBatch(ops, out, nil, nil)
			return out
		}},
	}
	for _, disable := range []bool{false, true} {
		var want *Store
		var wantOut []BatchResult
		for _, p := range paths {
			st, err := New(Options{Capacity: 64, DisableExpand: disable})
			if err != nil {
				t.Fatal(err)
			}
			out := p.run(st)
			refused := 0
			for i := range out {
				if err := out[i].Err; err != nil && !errors.Is(err, ErrTableFull) {
					t.Fatalf("%s (DisableExpand=%v) item %d: %v", p.name, disable, i+1, err)
				} else if err != nil {
					refused++
				}
			}
			if !disable && (refused != 0 || st.Len() != n) {
				t.Fatalf("%s refused %d of %d items and holds %d on a growing store", p.name, refused, n, st.Len())
			}
			if disable && refused == 0 {
				t.Fatalf("%s never refused an item with DisableExpand", p.name)
			}
			if msgs := st.CheckConsistency(); len(msgs) != 0 {
				t.Fatalf("%s: inconsistent: %v", p.name, msgs)
			}
			if want == nil {
				want, wantOut = st, out
				continue
			}
			if st.Capacity() != want.Capacity() || st.Len() != want.Len() {
				t.Fatalf("%s (DisableExpand=%v): %d items in %d cells, Put left %d in %d",
					p.name, disable, st.Len(), st.Capacity(), want.Len(), want.Capacity())
			}
			for i := range out {
				if (out[i].Err == nil) != (wantOut[i].Err == nil) {
					t.Fatalf("%s (DisableExpand=%v) item %d: error %v, Put's %v", p.name, disable, i+1, out[i].Err, wantOut[i].Err)
				}
			}
		}
	}
}

// TestConcurrentPerOpAllocs guards the per-op entry points of a
// concurrent store: Put, Insert and Delete each run one stripe-run of
// the table's batch critical section and allocate nothing.
func TestConcurrentPerOpAllocs(t *testing.T) {
	st, err := New(Options{Capacity: 1 << 12, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Lo: 42}
	for _, op := range []struct {
		name string
		run  func()
	}{
		{"Put", func() { st.Put(k, 1) }},
		{"Insert", func() { st.Insert(k, 2) }},
		{"Delete", func() { st.Delete(k) }},
	} {
		if n := testing.AllocsPerRun(100, op.run); n != 0 {
			t.Errorf("%s allocates %.1f times per op, want 0", op.name, n)
		}
	}
}

func TestStoreInsertAllowsDuplicates(t *testing.T) {
	st, _ := New(Options{Capacity: 1 << 10})
	st.Insert(Key{Lo: 5}, 1)
	st.Insert(Key{Lo: 5}, 2)
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (paper semantics)", st.Len())
	}
}

func TestStoreRange(t *testing.T) {
	st, _ := New(Options{Capacity: 1 << 10})
	for i := uint64(1); i <= 50; i++ {
		st.Put(Key{Lo: i}, i*2)
	}
	sum := uint64(0)
	st.Range(func(k Key, v uint64) bool {
		sum += v
		return true
	})
	if sum != 50*51 {
		t.Fatalf("sum over Range = %d", sum)
	}
}

func TestStoreString(t *testing.T) {
	st, _ := New(Options{Capacity: 1 << 10})
	if !strings.Contains(st.String(), "grouphash.Store") {
		t.Fatalf("String = %q", st.String())
	}
}

func TestConcurrentStore(t *testing.T) {
	st, err := New(Options{Capacity: 1 << 14, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w*1000 + 1)
			for i := uint64(0); i < 1000; i++ {
				if err := st.Put(Key{Lo: base + i}, base+i); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if st.Len() != 8000 {
		t.Fatalf("Len = %d", st.Len())
	}
	if v, ok := st.Get(Key{Lo: 4321}); !ok || v != 4321 {
		t.Fatalf("Get = (%d, %v)", v, ok)
	}
}

func TestSimulatedCrashRecovery(t *testing.T) {
	sim, err := NewSimulated(Options{Capacity: 1 << 12, DisableExpand: true}, SimOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 1000; i++ {
		if err := sim.Insert(Key{Lo: i}, i); err != nil {
			t.Fatal(err)
		}
	}
	out := sim.Crash(0.5)
	if out.DirtyWords < 0 {
		t.Fatal("impossible")
	}
	if _, err := sim.Recover(); err != nil {
		t.Fatal(err)
	}
	if msgs := sim.CheckConsistency(); len(msgs) != 0 {
		t.Fatalf("inconsistencies after crash+recover: %v", msgs)
	}
	// Every insert returned before the crash, so every item committed.
	for i := uint64(1); i <= 1000; i++ {
		if v, ok := sim.Get(Key{Lo: i}); !ok || v != i {
			t.Fatalf("committed key %d lost: (%d, %v)", i, v, ok)
		}
	}
}

func TestSimulatedCountersAdvance(t *testing.T) {
	sim, err := NewSimulated(Options{Capacity: 1 << 12}, SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c0 := sim.Counters()
	sim.Put(Key{Lo: 9}, 9)
	d := sim.Counters().Sub(c0)
	if d.Flushes == 0 || d.Fences == 0 || d.ClockNs <= 0 {
		t.Fatalf("insert produced no persistence traffic: %+v", d)
	}
	if sim.ClockNs() <= 0 {
		t.Fatal("clock did not advance")
	}
	if sim.L3Geometry() != 15<<20 {
		t.Fatalf("L3 = %d, want the paper's 15 MB", sim.L3Geometry())
	}
}

func TestSimulatedWriteLatencyKnob(t *testing.T) {
	run := func(extra float64) float64 {
		sim, err := NewSimulated(Options{Capacity: 1 << 10}, SimOptions{Seed: 1, WriteLatencyNs: extra})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= 500; i++ {
			sim.Insert(Key{Lo: i}, i)
		}
		return sim.ClockNs()
	}
	slow := run(1000)
	fast := run(1)
	if slow <= fast {
		t.Fatalf("write latency knob has no effect: %v <= %v", slow, fast)
	}
}

func TestOpenAfterCleanShutdown(t *testing.T) {
	sim, err := NewSimulated(Options{Capacity: 1 << 10, DisableExpand: true}, SimOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		sim.Put(Key{Lo: i}, i*3)
	}
	hdr := sim.Header()
	sim.CleanShutdown()

	st, err := Open(sim.mem, hdr, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 100 {
		t.Fatalf("reopened Len = %d", st.Len())
	}
	for i := uint64(1); i <= 100; i++ {
		if v, ok := st.Get(Key{Lo: i}); !ok || v != i*3 {
			t.Fatalf("reopened key %d = (%d, %v)", i, v, ok)
		}
	}
}

// Property: a Store agrees with a map oracle under random upserts,
// lookups and deletes.
func TestQuickStoreMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		st, err := New(Options{Capacity: 512})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		oracle := make(map[uint64]uint64)
		for op := 0; op < 3000; op++ {
			key := uint64(rng.Intn(600)) + 1
			switch rng.Intn(4) {
			case 0, 1:
				v := rng.Uint64()
				if st.Put(Key{Lo: key}, v) == nil {
					oracle[key] = v
				}
			case 2:
				v, ok := st.Get(Key{Lo: key})
				ov, ook := oracle[key]
				if ok != ook || (ok && v != ov) {
					return false
				}
			case 3:
				if st.Delete(Key{Lo: key}) != (func() bool { _, ok := oracle[key]; return ok })() {
					return false
				}
				delete(oracle, key)
			}
		}
		return st.Len() == uint64(len(oracle))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSimScheduledCrashAndImage(t *testing.T) {
	dir := t.TempDir()
	img := dir + "/store.img"

	sim, err := NewSimulated(Options{Capacity: 1 << 10, DisableExpand: true}, SimOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 200; i++ {
		sim.Insert(Key{Lo: i}, i)
	}
	// A scheduled crash that cuts the next insert mid-flight.
	sim.ScheduleCrash(sim.Counters().Accesses+2, 0.5)
	sim.Insert(Key{Lo: 9999}, 1)
	if !sim.CompleteCrash() {
		t.Fatal("crash trigger did not fire")
	}
	if _, err := sim.Recover(); err != nil {
		t.Fatal(err)
	}
	if msgs := sim.CheckConsistency(); len(msgs) != 0 {
		t.Fatalf("inconsistent: %v", msgs)
	}

	// Save and reload via the PMFS-image path.
	if err := sim.Snapshot(img); err != nil {
		t.Fatal(err)
	}
	re, err := LoadImage(img, SimOptions{Seed: 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != sim.Len() {
		t.Fatalf("reloaded Len = %d, want %d", re.Len(), sim.Len())
	}
	for i := uint64(1); i <= 200; i++ {
		if v, ok := re.Get(Key{Lo: i}); !ok || v != i {
			t.Fatalf("reloaded key %d = (%d, %v)", i, v, ok)
		}
	}
	if _, err := LoadImage(dir+"/missing.img", SimOptions{}, false); err == nil {
		t.Fatal("loading a missing image must fail")
	}
	if re.LoadFactor() <= 0 {
		t.Fatal("load factor")
	}
}

func TestStoreInsertDeleteConcurrentPaths(t *testing.T) {
	st, _ := New(Options{Capacity: 1 << 12, Concurrent: true})
	if err := st.Insert(Key{Lo: 3}, 1); err != nil {
		t.Fatal(err)
	}
	if !st.Delete(Key{Lo: 3}) {
		t.Fatal("concurrent delete path")
	}
	if st.Delete(Key{Lo: 3}) {
		t.Fatal("double delete")
	}
}

// TestSnapshotRoundtrip covers the façade snapshot hooks end to end:
// a concurrent native store is snapshotted while writer goroutines are
// live, and the image reopens with every pre-snapshot write present.
func TestSnapshotRoundtrip(t *testing.T) {
	t.Run("churn", testSnapshotUnderChurn)
	t.Run("grown", testSnapshotGrown)
}

func testSnapshotUnderChurn(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/store.pmfs"
	st, err := New(Options{Capacity: 1 << 12, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Concurrent() {
		t.Fatal("Concurrent() = false on a concurrent store")
	}
	for i := uint64(1); i <= 1000; i++ {
		if err := st.Put(Key{Lo: i}, i*3); err != nil {
			t.Fatal(err)
		}
	}
	// Background churn on a disjoint key range while the snapshot runs:
	// the quiesce hook must still cut a consistent image.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(5000); ; i++ {
			select {
			case <-stop:
				return
			default:
				st.Put(Key{Lo: i%1000 + 5000}, i)
			}
		}
	}()
	if err := st.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done

	re, err := LoadSnapshot(path, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 1000; i++ {
		if v, ok := re.Get(Key{Lo: i}); !ok || v != i*3 {
			t.Fatalf("key %d = (%d, %v) after reload", i, v, ok)
		}
	}
	if bad := re.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("reloaded store inconsistent: %v", bad)
	}
	// The reloaded store must be fully writable.
	if err := re.Put(Key{Lo: 2_000_000}, 1); err != nil {
		t.Fatal(err)
	}
}

// testSnapshotGrown snapshots a store grown from 2^10 to 2^18 items by
// online expansion, whose retired generations were freed: the image
// leaves their pages out, and the reload frees them again, so it holds
// the same contents and the same memory.
func testSnapshotGrown(t *testing.T) {
	path := t.TempDir() + "/grown.pmfs"
	st, err := New(Options{Capacity: 1 << 10, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 18
	fill(t, st, n)
	if st.Expansions() < 6 {
		t.Fatalf("%d expansions, want the store grown several times", st.Expansions())
	}
	if err := st.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	re, err := LoadSnapshot(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != n {
		t.Fatalf("reloaded Len = %d, want %d", re.Len(), n)
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := re.Get(Key{Lo: i}); !ok || v != i {
			t.Fatalf("key %d = (%d, %v) after reload", i, v, ok)
		}
	}
	if bad := re.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("reloaded store inconsistent: %v", bad)
	}
	held, reheld := allocatedGauge(t, st), allocatedGauge(t, re)
	if held != reheld {
		t.Fatalf("gauge %d after reload, %d before", reheld, held)
	}
	img, err := pmfs.LoadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	overhead := pmfs.HeaderBytes + pmfs.ExtentBytes*uint64(len(img.Freed)) + pmfs.CRCBytes
	if size := uint64(fi.Size()); size > held+overhead {
		t.Fatalf("image is %d bytes, more than the %d held plus %d of header, extents and checksum", size, held, overhead)
	}
}

// fill inserts keys 1..n (value = key) in 4096-op batches.
func fill(t *testing.T, st *Store, n uint64) {
	t.Helper()
	ops := make([]BatchOp, 0, 4096)
	out := make([]BatchResult, cap(ops))
	for i := uint64(1); i <= n; i++ {
		ops = append(ops, BatchOp{Kind: BatchInsert, Key: Key{Lo: i}, Value: i})
		if len(ops) == cap(ops) || i == n {
			st.ApplyBatch(ops, out[:len(ops)], nil, nil)
			for j := range ops {
				if err := out[j].Err; err != nil {
					t.Fatal(err)
				}
			}
			ops = ops[:0]
		}
	}
	st.Quiesce(func() {}) // settle any expansion still migrating
}

// allocatedGauge scrapes the store's gh_mem_allocated_bytes gauge.
func allocatedGauge(t *testing.T, st *Store) uint64 {
	t.Helper()
	r := stats.NewRegistry()
	st.RegisterSubstrateMetrics(r, "gh")
	var text strings.Builder
	if err := r.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	fams, err := stats.ValidateExposition(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := fams["gh_mem_allocated_bytes"].Sample("")
	if !ok {
		t.Fatal("gh_mem_allocated_bytes missing")
	}
	return uint64(v)
}

// TestGrownStoreHoldsLiveArrays pins where a grown store's memory
// goes: after online expansion from 2^10 to 2^20 items, the retired
// generations are freed, so both the allocated-bytes gauge and the Go
// heap stay within 1.25x of the live cell arrays. Keeping every
// generation would hold about twice that.
func TestGrownStoreHoldsLiveArrays(t *testing.T) {
	st, err := New(Options{Capacity: 1 << 10, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, st, 1<<20)
	live := st.Capacity() * layout.ForKeySize(8).CellSize()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge := allocatedGauge(t, st)
	t.Logf("live arrays %d MiB, gauge %d MiB, heap %d MiB", live>>20, gauge>>20, ms.HeapAlloc>>20)
	for name, got := range map[string]uint64{"gauge": gauge, "HeapAlloc": ms.HeapAlloc} {
		if float64(got) > 1.25*float64(live) {
			t.Errorf("%s = %d bytes, more than 1.25x the %d bytes of live arrays", name, got, live)
		}
	}
	runtime.KeepAlive(st)
}
