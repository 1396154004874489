package engine

// The engine conformance suite: one set of table-driven contract tests
// run identically against all five engines (plus the -L undo-WAL
// variants). The suite asserts the FAÇADE contract — zero-key
// rejection under the 8-byte layout, Put-upserts-Insert-duplicates,
// delete-absent leaves the count alone, a NaN-free load_factor gauge,
// snapshot round-trips, idempotent recovery. When a scheme disagrees, the
// scheme gets fixed, never the suite.

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"grouphash/internal/core"
	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
	"grouphash/internal/stats"
)

// conformanceSpecs lists every engine build the suite runs against.
func conformanceSpecs() []Spec {
	return []Spec{
		{Name: "grouphash", Capacity: 1 << 10},
		{Name: "pfht", Capacity: 1 << 10},
		{Name: "pfht", Capacity: 1 << 10, Logged: true},
		{Name: "pathhash", Capacity: 1 << 10},
		{Name: "pathhash", Capacity: 1 << 10, Logged: true},
		{Name: "chained", Capacity: 1 << 10},
		{Name: "linearprobe", Capacity: 1 << 10},
		{Name: "linearprobe", Capacity: 1 << 10, Logged: true},
	}
}

func specLabel(spec Spec) string {
	if spec.Logged {
		return spec.Name + "-l"
	}
	return spec.Name
}

// forEachEngine runs fn as a subtest per conformance spec.
func forEachEngine(t *testing.T, fn func(t *testing.T, spec Spec, e Engine)) {
	t.Helper()
	for _, spec := range conformanceSpecs() {
		spec := spec
		t.Run(specLabel(spec), func(t *testing.T) {
			e, err := New(spec)
			if err != nil {
				t.Fatalf("New(%+v): %v", spec, err)
			}
			fn(t, spec, e)
		})
	}
}

func key(i uint64) layout.Key {
	return layout.Key{Lo: i, Hi: i * 0x9e3779b97f4a7c15}
}

// requireClean fails the test if the engine's own audit finds
// violations — every conformance scenario ends with it, so any
// count/bitmap/placement damage a contract test causes is caught even
// when the observable return values look right.
func requireClean(t *testing.T, e Engine) {
	t.Helper()
	if bad := e.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("CheckConsistency: %v", bad)
	}
}

// The seam mutates only through ApplyBatch; put, insert and del are
// one-op batches of each kind.
func apply(e Engine, kind core.BatchKind, k layout.Key, v uint64) core.BatchResult {
	out := make([]core.BatchResult, 1)
	e.ApplyBatch([]core.BatchOp{{Kind: kind, Key: k, Value: v}}, out, nil, nil)
	return out[0]
}

func put(e Engine, k layout.Key, v uint64) error    { return apply(e, core.BatchPut, k, v).Err }
func insert(e Engine, k layout.Key, v uint64) error { return apply(e, core.BatchInsert, k, v).Err }
func del(e Engine, k layout.Key) bool               { return apply(e, core.BatchDelete, k, 0).Found }

// snapshot saves e's image to path with oplog mark 0.
func snapshot(e Engine, path string) error {
	write, err := e.SnapshotWriterAt(func() (uint64, error) { return 0, nil })
	if err != nil {
		return err
	}
	return write(path)
}

func TestConformanceNames(t *testing.T) {
	forEachEngine(t, func(t *testing.T, spec Spec, e Engine) {
		if e.Name() != spec.Name {
			t.Fatalf("Name() = %q, want %q", e.Name(), spec.Name)
		}
	})
}

func TestConformanceZeroKeyRejected(t *testing.T) {
	forEachEngine(t, func(t *testing.T, spec Spec, e Engine) {
		zero := layout.Key{}
		if err := insert(e, zero, 7); !errors.Is(err, hashtab.ErrInvalidKey) {
			t.Errorf("Insert(zero) = %v, want ErrInvalidKey", err)
		}
		if err := put(e, zero, 7); !errors.Is(err, hashtab.ErrInvalidKey) {
			t.Errorf("Put(zero) = %v, want ErrInvalidKey", err)
		}
		// Delete answers the zero key like the other kinds, so the wire
		// reports StatusInvalidKey on every engine, not StatusNotFound.
		delZero := func(when string) {
			t.Helper()
			if r := apply(e, core.BatchDelete, zero, 0); !errors.Is(r.Err, hashtab.ErrInvalidKey) || r.Found {
				t.Errorf("Delete(zero) %s = (found %v, %v), want ErrInvalidKey", when, r.Found, r.Err)
			}
		}
		if _, ok := e.Get(zero); ok {
			t.Error("Get(zero) found an item in an empty table")
		}
		delZero("in an empty table")
		if e.Len() != 0 {
			t.Errorf("Len = %d after rejected zero-key ops, want 0", e.Len())
		}
		// The zero key must stay invisible even when the table has
		// items: an empty cell's key word is 0, so an accepted zero
		// key would false-positive against empty cells.
		for i := uint64(1); i <= 64; i++ {
			if err := put(e, key(i), i); err != nil {
				t.Fatalf("Put(%d): %v", i, err)
			}
		}
		if _, ok := e.Get(zero); ok {
			t.Error("Get(zero) false-positived against a populated table")
		}
		delZero("against a populated table")
		if e.Len() != 64 {
			t.Errorf("Len = %d, want 64", e.Len())
		}
		requireClean(t, e)
	})
}

func TestConformancePutUpserts(t *testing.T) {
	forEachEngine(t, func(t *testing.T, spec Spec, e Engine) {
		k := key(1)
		if err := put(e, k, 100); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if v, ok := e.Get(k); !ok || v != 100 {
			t.Fatalf("Get = (%d, %t), want (100, true)", v, ok)
		}
		if err := put(e, k, 200); err != nil {
			t.Fatalf("Put (overwrite): %v", err)
		}
		if v, ok := e.Get(k); !ok || v != 200 {
			t.Fatalf("Get after overwrite = (%d, %t), want (200, true)", v, ok)
		}
		if e.Len() != 1 {
			t.Fatalf("Len = %d after upsert of one key, want 1", e.Len())
		}
		requireClean(t, e)
	})
}

func TestConformanceInsertAllowsDuplicates(t *testing.T) {
	forEachEngine(t, func(t *testing.T, spec Spec, e Engine) {
		// Algorithm-1 semantics: Insert does no existing-key check, so
		// a duplicate occupies a second cell and Delete removes one
		// instance at a time.
		k := key(2)
		if err := insert(e, k, 1); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if err := insert(e, k, 2); err != nil {
			t.Fatalf("Insert (duplicate): %v", err)
		}
		if e.Len() != 2 {
			t.Fatalf("Len = %d after duplicate Insert, want 2", e.Len())
		}
		if !del(e, k) {
			t.Fatal("Delete #1 = false, want true")
		}
		if e.Len() != 1 {
			t.Fatalf("Len = %d after first Delete, want 1", e.Len())
		}
		if !del(e, k) {
			t.Fatal("Delete #2 = false, want true")
		}
		if del(e, k) {
			t.Fatal("Delete #3 = true on an absent key")
		}
		if e.Len() != 0 {
			t.Fatalf("Len = %d, want 0", e.Len())
		}
		requireClean(t, e)
	})
}

func TestConformanceDeleteAbsentLeavesCount(t *testing.T) {
	forEachEngine(t, func(t *testing.T, spec Spec, e Engine) {
		for i := uint64(1); i <= 16; i++ {
			if err := insert(e, key(i), i); err != nil {
				t.Fatalf("Insert(%d): %v", i, err)
			}
		}
		if del(e, key(999)) {
			t.Error("Delete(absent) = true")
		}
		if e.Len() != 16 {
			t.Errorf("Len = %d after delete-absent, want 16 (count must not move)", e.Len())
		}
		requireClean(t, e)
	})
}

// TestConformanceMGet pins the reads behind a wire MGet. The seam has
// no MGet of its own: the server answers each key of an MGet frame with
// one Get, so a sweep over written and never-written keys of a
// populated table must report exactly the written ones.
func TestConformanceMGet(t *testing.T) {
	forEachEngine(t, func(t *testing.T, spec Spec, e Engine) {
		for i := uint64(1); i <= 32; i++ {
			if err := put(e, key(i), i*10); err != nil {
				t.Fatalf("put(%d): %v", i, err)
			}
		}
		for i := uint64(1); i <= 48; i++ { // 33..48 are absent
			v, ok := e.Get(key(i))
			if want := i <= 32; ok != want {
				t.Fatalf("Get(%d): found = %t, want %t", i, ok, want)
			}
			if ok && v != i*10 {
				t.Fatalf("Get(%d) = %d, want %d", i, v, i*10)
			}
		}
	})
}

func TestConformanceApplyBatch(t *testing.T) {
	forEachEngine(t, func(t *testing.T, spec Spec, e Engine) {
		if err := put(e, key(1), 1); err != nil {
			t.Fatal(err)
		}
		ops := []core.BatchOp{
			{Kind: core.BatchPut, Key: key(1), Value: 11},      // upsert existing → Found
			{Kind: core.BatchPut, Key: key(2), Value: 22},      // fresh put
			{Kind: core.BatchInsert, Key: key(3), Value: 33},   // insert
			{Kind: core.BatchDelete, Key: key(2)},              // delete just-written (same batch)
			{Kind: core.BatchDelete, Key: key(99)},             // delete absent → NOT applied
			{Kind: core.BatchPut, Key: layout.Key{}, Value: 1}, // zero key → error
		}
		out := make([]core.BatchResult, len(ops))
		var sc core.BatchScratch
		var applied []int
		e.ApplyBatch(ops, out, &sc, func(idx []int) {
			applied = append(applied, idx...)
		})

		if !out[0].Found || out[0].Err != nil {
			t.Errorf("op0 (upsert existing) = %+v, want Found", out[0])
		}
		if out[1].Found || out[1].Err != nil {
			t.Errorf("op1 (fresh put) = %+v, want !Found", out[1])
		}
		if out[2].Err != nil {
			t.Errorf("op2 (insert) err = %v", out[2].Err)
		}
		if !out[3].Found || out[3].Err != nil {
			t.Errorf("op3 (delete present) = %+v, want Found", out[3])
		}
		if out[4].Found || out[4].Err != nil {
			t.Errorf("op4 (delete absent) = %+v, want !Found no err", out[4])
		}
		if !errors.Is(out[5].Err, hashtab.ErrInvalidKey) {
			t.Errorf("op5 (zero key) err = %v, want ErrInvalidKey", out[5].Err)
		}

		// applied carries exactly the mutating ops: 0,1,2,3 — never the
		// absent delete (4) or the failed op (5), which must not reach
		// the oplog.
		got := map[int]bool{}
		for _, i := range applied {
			if got[i] {
				t.Fatalf("op %d reported applied twice", i)
			}
			got[i] = true
		}
		for _, i := range []int{0, 1, 2, 3} {
			if !got[i] {
				t.Errorf("op %d missing from applied set %v", i, applied)
			}
		}
		if got[4] || got[5] {
			t.Errorf("non-mutating op in applied set %v", applied)
		}

		if v, ok := e.Get(key(1)); !ok || v != 11 {
			t.Errorf("Get(1) = (%d, %t), want (11, true)", v, ok)
		}
		if _, ok := e.Get(key(2)); ok {
			t.Error("Get(2) found a key deleted in the same batch")
		}
		if e.Len() != 2 { // key 1 + key 3
			t.Errorf("Len = %d, want 2", e.Len())
		}
		requireClean(t, e)
	})
}

// TestConformanceHooks pins the property the oplog relies on from the
// commit hook, ApplyBatch's committed callback: it runs inside the
// engine's critical section, so the snapshot cut (taken under Quiesce)
// can never observe a mutation applied without its log append, or the
// reverse. A Quiesce started from inside committed must therefore
// wait: its fn may not run before committed returns, and must run once
// ApplyBatch has returned. (Which ops reach committed is
// TestConformanceApplyBatch's job.) The ops share one key, so they
// form a single stripe-run.
func TestConformanceHooks(t *testing.T) {
	forEachEngine(t, func(t *testing.T, spec Spec, e Engine) {
		ops := []core.BatchOp{
			{Kind: core.BatchPut, Key: key(1), Value: 1},
			{Kind: core.BatchPut, Key: key(1), Value: 2},
			{Kind: core.BatchDelete, Key: key(1)},
			{Kind: core.BatchInsert, Key: key(1), Value: 3},
		}
		out := make([]core.BatchResult, len(ops))
		ran := make(chan struct{})
		quiesced := make(chan struct{})
		calls := 0
		e.ApplyBatch(ops, out, nil, func(applied []int) {
			calls++
			if calls > 1 {
				return
			}
			go func() {
				defer close(quiesced)
				e.Quiesce(func() { close(ran) })
			}()
			// A correct engine holds the Quiesce off for this whole
			// window; fn running inside it means committed is not
			// in the critical section.
			select {
			case <-ran:
				t.Error("Quiesce ran fn while committed was still running")
			case <-time.After(50 * time.Millisecond):
			}
		})
		if calls == 0 {
			t.Fatal("committed never ran for a batch of mutations")
		}
		select {
		case <-quiesced:
		case <-time.After(10 * time.Second):
			t.Fatal("Quiesce started inside committed never completed after ApplyBatch returned")
		}
		if v, ok := e.Get(key(1)); !ok || v != 3 {
			t.Errorf("Get(1) = (%d, %t), want (3, true)", v, ok)
		}
		requireClean(t, e)
	})
}

// TestConformanceLoadFactorNeverNaN reads the gh_store_load_factor
// gauge from a scrape of an empty and of a loaded table: it must be
// Len/Capacity, never NaN, and an idle flagship must not report an
// expansion in flight.
func TestConformanceLoadFactorNeverNaN(t *testing.T) {
	forEachEngine(t, func(t *testing.T, spec Spec, e Engine) {
		r := stats.NewRegistry()
		e.RegisterMetrics(r, "gh")
		check := func(when string) {
			t.Helper()
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			fams, err := stats.ValidateExposition(&buf)
			if err != nil {
				t.Fatalf("scrape %s: %v", when, err)
			}
			lf, ok := fams["gh_store_load_factor"].Sample("")
			if !ok || math.IsNaN(lf) || math.IsInf(lf, 0) || lf < 0 {
				t.Fatalf("gh_store_load_factor %s = %v (present %v)", when, lf, ok)
			}
			if want := float64(e.Len()) / float64(e.Capacity()); lf != want {
				t.Fatalf("gh_store_load_factor %s = %v, want Len/Capacity = %v", when, lf, want)
			}
			if f := fams["gh_store_expanding"]; f != nil {
				if v, _ := f.Sample(""); v != 0 {
					t.Fatalf("gh_store_expanding %s = %v on an idle table", when, v)
				}
			}
		}
		if e.Capacity() == 0 {
			t.Fatal("Capacity = 0")
		}
		check("on an empty table")
		for i := uint64(1); i <= 64; i++ {
			if err := put(e, key(i), i); err != nil {
				t.Fatal(err)
			}
		}
		check("on a loaded table")
	})
}

func TestConformanceSnapshotRoundTrip(t *testing.T) {
	forEachEngine(t, func(t *testing.T, spec Spec, e Engine) {
		const n = 200
		for i := uint64(1); i <= n; i++ {
			if err := put(e, key(i), i*3); err != nil {
				t.Fatalf("Put(%d): %v", i, err)
			}
		}
		path := filepath.Join(t.TempDir(), "snap.img")

		// SnapshotWriterAt is the server's path: the cut fixes the
		// oplog mark inside the writer-exclusion window and the image
		// must carry it back out through Load.
		write, err := e.SnapshotWriterAt(func() (uint64, error) { return 42, nil })
		if err != nil {
			t.Fatalf("SnapshotWriterAt: %v", err)
		}
		if err := write(path); err != nil {
			t.Fatalf("write: %v", err)
		}

		re, mark, err := Load(spec, path)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if mark != 42 {
			t.Fatalf("mark = %d, want 42", mark)
		}
		if re.Len() != n {
			t.Fatalf("reloaded Len = %d, want %d", re.Len(), n)
		}
		for i := uint64(1); i <= n; i++ {
			if v, ok := re.Get(key(i)); !ok || v != i*3 {
				t.Fatalf("reloaded Get(%d) = (%d, %t), want (%d, true)", i, v, ok, i*3)
			}
		}
		// The reloaded engine must be fully live, not read-only.
		if err := put(re, key(n+1), 1); err != nil {
			t.Fatalf("Put on reloaded engine: %v", err)
		}
		if !del(re, key(1)) {
			t.Fatal("Delete on reloaded engine = false")
		}
		requireClean(t, re)
	})
}

// TestConformanceSnapshotSpecMismatch pins the adapter images' spec
// fingerprint: reopening with different geometry flags, or as the
// flagship, must fail loudly instead of silently misreading every cell
// or panicking. (The flagship's image is self-describing, so it is
// exempt.)
func TestConformanceSnapshotSpecMismatch(t *testing.T) {
	forEachEngine(t, func(t *testing.T, spec Spec, e Engine) {
		if spec.Name == "grouphash" {
			t.Skip("flagship images are self-describing")
		}
		if err := put(e, key(1), 1); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "snap.img")
		if err := snapshot(e, path); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		bad := spec
		bad.Capacity = spec.Capacity * 2
		if _, _, err := Load(bad, path); err == nil {
			t.Fatal("Load with mismatched capacity succeeded, want spec-fingerprint error")
		}
		other := spec
		other.Seed = spec.Seed + 1
		if _, _, err := Load(other, path); err == nil {
			t.Fatal("Load with mismatched seed succeeded, want spec-fingerprint error")
		}
		// The flagship reads a table header at the image root, where
		// this image keeps its spec fingerprint instead.
		if _, _, err := Load(Spec{Name: "grouphash"}, path); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("Load as grouphash = %v, want an error naming %s", err, path)
		}
	})
}

// TestConformanceRecoveryIdempotent runs the crash-recovery pass of
// the hashtab.Recoverable table behind every engine twice on a
// consistent table: the second pass must repair nothing. Recovery is
// not on the seam (Restart and Load run it on the concrete table), so
// the check reaches the table itself.
func TestConformanceRecoveryIdempotent(t *testing.T) {
	forEachEngine(t, func(t *testing.T, spec Spec, e Engine) {
		var r hashtab.Recoverable
		switch e := e.(type) {
		case *tableEngine:
			r = e.tab
		case hashtab.Recoverable:
			r = e
		default:
			t.Fatalf("%s has no hashtab.Recoverable table", specLabel(spec))
		}
		for i := uint64(1); i <= 100; i++ {
			if err := put(e, key(i), i); err != nil {
				t.Fatalf("Put(%d): %v", i, err)
			}
		}
		for i := uint64(1); i <= 50; i++ {
			if !del(e, key(i)) {
				t.Fatalf("Delete(%d) = false", i)
			}
		}
		want := e.Len()
		if _, err := r.Recover(); err != nil {
			t.Fatalf("Recover #1: %v", err)
		}
		rep, err := r.Recover()
		if err != nil {
			t.Fatalf("Recover #2: %v", err)
		}
		// Recovery of an already-consistent table must be a no-op: no
		// correction on the second pass, nothing undone, count intact.
		if rep.CountCorrected {
			t.Error("second Recover corrected the count on a consistent table")
		}
		if rep.UndoneOps != 0 {
			t.Errorf("second Recover undid %d ops on a quiesced table", rep.UndoneOps)
		}
		if e.Len() != want {
			t.Errorf("Len = %d after recovery, want %d", e.Len(), want)
		}
		for i := uint64(51); i <= 100; i++ {
			if v, ok := e.Get(key(i)); !ok || v != i {
				t.Fatalf("Get(%d) after recovery = (%d, %t), want (%d, true)", i, v, ok, i)
			}
		}
		requireClean(t, e)
	})
}

// TestConformanceFullTableDrain fills each engine to structural
// capacity (ErrTableFull) and then deletes every inserted key. This is
// the regression test for the linear-probing backward-shift walk,
// which spun forever on a 100% full table (no empty cell terminates
// the cluster scan), and generally pins that delete works at the
// occupancy extreme on every scheme.
func TestConformanceFullTableDrain(t *testing.T) {
	for _, spec := range conformanceSpecs() {
		spec := spec
		spec.Capacity = 64 // tiny: filling to ErrTableFull must be cheap
		t.Run(specLabel(spec), func(t *testing.T) {
			if spec.Name == "grouphash" {
				t.Skip("flagship expands instead of filling up")
			}
			e, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			var stored []layout.Key
			for i := uint64(1); ; i++ {
				k := key(i)
				err := insert(e, k, i)
				if errors.Is(err, hashtab.ErrTableFull) {
					break
				}
				if err != nil {
					t.Fatalf("Insert(%d): %v", i, err)
				}
				stored = append(stored, k)
				if uint64(len(stored)) > e.Capacity() {
					t.Fatalf("stored %d items into capacity %d without ErrTableFull", len(stored), e.Capacity())
				}
			}
			if e.Len() != uint64(len(stored)) {
				t.Fatalf("Len = %d, want %d", e.Len(), len(stored))
			}
			for i, k := range stored {
				if !del(e, k) {
					t.Fatalf("Delete #%d = false on a full-table drain", i)
				}
			}
			if e.Len() != 0 {
				t.Fatalf("Len = %d after drain, want 0", e.Len())
			}
			requireClean(t, e)
		})
	}
}

func TestConformanceMetricsRegistration(t *testing.T) {
	forEachEngine(t, func(t *testing.T, spec Spec, e Engine) {
		r := stats.NewRegistry()
		e.RegisterMetrics(r, "gh")
		if err := put(e, key(1), 1); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		text := buf.String()
		for _, name := range []string{"gh_store_items", "gh_store_capacity_cells", "gh_store_load_factor"} {
			if !strings.Contains(text, name) {
				t.Errorf("rendered metrics missing %s", name)
			}
		}
		if strings.Contains(text, "NaN") {
			t.Error("rendered metrics contain NaN")
		}
	})
}

func TestEngineSpecNormalization(t *testing.T) {
	if _, err := New(Spec{Name: "nosuch"}); err == nil {
		t.Error("New(nosuch) succeeded")
	}
	if _, err := New(Spec{Name: "grouphash", Logged: true}); err == nil {
		t.Error("New(grouphash, Logged) succeeded, want error")
	}
	if _, err := New(Spec{Name: "chained-l"}); err == nil {
		t.Error("New(chained-l) succeeded, want error")
	}
	e, err := New(Spec{Name: "Linearprobe-L", Capacity: 64})
	if err != nil {
		t.Fatalf("New(Linearprobe-L): %v", err)
	}
	if e.Name() != "linearprobe" {
		t.Errorf("Name = %q, want linearprobe", e.Name())
	}
	if e2, err := New(Spec{}); err != nil || e2.Name() != "grouphash" {
		t.Errorf("New(zero spec) = %v, %v; want flagship default", e2, err)
	}
}
