package grouphash

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

// TestConcurrentPropertyOracle drives a randomised operation stream
// against the concurrent store from several workers — each on a
// disjoint key range with its own map oracle — while a chaos goroutine
// quiesces and reads, and checks the store against the oracles at
// every step. Between phases the store is snapshotted, reloaded, and
// fully re-verified, so the property covers the persistence path too:
//
//   - Get/Put/Insert/Delete agree with a per-key last-writer oracle;
//   - so do the batch entry points: each worker interleaves ApplyBatch
//     bursts (mixed puts/inserts/deletes, per-op outcomes checked
//     against the oracle) and Get sweeps with its single-op stream,
//     so stripe-grouped apply races single ops, seqlock reads, the
//     chaos quiescer, and forced mid-batch online expansions;
//   - Len equals the union of the oracles after every phase;
//   - a Snapshot → LoadSnapshotMark round trip preserves exactly the
//     oracle contents (no losses, no resurrections, no extras);
//   - CheckConsistency stays clean after every phase and after every
//     reload — which audits the DRAM fingerprint sidecar cell by cell,
//     so the filter is proven coherent through concurrent churn, forced
//     online expansions, snapshot reload and crash recovery;
//   - a Recover pass on the reloaded store (what a post-crash restart
//     runs) repairs nothing and leaves the store fully verifiable;
//   - all of the above holds while online expansions fire mid-stream
//     (the store starts at a tiny capacity) and under -race.
func TestConcurrentPropertyOracle(t *testing.T) {
	const (
		workers = 4
		phases  = 3
		opsPer  = 1200 // ops per worker per phase ⇒ 14 400 total ≥ 10k
		span    = 1500 // distinct keys per worker: forces expansions at 1<<10
	)
	st, err := New(Options{Capacity: 1 << 10, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	// Worker w owns keys {(w+1)<<32 + n : n < span}; Hi is a fixed
	// function of Lo so the oracle can key on Lo alone.
	key := func(w int, n uint64) Key {
		lo := uint64(w+1)<<32 | n
		return Key{Lo: lo, Hi: lo * 0x9e3779b97f4a7c15}
	}
	oracles := make([]map[uint64]uint64, workers)
	for w := range oracles {
		oracles[w] = make(map[uint64]uint64)
	}

	verify := func(s *Store, phase int) {
		t.Helper()
		var total uint64
		for w, oracle := range oracles {
			total += uint64(len(oracle))
			for n := uint64(0); n < span; n++ {
				k := key(w, n)
				want, present := oracle[k.Lo]
				got, ok := s.Get(k)
				if ok != present || (present && got != want) {
					t.Fatalf("phase %d: Get(w=%d n=%d) = (%d, %v), oracle (%d, %v)",
						phase, w, n, got, ok, want, present)
				}
			}
		}
		if got := s.Len(); got != total {
			t.Fatalf("phase %d: Len = %d, oracles hold %d", phase, got, total)
		}
		// No extra keys beyond the oracles.
		seen := uint64(0)
		s.Range(func(k Key, v uint64) bool {
			seen++
			w := int(k.Lo>>32) - 1
			if w < 0 || w >= workers {
				t.Errorf("phase %d: alien key %x in store", phase, k.Lo)
				return false
			}
			if want, ok := oracles[w][k.Lo]; !ok || want != v {
				t.Errorf("phase %d: store holds (%x, %d), oracle says (%d, %v)",
					phase, k.Lo, v, want, ok)
				return false
			}
			return true
		})
		if seen != total {
			t.Fatalf("phase %d: Range saw %d items, want %d", phase, seen, total)
		}
		// Full invariant audit, including the fingerprint-sidecar-vs-cell
		// check. CheckConsistency needs the table at rest, and Quiesce
		// waits out any still-running online expansion first.
		s.Quiesce(func() {
			if bad := s.CheckConsistency(); len(bad) != 0 {
				t.Fatalf("phase %d: inconsistencies: %v", phase, bad)
			}
		})
	}

	dir := t.TempDir()
	var totalExpansions uint64
	for phase := 0; phase < phases; phase++ {
		stop := make(chan struct{})
		var chaos sync.WaitGroup
		chaos.Add(1)
		go func() {
			// Chaos: quiesce all writers and poke the read-only surface
			// concurrently with the op stream.
			defer chaos.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st.Quiesce(func() {})
				_ = st.Len()
				_ = st.LoadFactor()
				_, _ = st.ExpansionProgress()
			}
		}()

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(phase*workers + w + 1)))
				oracle := oracles[w]
				var sc BatchScratch
				for i := 0; i < opsPer; i++ {
					n := rng.Uint64() % span
					k := key(w, n)
					switch op := rng.Intn(12); {
					case op < 4: // Put (upsert)
						v := rng.Uint64() >> 1
						if err := st.Put(k, v); err != nil {
							t.Errorf("Put: %v", err)
							return
						}
						oracle[k.Lo] = v
					case op < 6: // Insert where absent, else skip
						if _, dup := oracle[k.Lo]; dup {
							continue
						}
						v := rng.Uint64() >> 1
						if err := st.Insert(k, v); err != nil {
							t.Errorf("Insert: %v", err)
							return
						}
						oracle[k.Lo] = v
					case op < 8: // Delete
						want := false
						if _, ok := oracle[k.Lo]; ok {
							want = true
						}
						if got := st.Delete(k); got != want {
							t.Errorf("Delete(w=%d n=%d) = %v, oracle %v", w, n, got, want)
							return
						}
						delete(oracle, k.Lo)
					case op < 9: // Get
						want, present := oracle[k.Lo]
						got, ok := st.Get(k)
						if ok != present || (present && got != want) {
							t.Errorf("Get(w=%d n=%d) = (%d, %v), oracle (%d, %v)",
								w, n, got, ok, want, present)
							return
						}
					case op < 11: // ApplyBatch burst of mixed mutations
						bn := 1 + rng.Intn(16)
						ops := make([]BatchOp, 0, bn)
						expectFound := make([]bool, 0, bn)
						for j := 0; j < bn; j++ {
							bk := key(w, rng.Uint64()%span)
							_, present := oracle[bk.Lo]
							switch {
							case rng.Intn(3) == 0: // delete
								ops = append(ops, BatchOp{Kind: BatchDelete, Key: bk})
								expectFound = append(expectFound, present)
								delete(oracle, bk.Lo)
							case present: // upsert an existing key in place
								v := rng.Uint64() >> 1
								ops = append(ops, BatchOp{Kind: BatchPut, Key: bk, Value: v})
								expectFound = append(expectFound, true)
								oracle[bk.Lo] = v
							default: // fresh insert
								v := rng.Uint64() >> 1
								ops = append(ops, BatchOp{Kind: BatchInsert, Key: bk, Value: v})
								expectFound = append(expectFound, false)
								oracle[bk.Lo] = v
							}
						}
						out := make([]BatchResult, len(ops))
						st.ApplyBatch(ops, out, &sc, nil)
						for j := range out {
							if out[j].Err != nil {
								t.Errorf("ApplyBatch(w=%d) op %d: %v", w, j, out[j].Err)
								return
							}
							if out[j].Found != expectFound[j] {
								t.Errorf("ApplyBatch(w=%d) op %d Found = %v, oracle %v",
									w, j, out[j].Found, expectFound[j])
								return
							}
						}
					default: // Get sweep over a random window
						for j := 0; j < 8; j++ {
							k := key(w, rng.Uint64()%span)
							v, found := st.Get(k)
							want, present := oracle[k.Lo]
							if found != present || (present && v != want) {
								t.Errorf("Get sweep(w=%d)[%d] = (%d, %v), oracle (%d, %v)",
									w, j, v, found, want, present)
								return
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		chaos.Wait()
		if t.Failed() {
			return // a worker already reported the violation
		}

		verify(st, phase)

		// Persistence leg: snapshot, reload, verify the clone, continue
		// the next phase on the reloaded store.
		path := filepath.Join(dir, "phase.img")
		if err := st.Snapshot(path); err != nil {
			t.Fatalf("phase %d: Snapshot: %v", phase, err)
		}
		reloaded, mark, err := LoadSnapshotMark(path)
		if err != nil {
			t.Fatalf("phase %d: LoadSnapshotMark: %v", phase, err)
		}
		if mark != 0 {
			t.Fatalf("phase %d: snapshot mark = %d, wrote 0", phase, mark)
		}
		verify(reloaded, phase)

		// Crash-recovery leg: a reloaded image is byte-for-byte what a
		// post-crash restart opens, and restarts always run Recover. The
		// scan must repair nothing (the image was written quiesced),
		// must keep the fingerprint sidecar it just rebuilt coherent
		// (verify re-runs CheckConsistency), and the store must stay
		// fully serviceable for the next phase.
		rep, err := reloaded.Recover()
		if err != nil {
			t.Fatalf("phase %d: Recover: %v", phase, err)
		}
		if rep.CellsCleared != 0 || rep.CountCorrected {
			t.Fatalf("phase %d: Recover repaired a clean image: %+v", phase, rep)
		}
		verify(reloaded, phase)
		totalExpansions += st.Expansions()
		st = reloaded
	}
	if totalExpansions == 0 {
		t.Error("no online expansion fired: the property never saw the migration path")
	}
	if hits, skips := st.FingerprintStats(); hits == 0 || skips == 0 {
		t.Errorf("fingerprint filter never exercised: hits=%d skips=%d", hits, skips)
	}
}
