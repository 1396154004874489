package engine

import (
	"io"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"grouphash/internal/core"
	"grouphash/internal/layout"
	"grouphash/internal/stats"
)

// TestEngineConcurrentOracle is the flagship property test ported to
// the engine seam and pointed at the adapter-wrapped comparison
// schemes: several workers drive randomised single-op and batch
// streams (a single op is a one-op ApplyBatch) on disjoint key ranges, each against its own map oracle,
// while a chaos goroutine hammers the read-only surface (Len, a
// metrics scrape, Quiesce, CheckConsistency). The adapter serialises the
// schemes behind a mutex, so what this proves under -race is that the
// locking really covers every entry point — hooks, ApplyBatch's
// applied callback, SnapshotWriterAt's two-phase copy — and that the
// façade semantics (upsert Put, duplicate-tolerant Insert,
// non-decrementing absent Delete) hold under interleaving. Each phase
// ends with a full oracle sweep and a snapshot → Load round trip.
func TestEngineConcurrentOracle(t *testing.T) {
	for _, name := range []string{"pfht", "linearprobe-l", "chained"} {
		t.Run(name, func(t *testing.T) {
			const (
				workers = 4
				phases  = 2
				opsPer  = 1500
				span    = 600 // keys per worker; 2400 total in 4096 capacity
			)
			spec := Spec{Name: name, Capacity: 1 << 12}
			eng, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			key := func(w int, n uint64) layout.Key {
				lo := uint64(w+1)<<32 | n
				return layout.Key{Lo: lo, Hi: lo * 0x9e3779b97f4a7c15}
			}
			oracles := make([]map[uint64]uint64, workers)
			for w := range oracles {
				oracles[w] = make(map[uint64]uint64)
			}

			verify := func(e Engine, phase int) {
				t.Helper()
				var total uint64
				for w, oracle := range oracles {
					total += uint64(len(oracle))
					for n := uint64(0); n < span; n++ {
						k := key(w, n)
						want, present := oracle[k.Lo]
						got, ok := e.Get(k)
						if ok != present || (present && got != want) {
							t.Fatalf("phase %d: Get(w=%d n=%d) = (%d, %v), oracle (%d, %v)",
								phase, w, n, got, ok, want, present)
						}
					}
				}
				if got := e.Len(); got != total {
					t.Fatalf("phase %d: Len = %d, oracles hold %d", phase, got, total)
				}
				if bad := e.CheckConsistency(); len(bad) != 0 {
					t.Fatalf("phase %d: inconsistencies: %v", phase, bad)
				}
			}

			dir := t.TempDir()
			for phase := 0; phase < phases; phase++ {
				stop := make(chan struct{})
				reg := stats.NewRegistry()
				eng.RegisterMetrics(reg, "gh")
				var chaos sync.WaitGroup
				chaos.Add(1)
				go func() {
					defer chaos.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						eng.Quiesce(func() {})
						_ = eng.Len()
						if err := reg.WritePrometheus(io.Discard); err != nil {
							t.Errorf("scrape: %v", err)
							return
						}
						_ = eng.CheckConsistency()
					}
				}()

				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(phase*workers + w + 1)))
						oracle := oracles[w]
						var sc core.BatchScratch
						for op := 0; op < opsPer; op++ {
							switch rng.Intn(10) {
							case 0: // ApplyBatch burst: mixed puts and deletes
								ops := make([]core.BatchOp, 8)
								for i := range ops {
									n := rng.Uint64() % span
									k := key(w, n)
									if rng.Intn(3) == 0 {
										ops[i] = core.BatchOp{Kind: core.BatchDelete, Key: k}
									} else {
										ops[i] = core.BatchOp{Kind: core.BatchPut, Key: k, Value: rng.Uint64()}
									}
								}
								out := make([]core.BatchResult, len(ops))
								eng.ApplyBatch(ops, out, &sc, nil)
								for i, bop := range ops {
									if out[i].Err != nil {
										t.Errorf("batch op %d: %v", i, out[i].Err)
										return
									}
									if bop.Kind == core.BatchDelete {
										_, present := oracle[bop.Key.Lo]
										if out[i].Found != present {
											t.Errorf("batch delete found=%v, oracle present=%v", out[i].Found, present)
											return
										}
										delete(oracle, bop.Key.Lo)
									} else {
										_, present := oracle[bop.Key.Lo]
										if out[i].Found != present {
											t.Errorf("batch put found=%v, oracle present=%v", out[i].Found, present)
											return
										}
										oracle[bop.Key.Lo] = bop.Value
									}
								}
							case 1: // Get sweep
								for i := 0; i < 8; i++ {
									k := key(w, rng.Uint64()%span)
									want, present := oracle[k.Lo]
									if got, ok := eng.Get(k); ok != present || (present && got != want) {
										t.Errorf("Get(%x) = (%d, %v), oracle (%d, %v)",
											k.Lo, got, ok, want, present)
										return
									}
								}
							case 2, 3: // Delete
								k := key(w, rng.Uint64()%span)
								_, present := oracle[k.Lo]
								if ok := del(eng, k); ok != present {
									t.Errorf("Delete(%x) = %v, oracle present=%v", k.Lo, ok, present)
									return
								}
								delete(oracle, k.Lo)
							default: // Put (upsert)
								k := key(w, rng.Uint64()%span)
								v := rng.Uint64()
								if err := put(eng, k, v); err != nil {
									t.Errorf("Put(%x): %v", k.Lo, err)
									return
								}
								oracle[k.Lo] = v
							}
						}
					}(w)
				}
				wg.Wait()
				close(stop)
				chaos.Wait()
				if t.Failed() {
					t.Fatalf("phase %d: worker errors above", phase)
				}
				verify(eng, phase)

				// Persistence leg: snapshot, reload, re-verify, continue the
				// next phase on the reloaded engine.
				img := filepath.Join(dir, "phase.pmfs")
				if err := snapshot(eng, img); err != nil {
					t.Fatalf("phase %d: snapshot: %v", phase, err)
				}
				re, _, err := Load(spec, img)
				if err != nil {
					t.Fatalf("phase %d: Load: %v", phase, err)
				}
				verify(re, phase)
				eng = re
			}
		})
	}
}
