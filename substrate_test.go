// Substrate regression tests: the simulated-machine fast paths (paged
// dirty-word tracking in internal/nvm, cache-model hit fast paths in
// internal/cache) are pure performance work and must not move a single
// counter. This file pins the full counter vector of a fixed
// insert/lookup/delete trace to golden values captured from the original
// map-based tracker, so any behavioural drift in the substrate fails
// loudly rather than silently skewing the paper's figures.
package grouphash_test

import (
	"testing"

	"grouphash/internal/cache"
	"grouphash/internal/harness"
	"grouphash/internal/layout"
	"grouphash/internal/memsim"
	"grouphash/internal/nvm"
	"grouphash/internal/trace"
)

// replaySubstrateTrace drives a fixed group-table workload (load to 0.6,
// then a lookup/delete/reinsert churn, then a clean shutdown) on the
// simulated machine and returns the final cumulative counters. Every
// step is deterministic, so the result is a pure function of the
// substrate's semantics.
func replaySubstrateTrace(totalCells uint64, ops int) memsim.Counters {
	cfg := harness.BuildConfig{Kind: harness.Group, TotalCells: totalCells, KeyBytes: 8, Seed: 1}
	// Small cache geometry so the table exceeds the LLC and the trace
	// exercises the silent-eviction write-back path as well as flushes.
	mem := memsim.New(memsim.Config{Size: harness.RegionBytes(cfg), Seed: 42, Geoms: cache.SmallGeometry()})
	tab := harness.Build(mem, cfg)
	tr := trace.NewRandomNum(7)
	var keys []layout.Key
	for tab.LoadFactor() < 0.6 {
		it := tr.Next()
		if tab.Insert(it.Key, it.Value) != nil {
			break
		}
		keys = append(keys, it.Key)
	}
	for i := 0; i < ops; i++ {
		k := keys[(i*7919)%len(keys)]
		switch i % 3 {
		case 0:
			tab.Lookup(k)
		case 1:
			tab.Delete(k)
		default:
			tab.Insert(k, uint64(i))
		}
	}
	// Raw un-persisted writes scattered over the region: the table's
	// protocol flushes every line it writes, so this phase is what makes
	// dirty lines age out of the small LLC and exercises the silent
	// write-back (Evict) path of the region.
	for i := 0; i < ops; i++ {
		addr := (uint64(i) * 2654435761) % mem.Size() &^ 7
		mem.Write8(addr, uint64(i))
	}
	mem.CleanShutdown()
	return mem.Counters()
}

// TestSubstrateGoldenCounters replays the fixed trace and compares every
// simulated counter — clock, per-level misses, flushes, fences, and the
// whole nvm.Stats vector — against golden values recorded from the
// pre-optimisation (map-tracker) substrate. Bit-identical equality is
// required: these counters ARE the paper's figures.
func TestSubstrateGoldenCounters(t *testing.T) {
	got := replaySubstrateTrace(1<<14, 3000)
	// Captured from the seed (map-based dirty tracker) substrate; see the
	// package comment for why these must never move.
	want := memsim.Counters{
		ClockNs:  1.67161275e+07,
		Accesses: 507694,
		L1Misses: 146465,
		L2Misses: 43502,
		L3Misses: 36346,
		Flushes:  35496,
		Fences:   35495,
		NVM: nvm.Stats{
			Stores:         38503,
			WordsDirtied:   38503,
			WordsPersisted: 35503,
			WordsEvicted:   3000,
			AtomicStores:   23663,
		},
	}
	if got != want {
		t.Errorf("substrate counters drifted from golden values:\n got: %+v\nwant: %+v", got, want)
	}
}
