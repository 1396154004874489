package nvm

import "grouphash/internal/stats"

// RegisterMetrics exports the region's write-traffic counters into reg
// under the given metric-name prefix (e.g. "sim" →
// sim_nvm_words_dirtied_total). The counters are the paper's
// write-efficiency vocabulary — WordsDirtied is its notion of "NVM
// writes" — so a scrape puts the substrate cost of a workload next to
// the serving-layer latency it bought.
//
// Region is not safe for concurrent use; the registered load functions
// read the live counters, so scrapes must be serialised with region
// accesses by the caller (e.g. only scrape a quiesced or externally
// locked simulation).
func (r *Region) RegisterMetrics(reg *stats.Registry, prefix string) {
	p := prefix + "_nvm_"
	reg.RegisterCounter(p+"stores_total", "", "8-byte stores issued to the region.",
		func() uint64 { return r.stats.Stores })
	reg.RegisterCounter(p+"words_dirtied_total", "", "Clean-to-dirty word transitions (the paper's NVM writes).",
		func() uint64 { return r.stats.WordsDirtied })
	reg.RegisterCounter(p+"words_persisted_total", "", "Dirty words made durable by explicit persists.",
		func() uint64 { return r.stats.WordsPersisted })
	reg.RegisterCounter(p+"words_evicted_total", "", "Dirty words made durable by cache evictions.",
		func() uint64 { return r.stats.WordsEvicted })
	reg.RegisterCounter(p+"atomic_stores_total", "", "8-byte failure-atomic stores (subset of stores_total).",
		func() uint64 { return r.stats.AtomicStores })
}
