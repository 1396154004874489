package grouphash

import (
	"grouphash/internal/memsim"
	"grouphash/internal/native"
	"grouphash/internal/stats"
)

// ExpansionProgress reports an in-flight online expansion's migration
// progress as (stripes migrated, stripes total); (0, 0) when no
// expansion is running or the store is sequential.
func (s *Store) ExpansionProgress() (migrated, total int) {
	if s.conc == nil {
		return 0, 0
	}
	return s.conc.ExpandProgress()
}

// StripesMigrated returns the cumulative number of stripes drained by
// online expansions over the store's lifetime (0 on sequential stores).
func (s *Store) StripesMigrated() uint64 {
	if s.conc == nil {
		return 0
	}
	return s.conc.StripesMigrated()
}

// ExpansionStallNanos returns the total wall time writers have spent
// blocked waiting for an online expansion to make room — the
// store-side cost of stop-less growth (0 on sequential stores).
func (s *Store) ExpansionStallNanos() uint64 {
	if s.conc == nil {
		return 0
	}
	return s.conc.WriterStallNanos()
}

// RegisterMetrics exports the store's occupancy and online-expansion
// state into r under the given metric-name prefix (e.g. "gh" →
// gh_store_items). Safe on sequential and concurrent stores alike; the
// expansion series simply stay zero when expansion never runs.
func (s *Store) RegisterMetrics(r *stats.Registry, prefix string) {
	p := prefix + "_store_"
	r.RegisterGauge(p+"items", "", "Items currently stored.",
		func() float64 { return float64(s.Len()) })
	r.RegisterGauge(p+"capacity_cells", "", "Total cell count of the table.",
		func() float64 { return float64(s.Capacity()) })
	r.RegisterGauge(p+"load_factor", "", "Items / cells.",
		func() float64 { return s.LoadFactor() })
	r.RegisterGauge(p+"expanding", "", "1 while a stop-less online expansion is in flight.",
		func() float64 {
			if s.Expanding() {
				return 1
			}
			return 0
		})
	r.RegisterCounter(p+"expansions_total", "", "Completed online expansions.", s.Expansions)
	r.RegisterGauge(p+"expansion_stripes_migrated", "", "Stripes drained by the in-flight expansion (0 when idle).",
		func() float64 { m, _ := s.ExpansionProgress(); return float64(m) })
	r.RegisterGauge(p+"expansion_stripes", "", "Stripes the in-flight expansion must drain (0 when idle).",
		func() float64 { _, t := s.ExpansionProgress(); return float64(t) })
	r.RegisterCounter(p+"expansion_stripes_migrated_total", "", "Stripes drained by online expansions, cumulative.",
		s.StripesMigrated)
	r.RegisterCounter(p+"expansion_fallbacks_total", "",
		"Online expansions that fell back to the stop-the-world rebuild.",
		func() uint64 {
			if s.conc == nil {
				return 0
			}
			return s.conc.Fallbacks()
		})
	r.RegisterFloatCounter(p+"expansion_writer_stall_seconds_total", "",
		"Total wall time writers spent blocked waiting for expansion room.",
		func() float64 { return float64(s.ExpansionStallNanos()) * 1e-9 })
	r.RegisterCounter(p+"fingerprint_hits_total", "",
		"Cells dereferenced because their fingerprint tag matched the probe key.",
		func() uint64 { h, _ := s.FingerprintStats(); return h })
	r.RegisterCounter(p+"fingerprint_skips_total", "",
		"Cells the fingerprint filter screened out without a persistent-memory read.",
		func() uint64 { _, sk := s.FingerprintStats(); return sk })
}

// RegisterSubstrateMetrics exports the memory backend's cost counters
// into r under the given metric-name prefix: the simulated machine
// contributes NVM write-traffic, per-level cache and flush/fence
// counters (the paper's measurement vocabulary), the native backend the
// bytes it holds. Backends the façade does not recognise register
// nothing.
//
// The simulated counters are read without synchronisation — the
// simulator is single-threaded by design — so only scrape registries
// holding simulated substrate metrics while the simulation is idle.
func (s *Store) RegisterSubstrateMetrics(r *stats.Registry, prefix string) {
	switch m := s.mem.(type) {
	case *memsim.Memory:
		m.Region().RegisterMetrics(r, prefix)
		m.Hierarchy().RegisterMetrics(r, prefix)
		p := prefix + "_sim_"
		r.RegisterCounter(p+"flushes_total", "", "clflush instructions executed.",
			func() uint64 { return m.Counters().Flushes })
		r.RegisterCounter(p+"fences_total", "", "mfence instructions executed.",
			func() uint64 { return m.Counters().Fences })
		r.RegisterGauge(p+"clock_seconds", "", "Simulated machine time.",
			func() float64 { return m.Counters().ClockNs * 1e-9 })
		r.RegisterGauge(prefix+"_mem_allocated_bytes", "", "Allocator watermark of the backing memory.",
			func() float64 { return float64(m.Allocated()) })
	case *native.Memory:
		r.RegisterGauge(prefix+"_mem_allocated_bytes", "",
			"Bytes the backing memory holds: the allocator watermark less the pages freed after online expansion.",
			func() float64 { return float64(m.Live()) })
	}
}
