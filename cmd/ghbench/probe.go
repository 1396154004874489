package main

import (
	"fmt"
	"io"
	"time"

	"grouphash/internal/core"
	"grouphash/internal/harness"
	"grouphash/internal/layout"
	"grouphash/internal/native"
)

// The probe experiment measures what the DRAM fingerprint sidecar buys
// on the NATIVE backend (real wall-clock ns/op — the sidecar is a DRAM
// structure the simulator deliberately does not charge): present- and
// absent-key lookups at three load factors, filtered vs unfiltered,
// on identically-built tables.

// probeRow is one (case, load factor, filter state) lookup measurement.
type probeRow struct {
	Case         string  `json:"case"`            // "hit" or "miss"
	TargetLfPct  int     `json:"target_lf_pct"`   // requested fill
	LfPct        float64 `json:"load_factor_pct"` // achieved fill
	Fingerprints bool    `json:"fingerprints"`
	NsOp         float64 `json:"ns_per_op"`
	Speedup      float64 `json:"speedup"`         // unfiltered ns / this ns (1.0 on unfiltered rows)
	FpHitsOp     float64 `json:"fp_hits_per_op"`  // cells dereferenced through the filter
	FpSkipsOp    float64 `json:"fp_skips_per_op"` // cells screened out by the filter
}

// probeBuild fills a group-256 native table toward the target load
// factor. Past ~78% a strict insert loop dies on its first full group
// (the paper's Figure-7 ceiling), so failed inserts are skipped and
// replaced by later keys; the achieved load factor is returned with
// the keys that landed.
func probeBuild(l1 uint64, seed uint64, lfPct int, fp bool) (*core.Table, []layout.Key) {
	tab, err := core.Create(native.New(1<<16), core.Options{Cells: l1, GroupSize: 256, Seed: seed})
	check(err)
	if !fp {
		tab.DisableFingerprints()
	}
	target := tab.Capacity() * uint64(lfPct) / 100
	keys := make([]layout.Key, 0, target)
	fails := 0
	for i := uint64(1); uint64(len(keys)) < target && fails < 1<<18; i++ {
		k := layout.Key{Lo: i * 0x9e3779b97f4a7c15}
		if tab.Insert(k, i) != nil {
			fails++
			continue
		}
		keys = append(keys, k)
	}
	return tab, keys
}

// probeBench measures hit and miss lookups at one load factor for one
// filter state, attributing the filter counters consumed by the timed
// loops to their rows.
func probeBench(l1 uint64, seed uint64, lfPct, ops int, fp bool) (hit, miss probeRow) {
	tab, keys := probeBuild(l1, seed, lfPct, fp)
	lf := tab.LoadFactor() * 100

	measure := func(kase string, key func(n uint64) layout.Key, wantOK bool) probeRow {
		h0, s0 := tab.FingerprintStats()
		start := time.Now()
		for n := uint64(0); n < uint64(ops); n++ {
			if _, ok := tab.Lookup(key(n)); ok != wantOK {
				panic(fmt.Sprintf("probe %s: lookup ok=%v, want %v", kase, ok, wantOK))
			}
		}
		wall := time.Since(start)
		h1, s1 := tab.FingerprintStats()
		return probeRow{
			Case: kase, TargetLfPct: lfPct, LfPct: lf, Fingerprints: fp,
			NsOp:     float64(wall.Nanoseconds()) / float64(ops),
			FpHitsOp: float64(h1-h0) / float64(ops), FpSkipsOp: float64(s1-s0) / float64(ops),
		}
	}
	hit = measure("hit", func(n uint64) layout.Key { return keys[n%uint64(len(keys))] }, true)
	// Absent keys from a disjoint index range (the odd-constant multiply
	// is a bijection, so they cannot collide with any inserted key).
	miss = measure("miss", func(n uint64) layout.Key {
		return layout.Key{Lo: (n%(1<<20) + 1<<40) * 0x9e3779b97f4a7c15}
	}, false)
	return hit, miss
}

// runProbeExperiment executes the lookup benchmark across load factors
// and filter states, prints the comparison, and folds the rows into
// the JSON report.
func runProbeExperiment(w io.Writer, scale harness.Scale, report *jsonReport) {
	l1 := scale.RandomNumCells / 2
	if l1 < 1<<15 {
		l1 = 1 << 15
	}
	ops := 2_000_000
	if scale.Name == "test" {
		ops = 100_000
	}
	fmt.Fprintf(w, "Fingerprint-filtered probes (native backend, %d level-1 cells, %d lookups/row):\n", l1, ops)
	fmt.Fprintf(w, "  %-5s %-9s %12s %12s %9s %12s\n", "case", "load", "plain ns/op", "fp ns/op", "speedup", "fp skips/op")
	for _, lfPct := range []int{50, 70, 82} {
		fpHit, fpMiss := probeBench(l1, uint64(scale.Seed), lfPct, ops, true)
		plHit, plMiss := probeBench(l1, uint64(scale.Seed), lfPct, ops, false)
		plHit.Speedup, plMiss.Speedup = 1, 1
		fpHit.Speedup = plHit.NsOp / fpHit.NsOp
		fpMiss.Speedup = plMiss.NsOp / fpMiss.NsOp
		for _, pair := range [2][2]probeRow{{plHit, fpHit}, {plMiss, fpMiss}} {
			pl, f := pair[0], pair[1]
			fmt.Fprintf(w, "  %-5s %7.1f%% %12.1f %12.1f %8.2fx %12.1f\n",
				f.Case, f.LfPct, pl.NsOp, f.NsOp, f.Speedup, f.FpSkipsOp)
			report.Probe = append(report.Probe, pl, f)
		}
	}
}
