// Package harness builds the hashing schemes under comparison, drives
// the paper's experimental procedure over the simulated machine, and
// regenerates every table and figure of the evaluation section (§4):
//
//	Figure 2  — consistency cost of logging (latency + L3 misses)
//	Figures 5/6 — request latency and L3 misses: 3 traces × 2 load
//	              factors × {linear-L, pfht-L, path-L, group}
//	Figure 7  — space utilisation at insertion failure
//	Figure 8  — group-size sweep (latency + utilisation)
//	Table 3   — recovery time vs. table size
//
// The harness measures with the paper's procedure (§4.2): load the
// table to the target load factor, then insert 1000 items, query 1000
// items and delete 1000 items, reporting per-operation averages.
package harness

import (
	"fmt"

	"grouphash/internal/core"
	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
	"grouphash/internal/linearprobe"
	"grouphash/internal/pathhash"
	"grouphash/internal/pfht"
	"grouphash/internal/wal"
)

// Kind names a scheme variant exactly as the paper's figures label them.
type Kind string

// The schemes of the evaluation. "-L" marks the logged (crash-
// consistent) variants of the baselines; group hashing needs no log.
const (
	Group   Kind = "group"
	Group2C Kind = "group-2c"
	Linear  Kind = "linear"
	LinearL Kind = "linear-L"
	PFHT    Kind = "pfht"
	PFHTL   Kind = "pfht-L"
	Path    Kind = "path"
	PathL   Kind = "path-L"
)

// Fig5Schemes are the four consistent schemes compared in Figures 5-7.
func Fig5Schemes() []Kind { return []Kind{LinearL, PFHTL, PathL, Group} }

// Fig2Schemes are the six motivation schemes of Figure 2.
func Fig2Schemes() []Kind { return []Kind{Linear, LinearL, PFHT, PFHTL, Path, PathL} }

// BuildConfig sizes a table build.
type BuildConfig struct {
	Kind Kind
	// TotalCells is the approximate total cell budget, matching the
	// paper's "2^23 hash table cells" style sizing. Each scheme maps
	// it onto its own structure (see Build).
	TotalCells uint64
	// KeyBytes is 8 or 16 (taken from the trace).
	KeyBytes int
	// Seed selects hash functions.
	Seed uint64
	// GroupSize applies to group hashing only; 0 = paper default 256.
	GroupSize uint64
}

// RegionBytes estimates the persistent-region size cfg needs, with
// allowance for the WAL, headers, and path hashing's extra levels.
func RegionBytes(cfg BuildConfig) uint64 {
	cell := layout.ForKeySize(cfg.KeyBytes).CellSize()
	return cfg.TotalCells*cell*2 + wal.Bytes() + (1 << 16)
}

// Build constructs the scheme over mem. The cell budget is divided the
// way each scheme organises storage:
//
//   - group: level 1 = TotalCells/2, level 2 the same (capacity ≈ budget)
//   - linear: TotalCells cells
//   - pfht: TotalCells main cells + the 3% stash on top (as in §4.1,
//     "an extra stash with 3% size of the hash table")
//   - path: top level = TotalCells/2; with ≥8 levels the total is
//     within 1% of the budget
func Build(mem hashtab.Mem, cfg BuildConfig) hashtab.Table {
	if cfg.KeyBytes == 0 {
		cfg.KeyBytes = 8
	}
	switch cfg.Kind {
	case Group, Group2C:
		t, err := core.Create(mem, core.Options{
			Cells:     cfg.TotalCells / 2,
			GroupSize: cfg.GroupSize,
			KeyBytes:  cfg.KeyBytes,
			Seed:      cfg.Seed,
			TwoChoice: cfg.Kind == Group2C,
		})
		if err != nil {
			panic(fmt.Sprintf("harness: building group table: %v", err))
		}
		return t
	case Linear, LinearL:
		return linearprobe.New(mem, linearprobe.Options{
			Cells:    cfg.TotalCells,
			KeyBytes: cfg.KeyBytes,
			Seed:     cfg.Seed,
			Logged:   cfg.Kind == LinearL,
		})
	case PFHT, PFHTL:
		return pfht.New(mem, pfht.Options{
			Cells:    cfg.TotalCells,
			KeyBytes: cfg.KeyBytes,
			Seed:     cfg.Seed,
			Logged:   cfg.Kind == PFHTL,
		})
	case Path, PathL:
		return pathhash.New(mem, pathhash.Options{
			Cells:    cfg.TotalCells / 2,
			KeyBytes: cfg.KeyBytes,
			Seed:     cfg.Seed,
			Logged:   cfg.Kind == PathL,
		})
	}
	panic(fmt.Sprintf("harness: unknown scheme kind %q", cfg.Kind))
}
