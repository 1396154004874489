package nvm

import "sort"

// Wear tracking. Limited write endurance (10^8 cycles for PCM, Table 1
// of the paper) is half the motivation for write-efficient structures:
// "reducing the amount of writes to NVMs can alleviate these two
// limitations at the same time" (§2.1). The region can optionally
// count every word that reaches the persistence domain — by flush or
// by eviction — which is exactly the write stream the media endures.
// The paper assumes device-level wear-leveling (§2.1); these counters
// quantify what such a layer would have to absorb for each scheme.

// WearStats summarises media-write wear over a region.
type WearStats struct {
	// MediaWrites is the total number of word-writes that reached the
	// media (each persisted or evicted dirty word counts once per trip).
	MediaWrites uint64
	// WordsTouched is how many distinct words were ever written.
	WordsTouched uint64
	// MaxPerWord is the hottest word's write count.
	MaxPerWord uint32
	// MaxWordAddr is the hottest word's address.
	MaxWordAddr uint64
	// MeanPerTouched is MediaWrites / WordsTouched.
	MeanPerTouched float64
	// P99PerTouched is the 99th-percentile write count among touched
	// words — the tail a wear-leveler must spread.
	P99PerTouched uint32
}

// EnableWearTracking allocates the per-word write counters. Costs four
// bytes per region word; off by default.
func (r *Region) EnableWearTracking() {
	if r.wear == nil {
		r.wear = make([]uint32, len(r.cur)/WordSize)
	}
}

// wearWord counts one media write of the word with index wi (byte
// address / WordSize).
func (r *Region) wearWord(wi uint64) {
	if r.wear != nil {
		r.wear[wi]++
	}
}

// WearOf returns the media-write count of the word containing addr
// (0 when tracking is off).
func (r *Region) WearOf(addr uint64) uint32 {
	if r.wear == nil {
		return 0
	}
	r.check(addr, WordSize)
	return r.wear[addr/WordSize]
}

// Wear computes the wear summary. O(region words).
func (r *Region) Wear() WearStats {
	var s WearStats
	if r.wear == nil {
		return s
	}
	var touched []uint32
	for i, c := range r.wear {
		if c == 0 {
			continue
		}
		s.MediaWrites += uint64(c)
		s.WordsTouched++
		if c > s.MaxPerWord {
			s.MaxPerWord = c
			s.MaxWordAddr = uint64(i) * WordSize
		}
		touched = append(touched, c)
	}
	if s.WordsTouched > 0 {
		s.MeanPerTouched = float64(s.MediaWrites) / float64(s.WordsTouched)
		sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
		// Ceiling index: the 99th percentile of a small population is
		// its upper tail, not the element just below it.
		idx := (99*(len(touched)-1) + 99) / 100
		if idx >= len(touched) {
			idx = len(touched) - 1
		}
		s.P99PerTouched = touched[idx]
	}
	return s
}
