package core

import (
	"fmt"
	"math/rand"
	"testing"

	"grouphash/internal/layout"
	"grouphash/internal/native"
)

// fpZeroMaskRef is the obvious byte-loop reference for fpZeroMask.
func fpZeroMaskRef(x uint64) uint64 {
	var m uint64
	for i := 0; i < 8; i++ {
		if x>>(i*8)&0xff == 0 {
			m |= 0x80 << (i * 8)
		}
	}
	return m
}

// TestFpZeroMaskExact proves the SWAR zero-byte test exact — no false
// positives AND no false negatives — on the adversarial shapes where
// the classic (x-0x01..)&^x&0x80.. trick produces cross-lane-borrow
// false positives, plus a random sweep. Exactness is load-bearing:
// placeInGroupFP picks "empty" slots straight from this mask, and a
// false positive would overwrite a live cell.
func TestFpZeroMaskExact(t *testing.T) {
	cases := []uint64{
		0, ^uint64(0),
		0x0101010101010101, 0x8080808080808080,
		0x0100000000000000, 0x0000000000000100,
		0x0180018001800180, // borrow bait: 0x80 lanes below 0x01 lanes
		0xff00ff00ff00ff00, 0x00ff00ff00ff00ff,
		0x0001000100010001, 0x7f7f7f7f7f7f7f7f,
	}
	// Every single byte value in every lane position.
	for lane := 0; lane < 8; lane++ {
		for v := uint64(0); v < 256; v++ {
			cases = append(cases, v<<(lane*8), ^uint64(0)&^(0xff<<(lane*8))|v<<(lane*8))
		}
	}
	for _, x := range cases {
		if got, want := fpZeroMask(x), fpZeroMaskRef(x); got != want {
			t.Fatalf("fpZeroMask(%#016x) = %#016x, want %#016x", x, got, want)
		}
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200000; i++ {
		x := rng.Uint64()
		if i%3 == 0 {
			x &= fpBroadcast(rng.Uint64() & 0x0101) // plant zero bytes
		}
		if got, want := fpZeroMask(x), fpZeroMaskRef(x); got != want {
			t.Fatalf("fpZeroMask(%#016x) = %#016x, want %#016x", x, got, want)
		}
	}
}

// TestFingerprintDefaults pins the enablement matrix: on by default on
// the native (ConcurrentReader) backend, off on the simulated machine
// (whose golden counters must keep measuring the paper's exact probe
// sequence), and unavailable below the 8-cell group floor.
func TestFingerprintDefaults(t *testing.T) {
	tab := mustCreate(t, native.New(1<<22), Options{Cells: 1 << 10, GroupSize: 16})
	if tab.cur().fp == nil {
		t.Fatal("sidecar off by default on the native backend")
	}

	small := mustCreate(t, native.New(1<<22), Options{Cells: 1 << 10, GroupSize: 4})
	if small.cur().fp != nil {
		t.Fatal("sidecar on with a 4-cell group (tag words would span groups)")
	}
	if small.EnableFingerprints() {
		t.Fatal("EnableFingerprints accepted an ineligible geometry")
	}

	sim := mustCreate(t, simMem(5), Options{Cells: 1 << 10, GroupSize: 16})
	if sim.cur().fp != nil {
		t.Fatal("sidecar on by default on the simulated backend")
	}
	if !sim.EnableFingerprints() {
		t.Fatal("explicit opt-in refused on an eligible simulated table")
	}
	if sim.cur().fp == nil {
		t.Fatal("opt-in did not stick")
	}
	sim.DisableFingerprints()
	if sim.cur().fp != nil {
		t.Fatal("DisableFingerprints did not stick")
	}
}

// TestFingerprintEquivalence drives an identical random operation mix
// through a filtered and an unfiltered table (same seed, same keys) and
// demands bit-identical observable behaviour, then consistency on both.
// This is the drift guard for the two probe strategies sharing
// findInGroup.
func TestFingerprintEquivalence(t *testing.T) {
	for _, keyBytes := range []int{8, 16} {
		opts := Options{Cells: 1 << 10, GroupSize: 16, KeyBytes: keyBytes, Seed: 21}
		fpTab := mustCreate(t, native.New(1<<24), opts)
		plain := mustCreate(t, native.New(1<<24), opts)
		plain.DisableFingerprints()
		if fpTab.cur().fp == nil || plain.cur().fp != nil {
			t.Fatal("setup: sidecar states wrong")
		}

		rng := rand.New(rand.NewSource(int64(keyBytes)))
		key := func() layout.Key {
			return layout.Key{Lo: uint64(rng.Intn(2000)) + 1, Hi: uint64(rng.Intn(3))}
		}
		for op := 0; op < 30000; op++ {
			k := key()
			switch rng.Intn(5) {
			case 0, 1:
				e1, e2 := fpTab.Insert(k, uint64(op)), plain.Insert(k, uint64(op))
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("op %d: insert diverged: %v vs %v", op, e1, e2)
				}
			case 2:
				if d1, d2 := fpTab.Delete(k), plain.Delete(k); d1 != d2 {
					t.Fatalf("op %d: delete diverged: %v vs %v", op, d1, d2)
				}
			case 3:
				if u1, u2 := fpTab.Update(k, uint64(op)), plain.Update(k, uint64(op)); u1 != u2 {
					t.Fatalf("op %d: update diverged: %v vs %v", op, u1, u2)
				}
			default:
				v1, ok1 := fpTab.Lookup(k)
				v2, ok2 := plain.Lookup(k)
				if ok1 != ok2 || v1 != v2 {
					t.Fatalf("op %d: lookup diverged: (%d,%v) vs (%d,%v)", op, v1, ok1, v2, ok2)
				}
			}
		}
		if fpTab.Len() != plain.Len() {
			t.Fatalf("lengths diverged: %d vs %d", fpTab.Len(), plain.Len())
		}
		for _, tab := range []*Table{fpTab, plain} {
			if bad := tab.CheckConsistency(); len(bad) != 0 {
				t.Fatalf("inconsistencies: %v", bad)
			}
		}
		hits, skips := fpTab.FingerprintStats()
		if hits == 0 || skips == 0 {
			t.Fatalf("filter never exercised: hits=%d skips=%d", hits, skips)
		}
		if h, s := plain.FingerprintStats(); h != 0 || s != 0 {
			t.Fatalf("unfiltered table counted filter work: hits=%d skips=%d", h, s)
		}
	}
}

// TestFingerprintCrashRecoveryCoherence crashes a filtered table on the
// simulated machine — including mid-insert, leaving a torn payload —
// and checks Recover rederives the sidecar from the certified cells:
// CheckConsistency's tag-vs-cell audit must come back clean and every
// committed key must still be found through the filter.
func TestFingerprintCrashRecoveryCoherence(t *testing.T) {
	mem := simMem(31)
	tab := mustCreate(t, mem, Options{Cells: 256, GroupSize: 16})
	if !tab.EnableFingerprints() {
		t.Fatal("opt-in refused")
	}
	rng := rand.New(rand.NewSource(8))
	live := map[uint64]uint64{}
	for i := 0; i < 400; i++ {
		k := uint64(rng.Intn(300)) + 1
		if rng.Intn(3) == 0 {
			if tab.Delete(layout.Key{Lo: k}) {
				delete(live, k)
			}
		} else if err := tab.Insert(layout.Key{Lo: k}, k*3); err == nil {
			live[k] = k * 3
		}
	}
	mem.CleanShutdown()

	// Tear an insert: payload written, commit word never flipped.
	k := layout.Key{Lo: 7777}
	idx := tab.cur().h.Index(k.Lo, k.Hi)
	cells := tab.cur().tab1
	if cells.Occupied(idx) {
		cells = tab.cur().tab2
		for idx = tab.groupStart(idx); cells.Occupied(idx); idx++ {
		}
	}
	cells.WritePayload(idx, k, 42)
	mem.Crash(0.5)

	if _, err := tab.Recover(); err != nil {
		t.Fatal(err)
	}
	if tab.cur().fp == nil {
		t.Fatal("recovery dropped the sidecar")
	}
	if bad := tab.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("post-recovery inconsistencies: %v", bad)
	}
	for k, v := range live {
		got, ok := tab.Lookup(layout.Key{Lo: k})
		if !ok || got != v {
			t.Fatalf("committed key %d lost after recovery: (%d, %v)", k, got, ok)
		}
	}
	if _, ok := tab.Lookup(k); ok {
		t.Fatal("torn insert visible after recovery")
	}
}

// TestFingerprintExpansionCoherence grows a filtered table through
// several sequential doublings and checks the new views' sidecars —
// filled by the rehash cursor path, not buildFp — agree with the cells.
func TestFingerprintExpansionCoherence(t *testing.T) {
	tab := mustCreate(t, native.New(1<<24), Options{Cells: 64, GroupSize: 16, Seed: 9})
	if tab.cur().fp == nil {
		t.Fatal("sidecar off")
	}
	start := tab.Capacity()
	const n = 900
	for i := uint64(1); i <= n; i++ {
		if err := tab.InsertAutoExpand(layout.Key{Lo: i * 0x9e3779b97f4a7c15}, i); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tab.Capacity() <= start {
		t.Fatalf("no expansion happened (capacity %d)", tab.Capacity())
	}
	if tab.cur().fp == nil {
		t.Fatal("expansion dropped the sidecar")
	}
	if bad := tab.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("post-expansion inconsistencies: %v", bad)
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := tab.Lookup(layout.Key{Lo: i * 0x9e3779b97f4a7c15}); !ok || v != i {
			t.Fatalf("key %d lost after expansion: (%d, %v)", i, v, ok)
		}
	}
}

// TestFingerprintDuplicateFirstMatch plants the same key twice in one
// group (possible transiently; the probe contract says the FIRST cell
// in scan order wins) and checks the filtered scan preserves the
// unfiltered scan's answer for find, delete and re-find.
func TestFingerprintDuplicateFirstMatch(t *testing.T) {
	tab := mustCreate(t, native.New(1<<22), Options{Cells: 1 << 10, GroupSize: 16, Seed: 2})
	vw := tab.cur()
	k := layout.Key{Lo: 12345}
	j := tab.groupStart(vw.h.Index(k.Lo, k.Hi))
	// Two copies with a decoy between them, all placed by the normal path.
	if !tab.placeInGroup(vw, j, k, 100) ||
		!tab.placeInGroup(vw, j, layout.Key{Lo: 54321}, 0) ||
		!tab.placeInGroup(vw, j, k, 200) {
		t.Fatal("setup placements failed")
	}

	var tl fpTally
	iFP, okFP := tab.findInGroup(vw, j, k, &tl)
	tab.DisableFingerprints()
	iPlain, okPlain := tab.findInGroup(vw, j, k, &tl)
	if !okFP || !okPlain || iFP != iPlain {
		t.Fatalf("scan order diverged: fp=(%d,%v) plain=(%d,%v)", iFP, okFP, iPlain, okPlain)
	}
	if v := vw.tab2.Value(iFP); v != 100 {
		t.Fatalf("first match holds %d, want the first copy (100)", v)
	}

	tab.EnableFingerprints()
	vw = tab.cur()
	if !tab.removeIn(vw, k, &tl) {
		t.Fatal("delete missed")
	}
	i2, ok := tab.findInGroup(vw, j, k, &tl)
	if !ok || vw.tab2.Value(i2) != 200 {
		t.Fatal("second copy not found after deleting the first")
	}
	if i2 <= iFP {
		t.Fatalf("second copy at %d not after first at %d", i2, iFP)
	}
}

// benchFillTable builds a group-256 native table at (close to) the
// requested load factor. Inserts that land in a full group are skipped
// and replaced — at 82% the table is past the paper's
// insert-until-first-failure ceiling, so some keys simply do not fit —
// and the achieved load factor is logged.
func benchFillTable(b *testing.B, lfPct int, fp bool) (*Table, []layout.Key) {
	b.Helper()
	const l1 = 1 << 15
	tab, err := Create(native.New(1<<16), Options{Cells: l1, GroupSize: 256, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	if !fp {
		tab.DisableFingerprints()
	}
	target := tab.Capacity() * uint64(lfPct) / 100
	keys := make([]layout.Key, 0, target)
	fails := 0
	for i := uint64(1); uint64(len(keys)) < target && fails < 1<<17; i++ {
		k := layout.Key{Lo: i * 0x9e3779b97f4a7c15}
		if tab.Insert(k, i) != nil {
			fails++
			continue
		}
		keys = append(keys, k)
	}
	b.Logf("load factor %.1f%% (target %d%%), %d keys", tab.LoadFactor()*100, lfPct, len(keys))
	return tab, keys
}

// BenchmarkLookupHit measures present-key probes at three load factors,
// filtered vs unfiltered. Keys are looked up in insertion order, which
// mixes level-1 direct hits with level-2 group scans exactly as a real
// read-mostly workload would see them.
func BenchmarkLookupHit(b *testing.B) {
	for _, lf := range []int{50, 70, 82} {
		for _, fp := range []bool{true, false} {
			b.Run(fmt.Sprintf("lf%d/fp=%v", lf, fp), func(b *testing.B) {
				tab, keys := benchFillTable(b, lf, fp)
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if _, ok := tab.Lookup(keys[n%len(keys)]); !ok {
						b.Fatal("present key missed")
					}
				}
			})
		}
	}
}

// BenchmarkLookupMiss measures absent-key probes — the filter's best
// case: an unfiltered miss walks the whole occupied prefix of both
// candidate regions, a filtered miss screens 8 tags per word load.
func BenchmarkLookupMiss(b *testing.B) {
	for _, lf := range []int{50, 70, 82} {
		for _, fp := range []bool{true, false} {
			b.Run(fmt.Sprintf("lf%d/fp=%v", lf, fp), func(b *testing.B) {
				tab, _ := benchFillTable(b, lf, fp)
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					k := layout.Key{Lo: (uint64(n)%(1<<20) + 1<<40) * 0x9e3779b97f4a7c15}
					if _, ok := tab.Lookup(k); ok {
						b.Fatal("absent key found")
					}
				}
			})
		}
	}
}
