package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
)

// Expand grows the table when Insert returns ErrTableFull. The paper
// notes the condition ("the capacity of the hash table needs to be
// expanded", §3.4) but leaves the mechanism open; this implementation
// is an extension with the same consistency discipline as the rest of
// the scheme:
//
//  1. allocate fresh level-1/level-2 arrays of double the size;
//  2. re-insert every live item into the new arrays using the normal
//     cell commit protocol (payload → persist → meta → persist);
//  3. record the new roots in the inactive header slot and persist;
//  4. atomically flip the header's slot word — the 8-byte commit point
//     of the whole expansion — and persist it.
//
// A crash anywhere before step 4 leaves the old table untouched and
// current (the new arrays are garbage the allocator may reuse); a
// crash after step 4 leaves the fully-built new table current. The
// count is unchanged by expansion, so the count word needs no update.
//
// On backends exposing hashtab.Reclaimer the arrays of a failed rehash
// attempt are returned to the allocator before the next doubling is
// tried, so a retried expansion's footprint is bounded by its final
// (successful) attempt rather than the sum of all attempts, and the
// commit frees the arrays it replaced (allocate-new, switch, free-old),
// so a grown table holds one generation of cells. Backends without
// reclaim (memsim's fixed region) keep both.
//
// The rehash itself is parallelised on concurrent-read-safe backends;
// see rehashInto.
func (t *Table) Expand() error {
	vw := t.cur()
	if t.rebuild(vw.tab1.N*2, func(nvw *view) bool { return t.rehashInto(vw, nvw) }) {
		return nil
	}
	return fmt.Errorf("core: expansion failed after tripling attempts: %w", hashtab.ErrTableFull)
}

// rebuild tries up to three successively doubled views, starting at
// cells level-1 cells: it commits the first one place fills completely
// and reports whether one did. A failed attempt's arrays (pathological
// skew: some item did not fit even in the bigger table) go back to the
// allocator where it can reclaim them before the next doubling.
func (t *Table) rebuild(cells uint64, place func(nvw *view) bool) bool {
	seed := t.mem.Read8(t.hdr + hdrSeed*layout.WordSize)
	rec, canReclaim := t.mem.(hashtab.Reclaimer)
	for attempt := 0; attempt < 3; attempt, cells = attempt+1, cells*2 {
		var mark uint64
		if canReclaim {
			mark = rec.Mark()
		}
		nvw := t.newView(cells, seed)
		if t.expandFailures > 0 {
			t.expandFailures--
		} else if place(nvw) {
			t.commitRoots(nvw)
			return true
		}
		if canReclaim {
			rec.Release(mark)
		}
	}
	return false
}

// RehashBench runs one full-table rehash into fresh doubled arrays
// WITHOUT committing them, returning the wall time of the migration
// itself (array allocation and reclamation excluded). The table is
// left unchanged, and on reclaiming backends the scratch arrays are
// returned to the allocator, so repeated calls — e.g. a worker-count
// sweep via SetRehashWorkers — reuse one built table without growing
// the footprint. Benchmark instrumentation for cmd/ghbench; not part
// of the recovery or expansion protocol.
func (t *Table) RehashBench() (time.Duration, error) {
	vw := t.cur()
	seed := t.mem.Read8(t.hdr + hdrSeed*layout.WordSize)
	rec, canReclaim := t.mem.(hashtab.Reclaimer)
	var mark uint64
	if canReclaim {
		mark = rec.Mark()
	}
	nvw := t.newView(vw.tab1.N*2, seed)
	start := time.Now()
	ok := t.rehashInto(vw, nvw)
	d := time.Since(start)
	if canReclaim {
		rec.Release(mark)
	}
	if !ok {
		return d, hashtab.ErrTableFull
	}
	return d, nil
}

// SetRehashWorkers overrides the worker count of the parallel rehash:
// 0 restores the automatic choice (GOMAXPROCS on eligible backends),
// 1 forces the sequential path, n > 1 forces an n-worker pool even
// beyond GOMAXPROCS (useful for benchmarking the pool's scheduling
// overhead in isolation — on a machine with fewer cores the extra
// workers just timeshare). Two-choice tables and backends without
// atomic word access ignore the override and stay sequential. Must not
// be called while an expansion is in flight.
func (t *Table) SetRehashWorkers(n int) {
	if n < 0 {
		n = 0
	}
	t.rehashWorkers = n
}

// rehashInto re-inserts every live item of vw into the new view,
// reporting whether all items could be placed.
//
// The hash function takes the HIGH bits of the 64-bit hash, so growing
// from N to M·N level-1 cells appends bits at the BOTTOM of every
// index: an item whose level-1 home was cell i moves to a cell in
// [M·i, M·(i+1)). Old group g therefore maps exactly onto new groups
// [M·g, M·(g+1)) — and since every item stored in old level-2 group g
// has its level-1 home inside old group g, the destination windows of
// distinct old groups are disjoint. Two consequences:
//
//   - The migration is embarrassingly parallel at group granularity:
//     workers claim contiguous ranges of old groups and write
//     non-overlapping regions of the new arrays, with no locks and no
//     cross-worker conflicts.
//   - Within one old group's window the destination level-2 groups are
//     exclusively owned and start empty, so they fill strictly left to
//     right — rehashGroups tracks each one's fill with a DRAM cursor
//     instead of re-scanning the occupied prefix per item. That turns
//     the level-2 half of the rehash from O(items · fill) commit-word
//     reads into O(items), which at high load factors is most of the
//     rehash (the old first-empty scan walked ~90 cells per spilled
//     item at 82% occupancy).
//
// The parallel path is gated on backends whose word accesses are
// individually atomic (hashtab.ConcurrentReader) and on single-choice
// tables (a two-choice item's second candidate lands in an unrelated
// group, breaking both disjointness and the left-to-right fill);
// everything else takes the sequential path, which uses the same
// cursor placement. Per-item durability is unchanged either way — each
// item runs the same cell commit protocol (payload → persist → meta →
// persist) through Cells.InsertAt, and the single 8-byte header-slot
// flip in commitRoots remains the expansion's only commit point.
func (t *Table) rehashInto(vw, nvw *view) bool {
	groups := vw.tab1.N / t.gsz
	workers := 1
	if _, ok := t.mem.(hashtab.ConcurrentReader); ok && !t.two {
		workers = t.rehashWorkers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if uint64(workers) > groups {
			workers = int(groups)
		}
	}
	if workers <= 1 {
		return t.rehashGroups(vw, nvw, 0, groups)
	}
	// Dynamic chunked claiming: workers grab batches of old groups off
	// a shared counter, so a skewed region cannot leave one worker with
	// all the work.
	const chunk = 8
	var next atomic.Uint64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				lo := next.Add(chunk) - chunk
				if lo >= groups {
					return
				}
				hi := lo + chunk
				if hi > groups {
					hi = groups
				}
				if !t.rehashGroups(vw, nvw, lo, hi) {
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return !failed.Load()
}

// rehashGroups migrates the live items of old groups [gLo, gHi) from vw
// into nvw, reporting whether every item was placed. Requires nvw's
// destination windows for these groups to be empty and exclusively
// owned by this call (true for every rehash: Expand builds nvw fresh,
// and online migration drains a stripe exactly once under its lock).
// Two-choice tables take the generic placeIn path instead — their
// second candidate breaks window disjointness.
func (t *Table) rehashGroups(vw, nvw *view, gLo, gHi uint64) bool {
	if t.two {
		lo, hi := gLo*t.gsz, gHi*t.gsz
		for _, cells := range [2]*hashtab.Cells{&vw.tab1, &vw.tab2} {
			for i := lo; i < hi; i++ {
				if cells.Occupied(i) {
					if !t.placeIn(nvw, cells.Key(i), cells.Value(i)) {
						return false
					}
				}
			}
		}
		return true
	}
	mult := nvw.tab1.N / vw.tab1.N
	cur := make([]uint64, mult)
	for g := gLo; g < gHi; g++ {
		for i := range cur {
			cur[i] = 0
		}
		winBase := g * mult // first destination group of old group g
		lo, hi := g*t.gsz, (g+1)*t.gsz
		for _, cells := range [2]*hashtab.Cells{&vw.tab1, &vw.tab2} {
			for i := lo; i < hi; i++ {
				if cells.Occupied(i) {
					if !t.placeRehash(nvw, cells.Key(i), cells.Value(i), winBase, cur) {
						return false
					}
				}
			}
		}
	}
	return true
}

// placeRehash places one migrated item into nvw: the level-1 home if
// free, else the matching level-2 group's fill cursor — the exact cell
// the generic first-empty scan would pick, located without the scan
// (destination groups fill left to right with no deletes in between).
// cur[i] is the fill of destination group winBase+i.
func (t *Table) placeRehash(nvw *view, k layout.Key, v uint64, winBase uint64, cur []uint64) bool {
	i1 := nvw.h.Index(k.Lo, k.Hi)
	if !nvw.tab1.Occupied(i1) {
		nvw.tab1.InsertAt(i1, k, v)
		return true
	}
	g := i1/t.gsz - winBase
	c := cur[g]
	if c >= t.gsz {
		return false
	}
	j := (winBase+g)*t.gsz + c
	nvw.tab2.InsertAt(j, k, v)
	if nvw.fp != nil {
		nvw.fpStore(j, t.fpTag(k))
	}
	cur[g] = c + 1
	return true
}

// commitRoots publishes the new view: its roots go to the inactive
// header slot (persisted), then the 8-byte slot word flips atomically —
// the durable commit point — and the in-DRAM view pointer is swapped so
// subsequent operations address the new arrays. Finally the replaced
// view is retired. Nothing writes it again: sequential callers own the
// table, and the online flip holds every stripe. A seqlock reader still
// probing it reads zeros and retries, because the stripe locks the flip
// took moved its version.
func (t *Table) commitRoots(nvw *view) {
	old := t.cur()
	slotAddr := t.hdr + hdrSlot*layout.WordSize
	cur := t.mem.Read8(slotAddr)
	next := 1 - cur
	base := uint64(hdrSlot0)
	if next == 1 {
		base = hdrSlot1
	}
	w := func(i uint64, v uint64) { t.mem.Write8(t.hdr+(base+i)*layout.WordSize, v) }
	w(0, nvw.tab1.Base)
	w(1, nvw.tab2.Base)
	w(2, nvw.tab1.N)
	t.mem.Persist(t.hdr+base*layout.WordSize, 3*layout.WordSize)
	t.mem.AtomicWrite8(slotAddr, next)
	t.mem.Persist(slotAddr, layout.WordSize)
	t.vp.Store(nvw)
	t.retire(old)
}

// retire frees a view's cell arrays on reclaiming backends.
func (t *Table) retire(vw *view) {
	if rec, ok := t.mem.(hashtab.Reclaimer); ok {
		for _, cells := range [2]*hashtab.Cells{&vw.tab1, &vw.tab2} {
			rec.Free(cells.Base, cells.N*t.l.CellSize())
		}
	}
}

// InsertAutoExpand inserts (k, v), expanding the table as needed. It is
// the convenience entry point a key-value store would use.
func (t *Table) InsertAutoExpand(k layout.Key, v uint64) error {
	err := t.Insert(k, v)
	if err != hashtab.ErrTableFull {
		return err
	}
	if err := t.Expand(); err != nil {
		return err
	}
	return t.Insert(k, v)
}
