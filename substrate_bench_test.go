// Substrate microbenchmarks: the BenchmarkSubstrate* family isolates the
// cost of each simulation layer — dirty-word tracking in the NVM region,
// the cache model's hit and miss paths and its construction, and the
// full memsim stack — plus a fixed group-table trace, so substrate
// regressions show up as wall-clock deltas here rather than as
// mysterious slowdowns in the figure harness.
//
// BenchmarkSubstrateTrackerPaged vs BenchmarkSubstrateTrackerMap replays
// one identical store/persist/evict/scan sequence against the production
// paged tracker and against a faithful reimplementation of the seed's
// map[uint64]uint64 tracker (kept here as a test-only baseline after its
// removal from internal/nvm). The paged structure's advantage is the
// point of the rewrite; measured numbers are recorded in README.md.
package grouphash_test

import (
	"encoding/binary"
	"testing"

	"grouphash/internal/cache"
	"grouphash/internal/memsim"
	"grouphash/internal/nvm"
)

// trackerMem abstracts the two dirty-tracking implementations under one
// replayable op surface.
type trackerMem interface {
	store8(addr, val uint64)
	persistRange(addr, n uint64) int
	evict(addr, n uint64) int
	dirtyInRange(addr, n uint64) int
}

// pagedTracker adapts the production nvm.Region.
type pagedTracker struct{ r *nvm.Region }

func (p pagedTracker) store8(addr, val uint64)         { p.r.Store8(addr, val) }
func (p pagedTracker) persistRange(addr, n uint64) int { return p.r.PersistRange(addr, n) }
func (p pagedTracker) evict(addr, n uint64) int        { return p.r.Evict(addr, n) }
func (p pagedTracker) dirtyInRange(addr, n uint64) int { return p.r.DirtyInRange(addr, n) }

// mapTracker reimplements the seed's dirty-word tracking: one map entry
// per dirty word holding the persisted (old) value, with per-word map
// probes on every store, persist, eviction and scan.
type mapTracker struct {
	cur []byte
	old map[uint64]uint64
}

func newMapTracker(size uint64) *mapTracker {
	return &mapTracker{cur: make([]byte, size), old: make(map[uint64]uint64)}
}

func (m *mapTracker) store8(addr, val uint64) {
	if _, dirty := m.old[addr]; !dirty {
		m.old[addr] = binary.LittleEndian.Uint64(m.cur[addr : addr+8])
	}
	binary.LittleEndian.PutUint64(m.cur[addr:addr+8], val)
}

func (m *mapTracker) persistRange(addr, n uint64) int {
	first := addr &^ 7
	last := (addr + n - 1) &^ 7
	persisted := 0
	for w := first; w <= last; w += 8 {
		if _, dirty := m.old[w]; dirty {
			delete(m.old, w)
			persisted++
		}
	}
	return persisted
}

func (m *mapTracker) evict(addr, n uint64) int { return m.persistRange(addr, n) }

func (m *mapTracker) dirtyInRange(addr, n uint64) int {
	first := addr &^ 7
	last := (addr + n - 1) &^ 7
	dirty := 0
	for w := first; w <= last; w += 8 {
		if _, ok := m.old[w]; ok {
			dirty++
		}
	}
	return dirty
}

// replayTrackerOps drives one deterministic protocol-shaped sequence:
// a few word stores into a cacheline followed by a line persist (the
// table's commit pattern), a scatter of un-persisted stores, periodic
// line evictions, and dirty-range scans — the exact op mix the memsim
// layer issues. Returns a checksum so the compiler cannot elide work
// and so both trackers can be cross-checked for identical semantics.
func replayTrackerOps(t trackerMem, size uint64, rounds int) int {
	sum := 0
	x := uint64(88172645463325252)
	next := func() uint64 { // xorshift64: cheap, deterministic
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < rounds; i++ {
		// Commit pattern: 3 stores in one line, then persist the line.
		line := (next() % size) &^ 63
		t.store8(line, next())
		t.store8(line+8, next())
		t.store8(line+48, next())
		sum += t.persistRange(line, 64)
		// Background dirt: un-persisted scattered store.
		t.store8((next()%size)&^7, next())
		// Every few rounds the cache model evicts a line; the crash and
		// verification tooling periodically scans dirty state over page-
		// and segment-sized spans (DirtyInRange), where the per-word map
		// probe of the old tracker was most painful.
		if i%8 == 0 {
			sum += t.evict((next()%size)&^63, 64)
		}
		if i%16 == 0 {
			base := (next() % (size - 4096)) &^ 7
			sum += t.dirtyInRange(base, 4096)
		}
		if i%256 == 0 {
			base := (next() % (size - 65536)) &^ 7
			sum += t.dirtyInRange(base, 65536)
		}
	}
	return sum
}

const trackerBenchSize = 1 << 24 // 16 MiB region, paper-order table size

// BenchmarkSubstrateTrackerPaged measures the production paged
// dirty-word tracker on the protocol-shaped op mix.
func BenchmarkSubstrateTrackerPaged(b *testing.B) {
	r := nvm.NewRegion(trackerBenchSize, 1)
	tr := pagedTracker{r}
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += replayTrackerOps(tr, trackerBenchSize, 4096)
	}
	if sum < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkSubstrateTrackerMap measures the seed's map-based tracker
// (test-only baseline) on the identical op mix.
func BenchmarkSubstrateTrackerMap(b *testing.B) {
	m := newMapTracker(trackerBenchSize)
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += replayTrackerOps(m, trackerBenchSize, 4096)
	}
	if sum < 0 {
		b.Fatal("impossible")
	}
}

// TestTrackerSemanticsMatch cross-checks the test-only map baseline
// against the production region on the benchmark op mix: identical
// persisted/evicted/dirty counts at every step (the checksums fold all
// of them in), so the benchmark pair really measures the same work.
func TestTrackerSemanticsMatch(t *testing.T) {
	r := nvm.NewRegion(1<<20, 1)
	m := newMapTracker(1 << 20)
	a := replayTrackerOps(pagedTracker{r}, 1<<20, 20000)
	b := replayTrackerOps(m, 1<<20, 20000)
	if a != b {
		t.Fatalf("paged tracker checksum %d != map tracker checksum %d", a, b)
	}
	if r.DirtyWords() != len(m.old) {
		t.Fatalf("dirty words: paged %d, map %d", r.DirtyWords(), len(m.old))
	}
}

// BenchmarkSubstrateRegionStorePersist is the tightest protocol loop on
// the raw region: store a word, persist its line — the per-item inner
// cost of every scheme in the repo.
func BenchmarkSubstrateRegionStorePersist(b *testing.B) {
	r := nvm.NewRegion(1<<24, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := (uint64(i) * 2654435761) % (1 << 24) &^ 7
		r.Store8(addr, uint64(i))
		r.PersistRange(addr&^63, 64)
	}
}

// BenchmarkSubstrateCacheHit measures the hierarchy's hit path on a hot
// working set that fits in L1 — dominated by the MRU fast path.
func BenchmarkSubstrateCacheHit(b *testing.B) {
	h := cache.NewHierarchy(cache.SmallGeometry(), nil)
	for a := uint64(0); a < 2048; a += 64 {
		h.Access(a, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i%2048)&^7, i%4 == 0)
	}
}

// BenchmarkSubstrateCacheMiss measures the hierarchy on the paper's
// geometry over a working set four times its L3 — the miss, fill and
// eviction path the figures take, where BenchmarkSubstrateCacheHit
// stays in L1: random lines over 64 MiB, a quarter of the accesses
// writes, and every 16th access followed by a clflush of its line.
func BenchmarkSubstrateCacheMiss(b *testing.B) {
	h := cache.NewHierarchy(cache.PaperGeometry(), nil)
	const span = 64 << 20
	x := uint64(88172645463325252)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := x % span &^ 7
		h.Access(addr, i%4 == 0)
		if i%16 == 15 {
			h.Flush(addr)
		}
	}
}

// BenchmarkSubstrateNewHierarchy measures building the paper-geometry
// hierarchy, which every simulated machine (every figure cell) does.
func BenchmarkSubstrateNewHierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if cache.NewHierarchy(cache.PaperGeometry(), nil) == nil {
			b.Fatal("nil hierarchy")
		}
	}
}

// BenchmarkSubstrateMemsimWrite measures the full simulated-machine
// stack (cache model + latency model + region) on a write+persist loop.
func BenchmarkSubstrateMemsimWrite(b *testing.B) {
	mem := memsim.New(memsim.Config{Size: 1 << 24, Seed: 1, Geoms: cache.SmallGeometry()})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := (uint64(i) * 2654435761) % mem.Size() &^ 7
		mem.Write8(addr, uint64(i))
		mem.Persist(addr, 8)
	}
}

// BenchmarkSubstrateTraceReplay runs the fixed insert/lookup/delete
// group-table trace from substrate_test.go end to end — the integration
// number: simulated-machine wall-clock per simulated operation. The
// sim-ns/op metric reports how much simulated time one trace costs, a
// sanity anchor that the fast paths did not change modelled latency.
func BenchmarkSubstrateTraceReplay(b *testing.B) {
	var last memsim.Counters
	for i := 0; i < b.N; i++ {
		last = replaySubstrateTrace(1<<14, 3000)
	}
	b.ReportMetric(last.ClockNs/float64(last.Accesses), "sim-ns/access")
}
