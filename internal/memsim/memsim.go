// Package memsim glues the NVM region model (internal/nvm) and the CPU
// cache simulator (internal/cache) into the single Memory front-end that
// every hash-table implementation in this repository is written against.
//
// All loads and stores issued through a Memory:
//
//   - are routed through the simulated cache hierarchy, producing the
//     hit/miss stream behind the paper's L3-miss figures;
//   - advance a simulated clock according to a configurable latency
//     model (cache-level hit latencies, NVM read latency, the paper's
//     300 ns extra NVM write latency charged per flushed dirty line,
//     and fence cost) — this clock is the "request latency" the paper
//     reports;
//   - keep the nvm.Region's persistence bookkeeping in sync with the
//     cache contents, so that a simulated crash exposes exactly the
//     states a real write-back cache over NVM could expose.
//
// The package also provides a trivial bump allocator so that a table and
// its write-ahead log can share one persistent region, as they would
// share one PMFS mapping in the paper's setup.
package memsim

import (
	"fmt"

	"grouphash/internal/cache"
	"grouphash/internal/nvm"
)

// LatencyModel holds the timing parameters of the simulated machine, in
// nanoseconds. The defaults (DefaultLatency) follow the paper's Table 2
// setup: NVM read latency comparable to DRAM, and writes penalised by an
// extra 300 ns charged when a dirty cacheline is flushed — the paper's
// own emulation method ("we only emulate NVM's slower writes ... by
// adding extra latency after a clflush instruction").
type LatencyModel struct {
	L1Hit   float64 // load/store serviced by L1
	L2Hit   float64 // serviced by L2
	L3Hit   float64 // serviced by L3
	MemRead float64 // line fill from NVM (read latency ~ DRAM)

	FlushBase     float64 // cost of executing clflush itself
	NVMWriteExtra float64 // extra write latency per flushed dirty line (paper: 300)
	Fence         float64 // cost of mfence
}

// DefaultLatency returns the latency model used throughout the
// reproduction. Hit latencies approximate a 2 GHz Sandy Bridge Xeon.
func DefaultLatency() LatencyModel {
	return LatencyModel{
		L1Hit:         1.5,
		L2Hit:         6,
		L3Hit:         16,
		MemRead:       85,
		FlushBase:     40,
		NVMWriteExtra: 300,
		Fence:         8,
	}
}

// Counters is a snapshot of the cumulative event counters of a Memory.
// Subtracting two snapshots yields per-phase or per-operation costs.
type Counters struct {
	ClockNs  float64 // simulated time
	Accesses uint64  // demand loads+stores (per cacheline touched)
	L1Misses uint64
	L2Misses uint64
	L3Misses uint64 // the paper's cache-efficiency metric
	Flushes  uint64 // clflush instructions executed
	Fences   uint64 // mfence instructions executed
	NVM      nvm.Stats
}

// Sub returns c - o field-wise.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		ClockNs:  c.ClockNs - o.ClockNs,
		Accesses: c.Accesses - o.Accesses,
		L1Misses: c.L1Misses - o.L1Misses,
		L2Misses: c.L2Misses - o.L2Misses,
		L3Misses: c.L3Misses - o.L3Misses,
		Flushes:  c.Flushes - o.Flushes,
		Fences:   c.Fences - o.Fences,
		NVM: nvm.Stats{
			Stores:         c.NVM.Stores - o.NVM.Stores,
			WordsDirtied:   c.NVM.WordsDirtied - o.NVM.WordsDirtied,
			WordsPersisted: c.NVM.WordsPersisted - o.NVM.WordsPersisted,
			WordsEvicted:   c.NVM.WordsEvicted - o.NVM.WordsEvicted,
			AtomicStores:   c.NVM.AtomicStores - o.NVM.AtomicStores,
		},
	}
}

// Memory is the persistent-memory system handed to the hash tables.
// It is not safe for concurrent use; concurrent table variants serialise
// access with their own locking.
type Memory struct {
	region *nvm.Region
	hier   *cache.Hierarchy
	lat    LatencyModel

	clock    float64
	accesses uint64
	flushes  uint64
	fences   uint64

	// Stream detector for the modelled next-line prefetcher.
	prefetch bool
	lastLine uint64
	hasLast  bool

	// Shadow-crash scheduling (see ScheduleShadowCrash).
	crashAt       uint64
	crashSurvival float64
	crashArmed    bool
	shadow        []byte

	next uint64 // bump-allocation watermark
}

// Config assembles the pieces of a simulated machine.
type Config struct {
	Size    uint64           // region size in bytes
	Seed    int64            // crash-injection seed
	Geoms   []cache.Geometry // nil means cache.PaperGeometry()
	Latency *LatencyModel    // nil means DefaultLatency()
	// DisablePrefetch turns off the modelled L2 streamer prefetcher.
	// Real Xeons prefetch the next line of a sequential access stream;
	// the group-sharing cache argument of the paper (contiguous
	// collision cells are cheap to scan) depends on it, so it is on by
	// default. Ablation benches switch it off.
	DisablePrefetch bool
}

// New builds a Memory over a fresh region.
func New(cfg Config) *Memory {
	geoms := cfg.Geoms
	if geoms == nil {
		geoms = cache.PaperGeometry()
	}
	lat := DefaultLatency()
	if cfg.Latency != nil {
		lat = *cfg.Latency
	}
	m := &Memory{
		region:   nvm.NewRegion(cfg.Size, cfg.Seed),
		lat:      lat,
		prefetch: !cfg.DisablePrefetch,
	}
	// A dirty line that leaves the hierarchy is written back to the
	// region. Background traffic: it persists silently, with no latency
	// charged to the requesting operation (the memory controller drains
	// it asynchronously).
	m.hier = cache.NewHierarchy(geoms, func(line uint64) {
		m.region.Evict(line<<cache.LineShift, cache.LineSize)
	})
	return m
}

// Region exposes the underlying NVM region (verification tooling only;
// going around the cache model invalidates latency accounting).
func (m *Memory) Region() *nvm.Region { return m.region }

// Hierarchy exposes the cache model (statistics and tests).
func (m *Memory) Hierarchy() *cache.Hierarchy { return m.hier }

// Size returns the region size in bytes.
func (m *Memory) Size() uint64 { return m.region.Size() }

// Alloc reserves size bytes aligned to align (a power of two) from the
// region using a bump allocator and returns the offset. It panics when
// the region is exhausted — allocation failures are programming errors
// in experiment sizing, not runtime conditions.
func (m *Memory) Alloc(size, align uint64) uint64 {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("memsim: alignment %d is not a power of two", align))
	}
	addr := (m.next + align - 1) &^ (align - 1)
	if addr+size > m.region.Size() || addr+size < addr {
		panic(fmt.Sprintf("memsim: out of space allocating %d bytes (used %d of %d)", size, m.next, m.region.Size()))
	}
	m.next = addr + size
	return addr
}

// Allocated returns the current bump watermark.
func (m *Memory) Allocated() uint64 { return m.next }

// SetAllocated restores the bump watermark when a persisted image is
// reloaded (the image's structures already occupy [0, next)).
func (m *Memory) SetAllocated(next uint64) {
	if next > m.region.Size() {
		panic(fmt.Sprintf("memsim: watermark %d beyond region of %d bytes", next, m.region.Size()))
	}
	m.next = next
}

// access charges one demand access to the line containing addr; any
// write-backs that fall out of the LLC reach the region on the way.
func (m *Memory) access(addr uint64, write bool) {
	m.accesses++
	if m.crashArmed && m.accesses >= m.crashAt && m.shadow == nil {
		m.shadow = m.region.SnapshotPersisted(m.crashSurvival)
	}
	lvl := m.hier.Access(addr, write)
	switch lvl {
	case cache.L1:
		m.clock += m.lat.L1Hit
	case cache.L2:
		m.clock += m.lat.L2Hit
	case cache.L3:
		m.clock += m.lat.L3Hit
	default:
		m.clock += m.lat.MemRead
	}

	// Next-line prefetcher: every demand miss pulls the following line
	// into L2 in the background, and an ascending line-to-line stride
	// keeps the stream running. This is what makes the contiguous
	// group scan cheap, as the paper argues ("a single memory access
	// can prefetch the following cells"), while path hashing's level
	// jumps get no benefit.
	if m.prefetch {
		line := addr >> cache.LineShift
		sequential := m.hasLast && line == m.lastLine+1
		if lvl == cache.Memory || sequential {
			next := (line + 1) << cache.LineShift
			if next+cache.LineSize <= m.region.Size() {
				m.hier.Prefetch(next)
			}
		}
		m.lastLine = line
		m.hasLast = true
	}
}

// Read8 loads the aligned 8-byte word at addr.
func (m *Memory) Read8(addr uint64) uint64 {
	m.access(addr, false)
	return m.region.Load8(addr)
}

// Write8 stores an aligned 8-byte word. Durable only after Persist.
func (m *Memory) Write8(addr, val uint64) {
	m.region.Store8(addr, val)
	m.access(addr, true)
}

// AtomicWrite8 stores an aligned 8-byte word with failure atomicity —
// the commit primitive of the paper's consistency protocol.
func (m *Memory) AtomicWrite8(addr, val uint64) {
	m.region.AtomicStore8(addr, val)
	m.access(addr, true)
}

// Flush executes clflush on the line containing addr: the line is
// invalidated in every cache level and, if dirty, its words become
// durable. The paper's extra NVM write latency is charged here.
func (m *Memory) Flush(addr uint64) {
	m.flushes++
	line := addr &^ uint64(cache.LineSize-1)
	_, dirty := m.hier.Flush(line)
	m.clock += m.lat.FlushBase
	if dirty {
		m.clock += m.lat.NVMWriteExtra
	}
	m.region.PersistRange(line, cache.LineSize)
}

// Fence executes mfence, ordering preceding flushes before subsequent
// stores. In this model flushes complete synchronously, so Fence only
// charges time and counts the instruction.
func (m *Memory) Fence() {
	m.fences++
	m.clock += m.lat.Fence
}

// Persist makes [addr, addr+n) durable: clflush every covered line,
// then mfence — the paper's "persist" primitive (§3.3).
func (m *Memory) Persist(addr, n uint64) {
	if n == 0 {
		return
	}
	first := addr &^ uint64(cache.LineSize-1)
	last := (addr + n - 1) &^ uint64(cache.LineSize-1)
	for line := first; line <= last; line += cache.LineSize {
		m.Flush(line)
	}
	m.Fence()
}

// Clock returns the simulated time in nanoseconds.
func (m *Memory) Clock() float64 { return m.clock }

// Counters snapshots all cumulative counters.
func (m *Memory) Counters() Counters {
	ls := m.hier.Levels()
	c := Counters{
		ClockNs:  m.clock,
		Accesses: m.accesses,
		Flushes:  m.flushes,
		Fences:   m.fences,
		NVM:      m.region.Stats(),
	}
	if len(ls) > 0 {
		c.L1Misses = ls[0].Stats().Misses
	}
	if len(ls) > 1 {
		c.L2Misses = ls[1].Stats().Misses
	}
	if len(ls) > 2 {
		c.L3Misses = ls[2].Stats().Misses
	}
	return c
}

// Crash simulates a power failure: the cache hierarchy's contents are
// lost, and each un-persisted dirty word independently survives with
// probability survivalProb (see nvm.Region.Crash). After Crash the
// volatile image equals the legal post-failure NVM image; recovery code
// can run against the same Memory.
func (m *Memory) Crash(survivalProb float64) nvm.CrashOutcome {
	m.hier.InvalidateAll()
	m.hasLast = false
	return m.region.Crash(survivalProb)
}

// ScheduleShadowCrash arms a crash at an exact memory-event index:
// when the cumulative access counter reaches afterAccesses, a legal
// post-failure image is captured (each then-dirty word independently
// survives with probability survivalProb). The running operation
// continues unharmed; calling AdoptShadowCrash afterwards replaces the
// region with the captured image, completing the crash. This is how
// the crash-point tests cut operations at EVERY internal step without
// needing to unwind Go control flow mid-call.
func (m *Memory) ScheduleShadowCrash(afterAccesses uint64, survivalProb float64) {
	m.crashAt = afterAccesses
	m.crashSurvival = survivalProb
	m.crashArmed = true
	m.shadow = nil
}

// AdoptShadowCrash completes a scheduled shadow crash: the region is
// replaced by the image captured at the trigger point and the caches
// are invalidated. It reports whether a trigger had fired; false means
// the access counter never reached the scheduled point (no crash).
func (m *Memory) AdoptShadowCrash() bool {
	m.crashArmed = false
	if m.shadow == nil {
		return false
	}
	m.region.Restore(m.shadow)
	m.shadow = nil
	m.hier.InvalidateAll()
	m.hasLast = false
	return true
}

// CleanShutdown writes back every dirty line and persists everything,
// modelling an orderly stop.
func (m *Memory) CleanShutdown() {
	for _, line := range m.hier.FlushAll() {
		m.region.Evict(line<<cache.LineShift, cache.LineSize)
	}
	m.region.PersistAll()
}

// DropCaches invalidates the cache hierarchy after writing dirty lines
// back, modelling a cold cache without losing persistence state. Used
// between experiment phases so each phase starts from a comparable
// state.
func (m *Memory) DropCaches() {
	for _, line := range m.hier.FlushAll() {
		m.region.Evict(line<<cache.LineShift, cache.LineSize)
	}
}
