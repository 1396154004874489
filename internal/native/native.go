// Package native provides a plain in-process implementation of the
// hashtab.Mem interface: a flat word buffer with no cache simulation, no
// latency model and no crash injection. Persist calls are no-ops.
//
// This backend exists for two reasons:
//
//   - real-throughput benchmarks: testing.B benches over native memory
//     measure the Go-level cost of the algorithms themselves, separate
//     from the simulated machine;
//   - the concurrent table variant, which would be meaningless on the
//     single-clock simulator.
//
// Every word access is an atomic load or store (the Mem interface is
// word-granular, so the backing store is word arrays and atomics cost
// the same as plain moves on mainstream hardware). That makes this
// backend safe for the seqlock-style optimistic read protocol of
// core.Concurrent: readers may call Read8 with no lock held while
// writers store concurrently, with no torn words and no race-detector
// reports. The marker method ConcurrentReadSafe advertises the
// property.
//
// Storage is PAGED: the buffer is a table of 1 MiB pages (the pmfs
// image format's page), and growth appends pages without ever moving
// existing ones. Addresses are therefore stable for the lifetime of
// the memory, which is what lets Alloc run concurrently with lock-free
// readers and locked writers — the property online table expansion
// depends on (the expansion coordinator allocates the new cell arrays
// while other goroutines keep probing the old ones). The page table
// itself is swapped atomically on every change (copy-on-write of the
// page POINTERS only), so a reader holding an old table still reaches
// every address that existed when it loaded it.
//
// Free hands a retired range back: its bytes read as zero from then
// on, and every page the freed ranges cover wholly is dropped — its
// slot in the page table points at one shared, never-written zero
// page, so the garbage collector reclaims the page itself. A page
// straddling two freed ranges goes once both are freed; a page that
// still holds live bytes stays. The bump allocator never hands freed
// addresses out again, so freed pages never come back and live pages
// still never move. Capture copies only the live pages, and Restore
// rebuilds a memory, freed ranges included, from such an image.
//
// Alloc, Release and Free serialize on an internal lock, but Mark and
// Release still assume one allocating goroutine at a time (a Release
// rewinds every allocation made since its Mark); in practice
// allocation only happens at table creation and inside a single
// expansion coordinator.
//
// On a machine with real persistent memory, this backend is also the
// template for an mmap-backed region: the algorithms above it already
// issue stores and persist barriers in the correct order, so only Persist
// would need to become a real CLWB+SFENCE sequence.
package native

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"grouphash/internal/pmfs"
)

// Page geometry: the pmfs image page, 1 MiB, keeps the page table tiny
// (one pointer per MiB) while bounding the over-allocation of small
// memories, and lets a capture copy pages whole.
const (
	pageShift = pmfs.PageShift
	pageBytes = pmfs.PageBytes
	pageWords = pmfs.PageWords
)

// page is one fixed-size block of words. Pages never move once
// allocated.
type page [pageWords]uint64

// zeroPage backs every wholly freed page of every memory. It is never
// written (Write8 refuses it), so it reads as zeros forever.
var zeroPage page

// Memory is a volatile hashtab.Mem backend. Word reads and writes are
// individually atomic and may run concurrently with each other and with
// Alloc and Free; compound multi-word operations still require the
// callers' locking, which the concurrent table wrapper provides.
type Memory struct {
	pages atomic.Pointer[[]*page]
	next  atomic.Uint64 // bump-allocator watermark
	size  atomic.Uint64 // reported Size (requested, word-rounded; grows with Alloc)

	mu         sync.Mutex    // serializes Alloc, Release, Free and Restore
	freed      []pmfs.Extent // freed ranges, sorted and disjoint
	freedPages atomic.Uint64 // pages pointing at zeroPage
}

// New creates a native memory of the given size in bytes.
func New(size uint64) *Memory {
	size = (size + 7) &^ 7
	m := &Memory{}
	pt := makePages(nil, (size+pageBytes-1)/pageBytes)
	m.pages.Store(&pt)
	m.size.Store(size)
	return m
}

// makePages returns a page table of n pages that shares old's pages and
// appends fresh zeroed ones.
func makePages(old []*page, n uint64) []*page {
	pt := make([]*page, n)
	copy(pt, old)
	for i := len(old); i < len(pt); i++ {
		pt[i] = new(page)
	}
	return pt
}

// Size returns the buffer size in bytes.
func (m *Memory) Size() uint64 { return m.size.Load() }

// locate returns the page holding addr and the word's index in it,
// panicking on misaligned or out-of-range addresses. Bounds are
// page-granular: the slack of the last page of a small memory is
// addressable, like the tail of a real mmap region.
func (m *Memory) locate(addr uint64) (*page, uint64) {
	if addr%8 != 0 {
		panic(fmt.Sprintf("native: misaligned access at %d", addr))
	}
	pt := *m.pages.Load()
	pi := addr >> pageShift
	if pi >= uint64(len(pt)) {
		panic(fmt.Sprintf("native: access at %d out of range of %d-byte memory", addr, uint64(len(pt))*pageBytes))
	}
	return pt[pi], (addr & (pageBytes - 1)) >> 3
}

// ConcurrentReadSafe marks this backend as supporting lock-free
// concurrent word reads (see hashtab.ConcurrentReader): every Read8 and
// Write8 is an atomic word operation, so optimistic readers never
// observe a torn word and never trip the race detector.
func (m *Memory) ConcurrentReadSafe() {}

// Read8 loads an aligned 8-byte word. A freed address reads as zero.
func (m *Memory) Read8(addr uint64) uint64 {
	p, i := m.locate(addr)
	return atomic.LoadUint64(&p[i])
}

// Write8 stores an aligned 8-byte word, panicking on a wholly freed
// page: nothing may write memory it handed back.
func (m *Memory) Write8(addr, val uint64) {
	p, i := m.locate(addr)
	if p == &zeroPage {
		panic(fmt.Sprintf("native: write at %d to a freed page", addr))
	}
	atomic.StoreUint64(&p[i], val)
}

// AtomicWrite8 stores an aligned 8-byte word; on this backend every
// word store is atomic, so it is the same as Write8.
func (m *Memory) AtomicWrite8(addr, val uint64) { m.Write8(addr, val) }

// Persist is a no-op: native memory has no persistence domain.
func (m *Memory) Persist(addr, n uint64) {}

// Allocated returns the allocator watermark: every address handed out
// by Alloc lies below it.
func (m *Memory) Allocated() uint64 { return m.next.Load() }

// Live returns the bytes the memory holds: the watermark less the
// pages Free dropped. It is what the store's allocated-bytes gauge
// reports, and the body size of a Capture's image.
func (m *Memory) Live() uint64 { return m.next.Load() - m.freedPages.Load()*pageBytes }

// Mark returns the current allocation watermark, a point Release can
// later rewind to. Part of the hashtab.Reclaimer contract.
func (m *Memory) Mark() uint64 { return m.next.Load() }

// Release rewinds the allocator to a watermark previously returned by
// Mark, reclaiming every allocation made since. The released range is
// zeroed, so a future Alloc over it sees fresh memory (the invariant
// NewCells relies on). The caller must guarantee nothing reachable
// still points into the released range, and nothing in it may have
// been freed: Release panics rather than rewind over freed memory.
// Part of hashtab.Reclaimer.
func (m *Memory) Release(mark uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := m.next.Load()
	if mark > next {
		panic(fmt.Sprintf("native: Release(%d) above the watermark %d", mark, next))
	}
	if n := len(m.freed); n > 0 && m.freed[n-1].End() > mark {
		panic(fmt.Sprintf("native: Release(%d) would rewind over memory freed up to %d", mark, m.freed[n-1].End()))
	}
	for a := mark &^ 7; a < next; a += 8 {
		m.Write8(a, 0)
	}
	m.next.Store(mark)
}

// Free hands the allocated range [addr, addr+n) back: its whole words
// read as zero from now on, and every page that freed ranges now cover
// wholly is dropped. The caller must guarantee that nothing writes the
// range again; lock-free readers may still probe it and read zeros (or,
// through a page table loaded before the Free, the old contents).
// Freeing a range twice, or past the watermark, panics. Part of
// hashtab.Reclaimer.
func (m *Memory) Free(addr, n uint64) {
	if n == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	end := addr + n
	if end < addr || end > m.next.Load() {
		panic(fmt.Sprintf("native: Free [%d, %d) past the watermark %d", addr, end, m.next.Load()))
	}
	i := sort.Search(len(m.freed), func(j int) bool { return m.freed[j].End() > addr })
	if i < len(m.freed) && m.freed[i].Addr < end {
		panic(fmt.Sprintf("native: Free [%d, %d) overlaps freed [%d, %d)", addr, end, m.freed[i].Addr, m.freed[i].End()))
	}
	// Zero what stays mapped, then drop the pages the freed ranges now
	// cover wholly (FreedPages joins adjacent ranges, so a page shared
	// with an earlier free goes too).
	for a := (addr + 7) &^ 7; a+8 <= end; a += 8 {
		if a&(pageBytes-1) == 0 && end-a >= pageBytes {
			a += pageBytes - 8 // a whole page: dropped below, not zeroed
			continue
		}
		m.Write8(a, 0)
	}
	m.freed = slices.Insert(m.freed, i, pmfs.Extent{Addr: addr, Len: n})
	pt := slices.Clone(*m.pages.Load())
	m.dropFreed(pt)
	m.pages.Store(&pt)
}

// dropFreed points every page of pt that the freed ranges cover wholly
// at zeroPage, counting the pages it drops.
func (m *Memory) dropFreed(pt []*page) {
	pmfs.FreedPages(m.freed, func(first, end uint64) {
		for p := first; p < end; p++ {
			if pt[p] != &zeroPage {
				pt[p] = &zeroPage
				m.freedPages.Add(1)
			}
		}
	})
}

// Capture copies the memory's live content into an image: the
// watermark, the freed ranges, and one copy of every page below the
// watermark that is not wholly freed, found by one walk of the page
// table. Words are copied with atomic loads, so a Capture taken while
// lock-free readers probe is race-free; the caller must still exclude
// WRITERS (e.g. via Concurrent.Quiesce) for the image to be a
// consistent cut. Root and Mark are left for the caller.
func (m *Memory) Capture() *pmfs.Image {
	m.mu.Lock()
	next := m.next.Load()
	pt := *m.pages.Load()
	img := &pmfs.Image{Size: next, Allocated: next, Freed: slices.Clone(m.freed)}
	m.mu.Unlock()
	for _, p := range pt[:(next+pageBytes-1)/pageBytes] {
		if p == &zeroPage {
			continue
		}
		cp := new(page)
		for i := range cp {
			cp[i] = atomic.LoadUint64(&p[i])
		}
		img.Pages = append(img.Pages, cp[:])
	}
	return img
}

// Restore replaces the memory's contents with img — pages, watermark
// and freed ranges — taking ownership of img's pages (they become the
// memory's own, so restore an image once). Not safe to run
// concurrently with any other access; intended for rebuilding a memory
// at load time. img must be a valid image: one that pmfs.LoadImage
// returned or Capture produced.
func (m *Memory) Restore(img *pmfs.Image) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pt := make([]*page, (img.Size+pageBytes-1)/pageBytes)
	m.freed = slices.Clone(img.Freed)
	m.freedPages.Store(0)
	m.dropFreed(pt)
	live := img.Pages
	for p := range pt {
		if pt[p] == nil {
			pt[p] = (*page)(live[0])
			live = live[1:]
		}
	}
	m.pages.Store(&pt)
	m.next.Store(img.Allocated)
	m.size.Store(img.Size)
}

// grow ensures the page table covers [0, limit), appending fresh pages
// (and publishing the new table atomically) when it does not. Existing
// pages never move, so concurrent readers of existing addresses stay
// valid throughout. Called with mu held.
func (m *Memory) grow(limit uint64) {
	pt := *m.pages.Load()
	need := (limit + pageBytes - 1) / pageBytes
	if need <= uint64(len(pt)) {
		return
	}
	grown := makePages(pt, need)
	m.pages.Store(&grown)
	if bytes := need * pageBytes; bytes > m.size.Load() {
		m.size.Store(bytes)
	}
}

// Alloc reserves size bytes at the given power-of-two alignment. Unlike
// the fixed-size simulated NVM region, native memory models ordinary
// process memory: pages are appended on demand, so repeated table
// expansions never exhaust it. Growth never moves existing pages, so
// reads and writes of already-allocated addresses may proceed
// concurrently with Alloc.
func (m *Memory) Alloc(size, align uint64) uint64 {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("native: alignment %d is not a power of two", align))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	next := m.next.Load()
	addr := (next + align - 1) &^ (align - 1)
	if addr+size < addr {
		panic(fmt.Sprintf("native: allocation of %d bytes overflows the address space", size))
	}
	m.grow(addr + size)
	// Publish the watermark only after the pages exist: a concurrent
	// Capture sizing itself by the watermark must find every page.
	m.next.Store(addr + size)
	return addr
}
