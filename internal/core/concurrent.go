package core

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
)

// Concurrent wraps a Table with per-group striped locking, an extension
// beyond the (single-threaded) paper. Group sharing gives a natural
// concurrency unit: an operation on key k touches only its level-1 cell
// and the matching level-2 group, both inside group g = h(k)/group_size,
// so operations on different groups never conflict.
//
// Writes take the stripe lock exclusively. Reads use a seqlock-style
// optimistic protocol when the backend allows it (see Lookup): each
// stripe carries a version counter that writers bump to odd on entry
// and back to even on exit, so a reader can probe with no lock held and
// retry if the version moved under it. On backends without atomic word
// reads (the simulator), reads fall back to the shared stripe lock.
//
// A stripe covers a CONTIGUOUS run of groups: stripe s owns groups
// [s·G/S, (s+1)·G/S) where G is the group count and S the stripe count
// (both powers of two, S ≤ G). Equivalently the stripe index is the TOP
// log2(S) bits of the group index — and because the hash function also
// takes the top bits of the hash word, doubling the table appends bits
// at the BOTTOM of every index and leaves the top bits untouched: a
// key's stripe is invariant across expansions. That invariance is what
// makes stop-less online expansion (see expand_online.go) race-free —
// a writer can pick its stripe from a momentarily stale view and still
// lock the same stripe the migration worker locks.
//
// The persistent count word is shared by all groups; it is protected by
// its own mutex, taken after the group lock (a fixed order, so no
// deadlock).
//
// Concurrent is intended for the native memory backend: the simulated
// backend has a single global clock and cache, which would serialise
// everything anyway.
type Concurrent struct {
	t       *Table
	stripes []stripe
	countMu sync.Mutex
	// optimistic enables the lock-free read path: the backend has
	// atomic word reads (hashtab.ConcurrentReader). Fixed at
	// construction.
	optimistic bool

	// Online-expansion state; see expand_online.go.
	expandOK   bool                     // EnableOnlineExpand was called
	expandMu   sync.Mutex               // serialises expansion starts
	exp        atomic.Pointer[expState] // non-nil while one is in flight
	expansions atomic.Uint64            // committed expansions
	fallbacks  atomic.Uint64            // expansions that needed the stop-the-world rebuild
	stripesMig atomic.Uint64            // stripes migrated, cumulative across expansions
	stallNanos atomic.Uint64            // total writer wall time blocked in awaitRoom

	// Test hooks. hookPreFlip runs inside finishExpansion with every
	// stripe held, just before the header-slot flip; hookStripeDone
	// runs after each stripe's migration completes; hookMigrateFail,
	// when it returns true for a stripe, makes that stripe's migration
	// report overflow (exercising the fallback rebuild). All must be
	// set before any expansion can start.
	hookPreFlip     func()
	hookStripeDone  func(si int)
	hookMigrateFail func(si int) bool
	// hookBatchRunCommitted runs after each ApplyBatch stripe-run's
	// unlock — the deterministic stripe-boundary kill point the batch
	// crash-injection tests capture at.
	hookBatchRunCommitted func(si int)
}

// stripe is one lock unit: an exclusive/shared mutex for writers and
// pessimistic readers, plus the seqlock version counter (odd = write in
// progress). Padded to a cacheline so stripes on different cores don't
// false-share.
type stripe struct {
	mu  sync.RWMutex
	seq atomic.Uint64
	_   [64 - 32]byte
}

// seqlockRetries is how many optimistic attempts a reader makes before
// falling back to the shared stripe lock. Retries only happen while a
// writer holds the same stripe, so a small budget suffices; the
// fallback guarantees progress under write storms.
const seqlockRetries = 4

// NewConcurrent wraps t. stripes is rounded up to a power of two and
// clamped to the group count; 0 means one stripe per 64 groups, capped
// at 1024.
func NewConcurrent(t *Table, stripes int) *Concurrent {
	if t.two {
		// A two-choice operation touches two groups; per-group striping
		// would need ordered two-lock acquisition. Not supported.
		panic("core: Concurrent does not support two-choice tables")
	}
	groups := int(t.Cells() / t.GroupSize())
	if stripes <= 0 {
		stripes = groups / 64
		if stripes < 1 {
			stripes = 1
		}
		if stripes > 1024 {
			stripes = 1024
		}
	}
	n := 1
	for n < stripes {
		n <<= 1
	}
	if n > groups {
		n = groups // stripe coverage must be ≥ 1 group
	}
	_, optimistic := t.mem.(hashtab.ConcurrentReader)
	return &Concurrent{
		t:          t,
		stripes:    make([]stripe, n),
		optimistic: optimistic,
	}
}

// stripeFor maps k to its stripe. The index is the top log2(S) bits of
// the group index, which the doubling expansion never changes (see the
// type comment), so the answer is correct even if the view flips
// between this call and the lock acquisition.
func (c *Concurrent) stripeFor(k layout.Key) (*stripe, int) {
	vw := c.t.cur()
	g := vw.h.Index(k.Lo, k.Hi) / c.t.gsz
	groups := vw.tab1.N / c.t.gsz
	si := int(g >> uint(bits.TrailingZeros64(groups/uint64(len(c.stripes)))))
	return &c.stripes[si], si
}

// routeView picks the view an operation on stripe si must address.
// Must be called with the stripe lock (or read lock) held: migration
// state for a stripe only changes under its lock, so the answer is
// stable for the critical section. Once a stripe has been migrated,
// its operations go EXCLUSIVELY to the new arrays — migration copied
// every live item, so the new arrays are authoritative and the old
// ones are dead weight awaiting the flip.
func (c *Concurrent) routeView(si int) *view {
	if e := c.exp.Load(); e != nil && e.migrated[si].Load() {
		return e.nvw
	}
	return c.t.cur()
}

// lock takes s exclusively and marks a write in progress (version goes
// odd). unlock publishes the write (version back to even) and releases.
func (s *stripe) lock() {
	s.mu.Lock()
	s.seq.Add(1)
}

func (s *stripe) unlock() {
	s.seq.Add(1)
	s.mu.Unlock()
}

// Lookup returns the value under k. On backends with atomic word reads
// it first runs the seqlock fast path: read the stripe version (even
// means no writer), probe with no lock held, and accept the result only
// if the version is unchanged — otherwise a concurrent writer may have
// torn the multi-word cell mid-probe, so retry. After seqlockRetries
// failed attempts it degrades to the shared stripe lock, which cannot
// starve. Word reads are individually atomic, so the probe itself never
// sees a torn word; the version check is what makes the multi-word
// (commit word + payload) read consistent.
//
// During an online expansion the expansion state and the stripe's
// migrated flag are read INSIDE the seqlock window: migration drains a
// stripe under its lock and the root flip happens with every stripe
// held, so any probe that raced either one fails version validation
// and retries.
//
// The filter counters see every attempt's group scans, retries
// included, published once when the lookup returns.
func (c *Concurrent) Lookup(k layout.Key) (uint64, bool) {
	s, si := c.stripeFor(k)
	var tl fpTally
	if c.optimistic {
		for try := 0; try < seqlockRetries; try++ {
			v1 := s.seq.Load()
			if v1&1 != 0 {
				// A writer is mid-update; yield instead of spinning.
				runtime.Gosched()
				continue
			}
			v, ok := c.t.lookupIn(c.routeView(si), k, &tl)
			if s.seq.Load() == v1 {
				c.t.publishTally(&tl)
				return v, ok
			}
		}
	}
	s.mu.RLock()
	v, ok := c.t.lookupIn(c.routeView(si), k, &tl)
	s.mu.RUnlock()
	c.t.publishTally(&tl)
	return v, ok
}

func (c *Concurrent) bumpCount(delta int64) {
	c.countMu.Lock()
	c.t.setCount(uint64(int64(c.t.Len()) + delta))
	c.countMu.Unlock()
}

// Len reads the count under the count mutex.
func (c *Concurrent) Len() uint64 {
	c.countMu.Lock()
	defer c.countMu.Unlock()
	return c.t.Len()
}

// Quiesce runs fn while every stripe is held exclusively: no mutation
// is in flight, optimistic readers observe an odd version and fall
// back to the (blocked) shared lock, and the wrapped table is
// momentarily as quiet as a single-threaded one.
// This is the snapshot hook: fn may read the entire backing memory
// (e.g. copy an image for a pmfs save) without racing any writer.
// Stripes are always taken in index order, so concurrent Quiesce calls
// cannot deadlock each other; fn must not call other methods of c
// (they would self-deadlock on the held stripes) but may use the
// wrapped Table directly.
//
// Quiesce also waits out any in-flight online expansion first — a
// snapshot taken mid-migration would capture new arrays that no header
// slot points to yet. The wait/lock sequence loops because a writer can
// trigger a fresh expansion between the wait and the last lock
// acquisition.
func (c *Concurrent) Quiesce(fn func()) {
	for {
		c.WaitExpansion()
		for i := range c.stripes {
			c.stripes[i].lock()
		}
		if c.exp.Load() == nil {
			break
		}
		// An expansion started while we were acquiring locks; let it
		// run to completion and retry.
		for i := range c.stripes {
			c.stripes[i].unlock()
		}
	}
	fn()
	for i := range c.stripes {
		c.stripes[i].unlock()
	}
}
