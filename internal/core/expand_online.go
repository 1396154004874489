package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
)

// Online, stop-less expansion for the concurrent wrapper: a coordinator
// goroutine owns the migration while writers and readers keep
// operating. The design piggybacks on two structural facts:
//
//   - The hash takes the TOP bits of the hash word, so doubling the
//     table appends index bits at the bottom: old group g maps onto the
//     disjoint new-group window [2g, 2g+2). Migration can therefore
//     proceed group by group with no destination conflicts.
//   - A stripe is the top log2(S) bits of the group index — invariant
//     across doublings — and covers a contiguous run of old groups. A
//     stripe is thus a self-contained migration unit: drain it under
//     its own lock and every key that hashes anywhere near it is
//     covered.
//
// Protocol. startExpansion allocates the doubled view and publishes an
// expState; workers (one per P) claim stripes off a counter and, for
// each one, take its lock, copy every live item of its old groups into
// the new view with the normal cell commit protocol, mark the stripe
// migrated, and release. From that point operations on the stripe route
// exclusively to the new arrays (routeView); unmigrated stripes keep
// using the old ones. When every stripe is migrated, finishExpansion
// takes ALL stripe locks and performs the same two-step commit as the
// sequential Expand: new roots into the inactive header slot, persist,
// then the single 8-byte slot flip — the expansion's only durable
// commit point — and the in-DRAM view swap.
//
// Writers never see ErrTableFull mid-expansion: a writer that finds its
// group full releases its stripe lock, ensures an expansion is running,
// and blocks on its stripe's drain channel — a per-stripe wait, far
// shorter than the full rehash — then retries against the new arrays.
//
// Crash semantics. Until the flip the persistent header still points at
// the old arrays, and migration only COPIES items (the old cells are
// never modified), so a crash mid-migration recovers the old table via
// the ordinary Algorithm-4 scan: every item acked before the expansion
// began is present exactly once. Writes that landed only in the new
// arrays of migrated stripes are lost, which matches the native
// backend's durability contract (durability is via explicit snapshots,
// and Quiesce waits out in-flight expansions before imaging). After the
// flip the new table is complete and recovery sees every acked item
// exactly once. The count word is maintained by writers only —
// migration copies don't touch it — so it is correct under either root.
//
// Reclaim. The flip frees the old arrays (commitRoots), so a grown
// table holds one generation. A reader that loaded the old view before
// the flip may still be probing it: freed memory reads as zeros, and
// the stripe locks finishExpansion took moved every stripe's version,
// so the probe fails validation and retries against the new view.
//
// Pathological skew. If some item cannot be placed even in the doubled
// arrays, the affected stripe stays unmigrated and finishExpansion
// falls back to a stop-the-world rebuild under all stripe locks:
// collect the authoritative items of every stripe (new arrays if
// migrated, old otherwise), free the abandoned doubled arrays, and
// re-place into successively doubled arrays, committing with the same
// slot flip (which frees the old arrays too). Only if that tripling
// also fails do blocked writers see ErrTableFull.

// expState is one in-flight online expansion.
type expState struct {
	old      *view           // the view being replaced
	nvw      *view           // the doubled view being populated
	migrated []atomic.Bool   // per stripe: drained into nvw
	stripeCh []chan struct{} // closed when the stripe is drained
	done     chan struct{}   // closed when the expansion has fully finished
	overflow atomic.Bool     // some stripe could not drain into nvw
	failed   atomic.Bool     // terminal: even the fallback rebuild failed
}

// loadFactorNum/loadFactorDen set the occupancy threshold (3/4) at
// which a successful insert proactively starts an expansion, so tables
// under steady write load grow before groups actually fill up.
const (
	loadFactorNum = 3
	loadFactorDen = 4
)

// EnableOnlineExpand arms stop-less expansion: writers that would have
// returned ErrTableFull instead trigger a background migration and
// block only until their own stripe is drained. Requires a backend
// whose word accesses are individually atomic (the migration runs
// concurrently with operations on other stripes); panics otherwise.
func (c *Concurrent) EnableOnlineExpand() {
	if _, ok := c.t.mem.(hashtab.ConcurrentReader); !ok {
		panic("core: online expansion requires a concurrent-read-safe backend")
	}
	c.expandOK = true
}

// OnlineExpandEnabled reports whether EnableOnlineExpand was called.
func (c *Concurrent) OnlineExpandEnabled() bool { return c.expandOK }

// Expanding reports whether an online expansion is currently in flight.
func (c *Concurrent) Expanding() bool { return c.exp.Load() != nil }

// Expansions returns the number of online expansions that committed a
// bigger table; one whose fallback rebuild failed too is not counted.
func (c *Concurrent) Expansions() uint64 { return c.expansions.Load() }

// ExpandProgress reports the in-flight expansion's migration progress
// as (stripes migrated, stripes total); (0, 0) when none is running.
func (c *Concurrent) ExpandProgress() (migrated, total int) {
	e := c.exp.Load()
	if e == nil {
		return 0, 0
	}
	for i := range e.migrated {
		if e.migrated[i].Load() {
			migrated++
		}
	}
	return migrated, len(e.migrated)
}

// StripesMigrated returns the cumulative number of stripes drained by
// online expansions over the store's lifetime.
func (c *Concurrent) StripesMigrated() uint64 { return c.stripesMig.Load() }

// Fallbacks returns the number of online expansions that could not
// place every item in the doubled arrays and fell back to the
// stop-the-world rebuild, whether or not the rebuild committed.
func (c *Concurrent) Fallbacks() uint64 { return c.fallbacks.Load() }

// WriterStallNanos returns the total wall time writers have spent
// blocked in awaitRoom waiting for an expansion to make room — the
// store-side cost of stop-less growth.
func (c *Concurrent) WriterStallNanos() uint64 { return c.stallNanos.Load() }

// WaitExpansion blocks until any in-flight expansion has finished.
func (c *Concurrent) WaitExpansion() {
	if e := c.exp.Load(); e != nil {
		<-e.done
	}
}

// maybeTriggerExpand starts an expansion once the load factor crosses
// the threshold. Called after successful inserts, outside any stripe
// lock.
func (c *Concurrent) maybeTriggerExpand() {
	if !c.expandOK || c.exp.Load() != nil {
		return
	}
	if c.Len()*loadFactorDen < c.t.Capacity()*loadFactorNum {
		return
	}
	c.ensureExpansion()
}

// awaitRoom is the writer-side slow path after a failed placement:
// make sure an expansion is running, wait for this stripe's drain (or
// the whole expansion's completion, whichever is relevant), and report
// whether the caller should retry (nil) or give up (ErrTableFull).
func (c *Concurrent) awaitRoom(si int) error {
	if !c.expandOK {
		return hashtab.ErrTableFull
	}
	e := c.ensureExpansion()
	start := time.Now()
	defer func() { c.stallNanos.Add(uint64(time.Since(start))) }()
	if e.migrated[si].Load() {
		// Our stripe already drained and the NEW arrays are full too;
		// nothing more this generation can do for us. Wait it out and
		// let the retry start the next doubling.
		<-e.done
	} else {
		select {
		case <-e.stripeCh[si]:
			return nil // drained; retry against the new arrays
		case <-e.done:
		}
	}
	if e.failed.Load() {
		return hashtab.ErrTableFull
	}
	return nil
}

// ensureExpansion returns the in-flight expansion, starting one if
// none is running. Never called with a stripe lock held.
func (c *Concurrent) ensureExpansion() *expState {
	if e := c.exp.Load(); e != nil {
		return e
	}
	c.expandMu.Lock()
	defer c.expandMu.Unlock()
	if e := c.exp.Load(); e != nil {
		return e
	}
	t := c.t
	vw := t.cur()
	seed := t.mem.Read8(t.hdr + hdrSeed*layout.WordSize)
	e := &expState{
		old:      vw,
		nvw:      t.newView(vw.tab1.N*2, seed),
		migrated: make([]atomic.Bool, len(c.stripes)),
		stripeCh: make([]chan struct{}, len(c.stripes)),
		done:     make(chan struct{}),
	}
	for i := range e.stripeCh {
		e.stripeCh[i] = make(chan struct{})
	}
	c.exp.Store(e)
	go c.runExpansion(e)
	return e
}

// runExpansion is the coordinator: a worker pool (one goroutine per P,
// capped at the stripe count) claims stripes off a shared counter and
// drains them one at a time, then the commit runs.
func (c *Concurrent) runExpansion(e *expState) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(c.stripes) {
		workers = len(c.stripes)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				si := int(next.Add(1) - 1)
				if si >= len(c.stripes) {
					return
				}
				c.migrateStripe(e, si)
				if c.hookStripeDone != nil {
					c.hookStripeDone(si)
				}
			}
		}()
	}
	wg.Wait()
	c.finishExpansion(e)
}

// migrateStripe drains one stripe: under the stripe's lock, copy every
// live item of its old groups into the new view via the standard cell
// commit protocol. Destination windows of distinct old groups are
// disjoint (see expand.go), so stripes drain in parallel without
// coordinating. Items are copied, never moved — the old arrays stay
// intact for pre-flip crash recovery.
func (c *Concurrent) migrateStripe(e *expState, si int) {
	s := &c.stripes[si]
	s.lock()
	t := c.t
	groups := e.old.tab1.N / t.gsz
	per := groups / uint64(len(c.stripes))
	lo, hi := uint64(si)*per, (uint64(si)+1)*per
	ok := !(c.hookMigrateFail != nil && c.hookMigrateFail(si)) &&
		t.rehashGroups(e.old, e.nvw, lo, hi)
	if ok {
		e.migrated[si].Store(true)
		c.stripesMig.Add(1)
	} else {
		e.overflow.Store(true)
	}
	s.unlock()
	if ok {
		close(e.stripeCh[si])
	}
}

// finishExpansion commits the migration. With every stripe held (no
// operation in flight anywhere), either flip to the fully-populated new
// view, or — if some stripe overflowed even the doubled arrays — run
// the stop-the-world fallback rebuild. The expansion state is cleared
// before the stripes are released so no writer can observe a committed
// generation as still in flight.
func (c *Concurrent) finishExpansion(e *expState) {
	for i := range c.stripes {
		c.stripes[i].lock()
	}
	if e.overflow.Load() {
		c.fallbackRebuild(e)
	} else {
		if c.hookPreFlip != nil {
			c.hookPreFlip()
		}
		c.t.commitRoots(e.nvw)
	}
	c.exp.Store(nil)
	for i := range c.stripes {
		c.stripes[i].unlock()
	}
	if !e.failed.Load() {
		c.expansions.Add(1)
	}
	close(e.done)
}

// fallbackRebuild handles pathological skew: some item did not fit even
// in the doubled arrays. All stripes are held, so the authoritative
// item set is frozen — new arrays for migrated stripes (they may hold
// post-drain writes), old arrays for the rest (including partially
// drained overflow stripes, whose new-array copies are simply
// abandoned). Free the abandoned doubled arrays, re-place everything
// into successively doubled arrays, reclaiming failed attempts where
// the allocator allows, and commit with the usual slot flip.
func (c *Concurrent) fallbackRebuild(e *expState) {
	c.fallbacks.Add(1)
	t := c.t
	groups := e.old.tab1.N / t.gsz
	per := groups / uint64(len(c.stripes))
	type item struct {
		k layout.Key
		v uint64
	}
	var items []item
	for si := range c.stripes {
		vw, mul := e.old, uint64(1)
		if e.migrated[si].Load() {
			vw, mul = e.nvw, 2
		}
		lo, hi := uint64(si)*per*mul*t.gsz, (uint64(si)+1)*per*mul*t.gsz
		for _, cells := range [2]*hashtab.Cells{&vw.tab1, &vw.tab2} {
			for i := lo; i < hi; i++ {
				if cells.Occupied(i) {
					items = append(items, item{cells.Key(i), cells.Value(i)})
				}
			}
		}
	}
	t.retire(e.nvw)
	if !t.rebuild(e.nvw.tab1.N*2, func(nvw *view) bool {
		for _, it := range items {
			if !t.placeIn(nvw, it.k, it.v) {
				return false
			}
		}
		return true
	}) {
		e.failed.Store(true)
	}
}
