// Package grouphash is a write-efficient, crash-consistent hash table
// for byte-addressable non-volatile memory, reproducing "A Write-
// efficient and Consistent Hashing Scheme for Non-Volatile Memory"
// (Zhang, Feng, Hua, Chen, Fu — ICPP 2018).
//
// Group hashing commits every insert and delete with a single 8-byte
// failure-atomic store — no logging, no copy-on-write — and resolves
// collisions inside groups of contiguous cells so that collision
// probing stays cacheline-friendly. After a crash, a linear recovery
// scan (Recover) restores full consistency in time proportional to the
// table size (< 1% of the time it took to fill it).
//
// # Quick start
//
//	store, err := grouphash.New(grouphash.Options{Capacity: 1 << 20})
//	if err != nil { ... }
//	store.Put(grouphash.Key{Lo: 42}, 4242)
//	v, ok := store.Get(grouphash.Key{Lo: 42})
//	store.Delete(grouphash.Key{Lo: 42})
//
// A store grows automatically: when Put fills a group the table
// doubles and rehashes behind a single atomic root flip, so Capacity
// is a starting size, not a limit (set DisableExpand to pin it). For
// shared use, set Options.Concurrent — every method becomes safe for
// any number of goroutines, lookups run lock-free on the default
// backend, and a full table triggers a stop-less online expansion
// instead of blocking the world: a background migration drains one
// stripe of groups at a time while the store keeps serving, and a
// writer waits only for its own stripe. On the default backend group
// probes are additionally screened by a DRAM fingerprint sidecar
// (1-byte tags compared eight at a time) before any table cell is
// read.
//
// # Backends
//
// New builds the store over plain process memory. NewSimulated builds
// it over the repository's simulated NVM machine (cache hierarchy,
// latency model, crash injection) — the configuration every paper
// experiment runs on; see the Sim type for crash/recovery tooling and
// the simulated performance counters.
//
// The lower-level building blocks live in internal packages; this
// package is the stable surface.
package grouphash

import (
	"fmt"

	"grouphash/internal/core"
	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
	"grouphash/internal/memsim"
	"grouphash/internal/native"
	"grouphash/internal/oplog"
	"grouphash/internal/pmfs"
)

// Key is a fixed-size key: 8-byte keys use Lo (and must be non-zero);
// 16-byte keys use Lo and Hi.
type Key = layout.Key

// ErrTableFull is returned when the table cannot place an item and
// auto-expansion is disabled or impossible.
var ErrTableFull = hashtab.ErrTableFull

// ErrInvalidKey is returned for keys the cell layout cannot store
// (the zero key under the 8-byte compact layout).
var ErrInvalidKey = hashtab.ErrInvalidKey

// Options configures a Store.
type Options struct {
	// Capacity is the target item capacity. The table is sized so this
	// many items fit at the paper's ~82% space utilisation; it expands
	// automatically if exceeded (unless DisableExpand).
	Capacity uint64
	// KeyBytes is 8 (compact 16-byte cells) or 16 (32-byte cells).
	// Default 8.
	KeyBytes int
	// GroupSize is the cells-per-group parameter (power of two).
	// Default 256, the paper's choice.
	GroupSize uint64
	// Seed selects the hash function. Default 0.
	Seed uint64
	// DisableExpand makes Put and Insert return ErrTableFull instead of
	// growing.
	DisableExpand bool
	// Concurrent enables the striped-lock wrapper, making all Store
	// methods safe for concurrent use. On the native backend (the
	// default) a full table no longer fails writes: expansion runs
	// online — a background migration drains one stripe of groups at a
	// time while the store keeps serving, and a writer blocks only
	// until its own stripe has moved. Unless DisableExpand is set.
	Concurrent bool
	// Memory overrides the backing memory. Nil means a fresh native
	// (process-memory) backend sized to the header and the initial
	// cell arrays; it grows page by page as the table expands.
	Memory hashtab.Mem
}

// Store is a group-hash key-value store. Unless Options.Concurrent was
// set it must be confined to one goroutine at a time.
type Store struct {
	tab    *core.Table
	conc   *core.Concurrent
	mem    hashtab.Mem
	expand bool
}

// New creates a store per opts.
func New(opts Options) (*Store, error) {
	if opts.Capacity == 0 {
		opts.Capacity = 1 << 16
	}
	if opts.KeyBytes == 0 {
		opts.KeyBytes = 8
	}
	// Size level 1 so that Capacity items stay under ~80% utilisation
	// of the two-level structure: total cells ≈ Capacity / 0.8,
	// level 1 = half of that, rounded up to a power of two.
	l1 := uint64(1)
	for l1 < opts.Capacity/2+opts.Capacity/8 {
		l1 <<= 1
	}
	gs := opts.GroupSize
	if gs == 0 {
		gs = core.DefaultGroupSize
	}
	if gs > l1 {
		gs = l1
	}
	mem := opts.Memory
	if mem == nil {
		cell := layout.ForKeySize(opts.KeyBytes).CellSize()
		mem = native.New(core.HeaderBytes + l1*2*cell)
	}
	tab, err := core.Create(mem, core.Options{
		Cells:     l1,
		GroupSize: gs,
		KeyBytes:  opts.KeyBytes,
		Seed:      opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	s := &Store{tab: tab, mem: mem, expand: !opts.DisableExpand}
	if opts.Concurrent {
		s.conc = core.NewConcurrent(tab, 0)
		s.armOnlineExpand()
	}
	return s, nil
}

// armOnlineExpand enables stop-less expansion on the concurrent wrapper
// when the store wants expansion and the backend can support it (word
// accesses individually atomic — true of the native backend). On other
// backends (the single-clock simulator) the concurrent store keeps the
// old fixed-capacity behaviour.
func (s *Store) armOnlineExpand() {
	if !s.expand || s.conc == nil {
		return
	}
	if _, ok := s.mem.(hashtab.ConcurrentReader); ok {
		s.conc.EnableOnlineExpand()
	} else {
		s.expand = false
	}
}

// Open reconstructs a store from a persistent memory image, given the
// header address returned by Header. Call Recover afterwards if the
// previous shutdown was not clean.
func Open(mem hashtab.Mem, header uint64, concurrent bool) (*Store, error) {
	tab, err := core.Open(mem, header)
	if err != nil {
		return nil, err
	}
	s := &Store{tab: tab, mem: mem, expand: true}
	if concurrent {
		s.conc = core.NewConcurrent(tab, 0)
		s.armOnlineExpand()
	}
	return s, nil
}

// Header returns the table's persistent root address, the handle Open
// needs after a restart.
func (s *Store) Header() uint64 { return s.tab.Header() }

// Put stores (k, v), replacing any existing value for k. The table
// expands automatically when full (unless disabled). On a concurrent
// store the update-or-insert pair runs as one atomic operation under
// the group lock, so racing Puts of the same key can never commit
// duplicate items; a full table triggers a stop-less online expansion
// instead of failing — the write blocks only until the migration has
// drained its own stripe, then retries against the doubled arrays.
func (s *Store) Put(k Key, v uint64) error {
	return s.apply(BatchOp{Kind: BatchPut, Key: k, Value: v}).Err
}

// Insert stores (k, v) with the paper's Algorithm-1 semantics: no
// existing-key check, duplicates allowed. It grows the table exactly
// as Put does.
func (s *Store) Insert(k Key, v uint64) error {
	return s.apply(BatchOp{Kind: BatchInsert, Key: k, Value: v}).Err
}

// Delete removes k, reporting whether it was present.
func (s *Store) Delete(k Key) bool {
	return s.apply(BatchOp{Kind: BatchDelete, Key: k}).Found
}

// Batch types, re-exported from core. See Store.ApplyBatch.
type (
	// BatchKind selects a BatchOp's mutation semantics.
	BatchKind = core.BatchKind
	// BatchOp is one mutation of a batch.
	BatchOp = core.BatchOp
	// BatchResult is one BatchOp's outcome.
	BatchResult = core.BatchResult
	// BatchScratch holds ApplyBatch's reusable working state; the zero
	// value is ready. One per serving goroutine.
	BatchScratch = core.BatchScratch
)

// Batch mutation kinds.
const (
	// BatchPut upserts (Put semantics).
	BatchPut = core.BatchPut
	// BatchInsert inserts with Algorithm-1 semantics, duplicates
	// allowed.
	BatchInsert = core.BatchInsert
	// BatchDelete removes the key if present.
	BatchDelete = core.BatchDelete
)

// ApplyBatch applies a burst of mutations as stripe-grouped runs with
// one lock acquisition, one persistent count update, and one commit-
// hook call per run — the only path by which the network server
// mutates the store, for OpBatch frames and coalesced pipelined bursts
// alike. Per-op outcomes land in out (len(out) must equal len(ops));
// within a stripe ops apply in submission order, which is all the
// ordering same-key sequences need. committed (if non-nil) runs inside
// each run's critical section with the indices of the ops that mutated
// cells, in apply order; the slice is scratch, so consume it before
// returning. The server appends the run to its oplog there, which
// pairs (apply, append) atomically against SnapshotWriterAt's
// all-stripes cut: no write can be applied-but-unlogged or
// logged-but-unapplied at the moment the snapshot mark is read.
// committed must not call back into the store and must be brief.
//
// Crash semantics: a crash mid-batch leaves some stripe-runs fully
// committed, at most one committed up to a prefix, and the count word
// stale — the state Algorithm 4's recovery already repairs. Run
// Recover (which recomputes the count from the bitmaps) after a crash,
// as always.
//
// On a sequential store the ops apply in submission order under the
// caller's exclusivity, one count persist each, with one committed
// call at the end.
func (s *Store) ApplyBatch(ops []BatchOp, out []BatchResult, sc *BatchScratch, committed func(applied []int)) {
	if s.conc != nil {
		s.conc.ApplyBatch(ops, out, sc, committed)
		return
	}
	if len(ops) != len(out) {
		panic("grouphash: ApplyBatch len(ops) != len(out)")
	}
	var applied []int
	for i := range ops {
		out[i] = s.apply(ops[i])
		if committed != nil && out[i].Err == nil && (ops[i].Kind != BatchDelete || out[i].Found) {
			applied = append(applied, i)
		}
	}
	if len(applied) > 0 {
		committed(applied)
	}
}

// apply runs one mutation: on a concurrent store through the table's
// one mutating critical section (core.Concurrent.Apply), on a
// sequential one through the op switch below, which a full table grows
// through unless expansion is disabled. Both refuse an invalid key
// before looking at the kind, so a zero-key delete reports
// ErrInvalidKey in either mode.
func (s *Store) apply(op BatchOp) BatchResult {
	if s.conc != nil {
		return s.conc.Apply(op)
	}
	if !s.tab.ValidKey(op.Key) {
		return BatchResult{Err: ErrInvalidKey}
	}
	switch op.Kind {
	case BatchPut:
		if s.tab.Update(op.Key, op.Value) {
			return BatchResult{Found: true}
		}
		fallthrough
	case BatchInsert:
		if s.expand {
			return BatchResult{Err: s.tab.InsertAutoExpand(op.Key, op.Value)}
		}
		return BatchResult{Err: s.tab.Insert(op.Key, op.Value)}
	case BatchDelete:
		return BatchResult{Found: s.tab.Delete(op.Key)}
	}
	panic("grouphash: ApplyBatch: unknown BatchKind")
}

// Get returns the value stored under k.
func (s *Store) Get(k Key) (uint64, bool) {
	if s.conc != nil {
		return s.conc.Lookup(k)
	}
	return s.tab.Lookup(k)
}

// Len returns the number of stored items.
func (s *Store) Len() uint64 {
	if s.conc != nil {
		return s.conc.Len()
	}
	return s.tab.Len()
}

// Capacity returns the total cell count of the table.
func (s *Store) Capacity() uint64 { return s.tab.Capacity() }

// Name identifies the scheme behind the engine seam.
func (s *Store) Name() string { return "grouphash" }

// LoadFactor returns Len/Capacity, 0 on a zero-capacity table.
func (s *Store) LoadFactor() float64 {
	capacity := s.Capacity()
	if capacity == 0 {
		return 0
	}
	return float64(s.Len()) / float64(capacity)
}

// GroupSize returns the cells-per-group parameter.
func (s *Store) GroupSize() uint64 { return s.tab.GroupSize() }

// Range calls fn for every stored item until fn returns false. Not
// safe to run concurrently with mutations.
func (s *Store) Range(fn func(k Key, v uint64) bool) { s.tab.Range(fn) }

// RecoveryReport summarises what Recover repaired.
type RecoveryReport = hashtab.RecoveryReport

// Recover runs the paper's Algorithm-4 recovery scan: scrub torn
// payloads behind zero bitmaps and recompute the persistent count.
// Call it after reopening a store that may have crashed.
func (s *Store) Recover() (RecoveryReport, error) { return s.tab.Recover() }

// CheckConsistency verifies the table invariants without repairing,
// returning human-readable violations (empty when consistent).
func (s *Store) CheckConsistency() []string { return s.tab.CheckConsistency() }

// FingerprintStats returns the DRAM probe-filter's effectiveness
// counters: hits is the number of table cells that were dereferenced
// because their fingerprint tag matched the probe key, skips the
// number of occupied-range cells the filter screened out without
// touching the table at all. Both stay zero on backends where the
// sidecar is off (the simulated machine, tiny group sizes).
func (s *Store) FingerprintStats() (hits, skips uint64) { return s.tab.FingerprintStats() }

// Concurrent reports whether the store was built with the striped-lock
// wrapper and is safe for concurrent use.
func (s *Store) Concurrent() bool { return s.conc != nil }

// Expanding reports whether a stop-less online expansion is currently
// in flight (always false on sequential stores, whose expansion
// completes within the Put that triggered it).
func (s *Store) Expanding() bool { return s.conc != nil && s.conc.Expanding() }

// Expansions returns the number of committed online expansions on a
// concurrent store (0 on sequential stores).
func (s *Store) Expansions() uint64 {
	if s.conc == nil {
		return 0
	}
	return s.conc.Expansions()
}

// CountPersists returns the number of count-word persist barriers the
// table has issued — the NVM write amplification metric that batching
// amortises (one bumpCount per stripe-run instead of one per op).
func (s *Store) CountPersists() uint64 { return s.tab.CountPersists() }

// Quiesce runs fn while every writer is excluded. On a concurrent
// store it locks all stripes (in a fixed order, so concurrent Quiesce
// calls cannot deadlock); on a sequential store the caller already
// owns exclusivity and fn simply runs. fn must not call the store's
// own operations (it would self-deadlock on the held stripes) — it is
// the hook under which Snapshot copies a consistent memory image while
// the store keeps serving readers on other goroutines' fallback locks.
func (s *Store) Quiesce(fn func()) {
	if s.conc != nil {
		s.conc.Quiesce(fn)
		return
	}
	fn()
}

// Snapshot atomically persists the store's entire memory image to a
// pmfs image file at path, with oplog mark 0: writers are quiesced,
// the live pages are copied, and the copy is written crash-safely
// (temp file + fsync + rename + directory fsync). The resulting file
// reopens with LoadSnapshotMark, or with LoadImage as a simulated store.
// Supported for native-backed stores (the default) and simulated
// stores, whose machine is cleanly shut down first; other Memory
// implementations return an error.
//
// The pause is O(live bytes) for the in-memory copy only — pages that
// expansion freed are skipped, and the checksum and file I/O happen
// after the writers resume.
func (s *Store) Snapshot(path string) error {
	write, err := s.SnapshotWriterAt(func() (uint64, error) { return 0, nil })
	if err != nil {
		return err
	}
	return write(path)
}

// SnapshotWriterAt captures a consistent image of the store under an
// internal quiesce, calling cut() with every writer excluded to decide
// the image's oplog mark; it returns a function that later writes the
// image to a file, crash-safely. Because mutations run their oplog
// append inside the write's critical section (ApplyBatch's committed
// callback) and cut() runs with all of them held, the mark cut()
// returns covers exactly the operations the captured image contains —
// the invariant recovery's "load image, replay LSNs past the mark"
// depends on. The server's cut reads the log's last LSN and rotates
// the segment there, so sealed segments and image agree too. cut must
// not call back into the store; a cut error aborts the capture.
func (s *Store) SnapshotWriterAt(cut func() (uint64, error)) (func(path string) error, error) {
	var capture func() *pmfs.Image
	switch m := s.mem.(type) {
	case *memsim.Memory:
		capture = func() *pmfs.Image { return pmfs.Capture(m) }
	case *native.Memory:
		capture = m.Capture
	default:
		return nil, fmt.Errorf("grouphash: memory backend %T cannot be snapshotted", s.mem)
	}
	var img *pmfs.Image
	var mark uint64
	var cutErr error
	s.Quiesce(func() {
		if mark, cutErr = cut(); cutErr == nil {
			img = capture()
		}
	})
	if cutErr != nil {
		return nil, cutErr
	}
	img.Root, img.Mark = s.Header(), mark
	return func(path string) error { return pmfs.SaveImage(path, img) }, nil
}

// LoadSnapshotMark rebuilds a concurrent store from an image file that
// Snapshot or SnapshotWriterAt wrote, over a fresh native memory that
// frees the image's freed ranges again. Images are written from a
// quiesced table, so no recovery pass is needed. It also returns the
// image's oplog mark, the LSN of the last log record the image covers:
// recovery replays the oplog past it (Store.ReplayOplog).
func LoadSnapshotMark(path string) (*Store, uint64, error) {
	img, err := pmfs.LoadImage(path)
	if err != nil {
		return nil, 0, err
	}
	// The root is a table header address only in images this package
	// wrote; a comparison engine's image keeps a spec fingerprint there,
	// which Open must not dereference.
	if root := img.Root; root%layout.WordSize != 0 || root > img.Allocated || img.Allocated-root < core.HeaderBytes {
		return nil, 0, fmt.Errorf("grouphash: image %s has no table header at its root %#x", path, root)
	}
	mem := native.New(0)
	mem.Restore(img)
	s, err := Open(mem, img.Root, true)
	if err != nil {
		return nil, 0, err
	}
	return s, img.Mark, nil
}

// ReplayOplog replays the operation log based at base onto the store
// through oplog.Replay: every record with an LSN past after (typically
// the mark LoadSnapshotMark returned) is re-applied through ApplyBatch,
// each key's records in log order. A concurrent store with online
// expansion armed replays on every core (KeyIndependent); any other
// store replays every record in log order. It returns the number of
// records applied and the LSN the log continues from (pass it to
// oplog.OpenConfig). After an error, drop the store and recover again
// from its image: records past the refused one may have been applied.
func (s *Store) ReplayOplog(base string, after uint64) (applied int, next uint64, err error) {
	return oplog.Replay(s, base, after)
}

// KeyIndependent reports whether every op's outcome depends only on the
// earlier ops on its own key (oplog.KeyIndependent): true only for a
// concurrent store with online expansion armed, which grows instead of
// refusing an insert for lack of room. A fixed-capacity table can
// refuse an insert that an earlier delete of another key would have
// made room for, and a sequential store is confined to one goroutine.
func (s *Store) KeyIndependent() bool {
	return s.conc != nil && s.conc.OnlineExpandEnabled()
}

// String describes the store.
func (s *Store) String() string {
	mode := "sequential"
	if s.conc != nil {
		mode = "concurrent"
	}
	return fmt.Sprintf("grouphash.Store{items: %d, cells: %d, group: %d, %s}",
		s.Len(), s.Capacity(), s.GroupSize(), mode)
}
