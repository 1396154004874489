// Package hashtab defines the contract shared by every hash-table
// implementation in this repository (group hashing and the three
// baselines), the persistent-memory interface they are written against,
// and reusable helpers for operating on arrays of persistent cells.
//
// Two backends satisfy Mem:
//
//   - memsim.Memory — the simulated machine (cache model, latency model,
//     crash injection) used for all paper experiments;
//   - native.Memory — a plain in-process buffer with no simulation, for
//     real-throughput benchmarking and the concurrent table variant.
//
// Writing the tables against the interface keeps the algorithms
// identical across backends, so the simulator measures exactly the code
// a downstream user would run.
package hashtab

import (
	"errors"

	"grouphash/internal/layout"
)

// ErrTableFull is returned by Insert when the scheme's collision
// resolution is exhausted — the paper's "capacity of the hash table
// needs to be expanded" condition.
var ErrTableFull = errors.New("hashtab: table full")

// ErrInvalidKey is returned by Insert for keys the cell layout cannot
// store — the compact 16-byte layout reserves the zero key as its
// empty-cell marker.
var ErrInvalidKey = errors.New("hashtab: invalid key for this layout")

// Mem is the persistent-memory surface the tables are written against.
// See memsim.Memory for full semantics; native.Memory implements the
// same contract with no-op persistence.
type Mem interface {
	// Read8 loads an aligned 8-byte word.
	Read8(addr uint64) uint64
	// Write8 stores an aligned 8-byte word (durable only after Persist).
	Write8(addr, val uint64)
	// AtomicWrite8 stores an aligned 8-byte word failure-atomically.
	AtomicWrite8(addr, val uint64)
	// Persist makes [addr, addr+n) durable (clflush range + mfence).
	Persist(addr, n uint64)
	// Alloc reserves size bytes at the given power-of-two alignment.
	Alloc(size, align uint64) uint64
}

// ConcurrentReader marks Mem backends whose Read8 may run concurrently
// with word stores from other goroutines: every word access is
// individually atomic, so an unlocked reader can never observe a torn
// word (multi-word consistency remains the caller's problem — the
// seqlock wrapper in core.Concurrent validates it with per-stripe
// version counters). Backends that keep shared mutable state per access
// (the memsim simulator's cache and clock) must NOT implement this.
type ConcurrentReader interface {
	// ConcurrentReadSafe is a marker; it performs no work.
	ConcurrentReadSafe()
}

// Reclaimer is the optional allocator surface for backends that can
// take memory back. Mark captures the bump allocator's watermark and
// Release rewinds to it, zeroing and reclaiming everything allocated
// since: table expansion uses the pair to take back the freshly
// allocated cell arrays of a failed rehash attempt. Free hands back
// one retired range below the watermark, which is never allocated
// again: expansion frees the arrays a committed flip replaced, so a
// grown table holds one generation of cells instead of every
// generation it ever had. Backends with a fixed region and simulated
// persistence (memsim) deliberately do not implement it — zeroing
// megabytes through the simulated cache would distort every counter
// the experiments measure.
type Reclaimer interface {
	// Mark returns the current allocation watermark.
	Mark() uint64
	// Release rewinds the allocator to a previous Mark, zeroing the
	// released range so future allocations see fresh memory.
	Release(mark uint64)
	// Free hands back [addr, addr+n), which nothing may write again;
	// lock-free readers still probing it read zeros.
	Free(addr, n uint64)
}

// Table is the common key-value interface. Keys are fixed-size
// (layout.Key); values are single words, the small-item regime the
// paper's motivating key-value stores (memcached, MemC3) are dominated
// by.
//
// Insert follows the paper's Algorithm 1 and does not check for a
// pre-existing key; inserting a key twice stores two items and Lookup
// returns the one found first on the probe path.
type Table interface {
	// Name identifies the scheme in reports (e.g. "group", "linear-L").
	Name() string
	// Insert stores (k, v), returning ErrTableFull when the scheme
	// cannot place the item.
	Insert(k layout.Key, v uint64) error
	// Lookup returns the value stored under k.
	Lookup(k layout.Key) (uint64, bool)
	// Delete removes k, reporting whether it was present.
	Delete(k layout.Key) bool
	// Len returns the number of stored items (the paper's count field).
	Len() uint64
	// Capacity returns the total number of cells.
	Capacity() uint64
	// LoadFactor returns Len/Capacity.
	LoadFactor() float64
}

// Updater is implemented by tables supporting in-place value updates.
// A value is one failure-atomic word, so an update needs no commit
// protocol beyond an atomic store plus persist.
type Updater interface {
	// Update overwrites the value of an existing key, reporting
	// whether the key was present.
	Update(k layout.Key, v uint64) bool
}

// Recoverable is implemented by tables that can rebuild a consistent
// state from the persistent image after a crash.
type Recoverable interface {
	// Recover runs the scheme's recovery procedure and returns a
	// human-readable summary of what was repaired.
	Recover() (RecoveryReport, error)
}

// RecoveryReport summarises a recovery pass.
type RecoveryReport struct {
	CellsScanned   uint64 // cells visited by the scan
	CellsCleared   uint64 // partially-written cells wiped (bitmap == 0)
	CountCorrected bool   // the persistent count field was wrong
	UndoneOps      uint64 // WAL entries rolled back (logged schemes)
}
