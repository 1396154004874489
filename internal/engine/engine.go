// Package engine defines the storage-engine seam the serving stack is
// built on: one small interface every hash scheme in the repository
// can stand behind, so the network server, the commands and the
// end-to-end benchmarks are substrate-agnostic.
//
// The group-hash façade (grouphash.Store) is the flagship
// implementation — it satisfies Engine directly, with its striped
// locks, seqlock reads, stripe-grouped batching and online expansion
// intact. The paper's comparison schemes (internal/pfht,
// internal/pathhash, internal/chained, internal/linearprobe) are
// wrapped by a thin adapter (adapter.go): a single RWMutex for
// concurrency, a sequential fallback for the batch path, and snapshots
// through the same pmfs image format the flagship uses. That turns
// every serving benchmark into a scheme shoot-out — the paper's
// Fig. 2/6 comparisons end-to-end over the wire.
//
// The interface is also a CONTRACT, pinned by the conformance suite
// (conformance_test.go) running identically against all five engines.
// Every mutation goes through ApplyBatch, whose op kinds carry the
// façade's semantics: every kind rejects the zero key under the
// 8-byte layout, BatchPut upserts while BatchInsert allows duplicates
// (Algorithm-1 semantics), a BatchDelete of an absent key reports
// Found=false without touching the persisted count, the load_factor
// gauge never divides by zero, snapshots round-trip, an oplog replays
// to the state its ops produced live, and the crash recovery of the
// table behind each engine is idempotent.
// Where a scheme historically disagreed with the façade, the scheme
// was fixed — not the suite.
//
// Restart is the one process-restart sequence on top of the seam:
// image, replay through ApplyBatch, reopened log.
package engine

import (
	"fmt"
	"os"
	"strings"
	"time"

	"grouphash"
	"grouphash/internal/core"
	"grouphash/internal/layout"
	"grouphash/internal/oplog"
	"grouphash/internal/stats"
)

// Engine is the storage-engine interface the serving stack programs
// against. All methods must be safe for concurrent use. ApplyBatch
// carries the commit-hook contract the oplog depends on (committed
// runs inside the engine's own critical section, so an applied
// mutation and its log append are atomic against Quiesce and the
// snapshot cut); it is the only way to mutate an engine, for the
// server's writes and start-up replay (oplog.Replay) alike.
type Engine interface {
	// Name identifies the engine (the -engine flag value).
	Name() string

	// Get returns the value stored under k.
	Get(k layout.Key) (uint64, bool)

	// ApplyBatch applies a burst of mutations, writing per-op outcomes
	// into out (len(out) must equal len(ops)). Same-key ops apply in
	// submission order; committed (when non-nil) runs inside the
	// engine's critical section(s) with the indices of the ops that
	// mutated cells, in apply order (the slice is scratch — consume it
	// before returning), and must not call back into the engine. sc may
	// be nil.
	ApplyBatch(ops []core.BatchOp, out []core.BatchResult, sc *core.BatchScratch, committed func(applied []int))

	// Len returns the number of stored items; Capacity the structural
	// bound.
	Len() uint64
	Capacity() uint64
	// Expansions counts committed stop-less online expansions; engines
	// with fixed capacity return 0.
	Expansions() uint64

	// Quiesce runs fn with every writer excluded. fn must not call
	// back into the engine.
	Quiesce(fn func())
	// CheckConsistency audits the structural invariants without
	// repairing, returning human-readable violations (empty = clean).
	CheckConsistency() []string
	// RegisterMetrics exports occupancy (and whatever else the engine
	// tracks) into r under prefix (e.g. "gh" → gh_store_items), with a
	// load_factor gauge that reads 0, never NaN, on an empty or
	// zero-capacity table.
	RegisterMetrics(r *stats.Registry, prefix string)

	// SnapshotWriterAt captures a consistent pmfs image under writer
	// exclusion — calling cut() inside the window to fix the oplog
	// mark — and returns a deferred writer, so file I/O happens after
	// writers resume. Reopen with Load.
	SnapshotWriterAt(cut func() (uint64, error)) (func(path string) error, error)
}

// The flagship implements the interface directly — any signature
// drift between the façade and the seam is a compile error here.
var _ Engine = (*grouphash.Store)(nil)

// Spec describes an engine build. The same Spec must be used to create
// an engine and to reopen its snapshots (Load verifies this via a spec
// fingerprint stored in the image header).
type Spec struct {
	// Name selects the scheme: grouphash, pfht, pathhash, chained or
	// linearprobe. The comparison schemes also accept an "-l" suffix
	// (e.g. "linearprobe-l") attaching the paper's undo WAL.
	Name string
	// Capacity is the target item capacity. The flagship expands
	// online past it; the comparison schemes are fixed-size and are
	// allocated with ~2x headroom in cells, so the target is reachable
	// at a moderate load factor.
	Capacity uint64
	// GroupSize is the flagship's cells-per-group (0 = the paper's
	// 256); ignored by the comparison schemes.
	GroupSize uint64
	// KeyBytes is 8 or 16 (0 = 8).
	KeyBytes int
	// Seed selects the hash functions.
	Seed uint64
	// Logged attaches the undo WAL to pfht/pathhash/linearprobe (the
	// paper's -L variants); equivalent to the "-l" name suffix.
	Logged bool
}

// Names lists the engines the -engine flag accepts, flagship first.
func Names() []string {
	return []string{"grouphash", "pfht", "pathhash", "chained", "linearprobe"}
}

// normalize canonicalises spec: lower-cases the name, folds an "-l"
// suffix into Logged, and applies defaults.
func normalize(spec Spec) (Spec, error) {
	spec.Name = strings.ToLower(spec.Name)
	if base, ok := strings.CutSuffix(spec.Name, "-l"); ok {
		spec.Name = base
		spec.Logged = true
	}
	if spec.Capacity == 0 {
		spec.Capacity = 1 << 16
	}
	if spec.KeyBytes == 0 {
		spec.KeyBytes = 8
	}
	switch spec.Name {
	case "grouphash", "pfht", "pathhash", "chained", "linearprobe":
	case "":
		spec.Name = "grouphash"
	default:
		return spec, fmt.Errorf("engine: unknown engine %q (want one of %s)",
			spec.Name, strings.Join(Names(), "|"))
	}
	if spec.Logged && (spec.Name == "grouphash" || spec.Name == "chained") {
		return spec, fmt.Errorf("engine: %s has no undo-WAL variant (its commits are failure-atomic already)", spec.Name)
	}
	return spec, nil
}

// New builds an engine per spec, ready for concurrent serving.
func New(spec Spec) (Engine, error) {
	spec, err := normalize(spec)
	if err != nil {
		return nil, err
	}
	if spec.Name == "grouphash" {
		return grouphash.New(grouphash.Options{
			Capacity:   spec.Capacity,
			GroupSize:  spec.GroupSize,
			KeyBytes:   spec.KeyBytes,
			Seed:       spec.Seed,
			Concurrent: true,
		})
	}
	return newAdapter(spec)
}

// Load reopens an engine from a pmfs snapshot written by the same
// spec, returning the engine and the image's oplog mark. For the
// flagship the image is self-describing; for the comparison schemes
// the table geometry is rebuilt from spec and the image header's spec
// fingerprint guards against reopening with mismatched parameters.
func Load(spec Spec, path string) (Engine, uint64, error) {
	spec, err := normalize(spec)
	if err != nil {
		return nil, 0, err
	}
	if spec.Name == "grouphash" {
		return grouphash.LoadSnapshotMark(path, true)
	}
	return loadAdapter(spec, path)
}

// Recovery reports what Restart found on disk.
type Recovery struct {
	// Loaded reports that an image was loaded; Items is its item count
	// and Mark its oplog mark (both 0 without an image).
	Loaded bool
	Items  uint64
	Mark   uint64
	// Replayed is the number of log records applied past Mark, and
	// ReplayTime the wall time oplog.Replay took (0 without a log).
	Replayed   int
	ReplayTime time.Duration
}

// Restart is process-restart recovery: load image if the file exists
// (else build a fresh engine with New), replay the log based at
// logBase past the image's mark through oplog.Replay, and open the log
// to continue at the LSN after the last record. An empty image or
// logBase means none; without a log Restart returns a nil *oplog.Log.
// Replay can leave an online expansion migrating, so settle the engine
// with an empty Quiesce before auditing it offline. On a replay error
// Restart drops the engine: with the log split over several workers,
// records past the refused one may already be applied, so the caller
// recovers again from the image.
func Restart(spec Spec, image, logBase string, cfg oplog.Config) (Engine, *oplog.Log, Recovery, error) {
	var rec Recovery
	var e Engine
	var err error
	if _, statErr := os.Stat(image); statErr == nil {
		if e, rec.Mark, err = Load(spec, image); err != nil {
			return nil, nil, rec, fmt.Errorf("engine: loading image %s: %w", image, err)
		}
		rec.Loaded, rec.Items = true, e.Len()
	} else if e, err = New(spec); err != nil {
		return nil, nil, rec, err
	}
	if logBase == "" {
		return e, nil, rec, nil
	}
	var next uint64
	start := time.Now()
	rec.Replayed, next, err = oplog.Replay(e, logBase, rec.Mark)
	rec.ReplayTime = time.Since(start)
	if err != nil {
		return nil, nil, rec, fmt.Errorf("engine: replaying oplog %s: %w", logBase, err)
	}
	lg, err := oplog.OpenConfig(logBase, next, cfg)
	if err != nil {
		return nil, nil, rec, fmt.Errorf("engine: opening oplog %s: %w", logBase, err)
	}
	return e, lg, rec, nil
}
