package trace

import (
	"math/rand"

	"grouphash/internal/layout"
)

// YCSB-style mixed workloads (Cooper et al., SoCC 2010) — the standard
// key-value benchmark suite a persistent hash table gets evaluated on
// in production settings. The paper uses single-operation phases; the
// YCSB mixes exercise the same operations under realistic interleaving
// and skew, and drive the extension experiments.
//
// Core workload mixes implemented:
//
//	A  update-heavy   50% read / 50% update, zipfian keys
//	B  read-mostly    95% read /  5% update, zipfian keys
//	C  read-only     100% read, zipfian keys
//	D  read-latest   95% read /  5% insert, reads skewed to recent keys
//	F  read-modify-write  50% read / 50% RMW, zipfian keys

// YCSBOp is the operation class of one workload step.
type YCSBOp int

// Operation classes.
const (
	YCSBRead YCSBOp = iota
	YCSBUpdate
	YCSBInsert
	YCSBRMW
)

// String names the op class.
func (op YCSBOp) String() string {
	switch op {
	case YCSBRead:
		return "read"
	case YCSBUpdate:
		return "update"
	case YCSBInsert:
		return "insert"
	case YCSBRMW:
		return "rmw"
	}
	return "unknown"
}

// YCSBStep is one operation of a YCSB run.
type YCSBStep struct {
	Op   YCSBOp
	Item Item
}

// YCSB generates a workload mix over a keyspace of sequentially
// inserted records (keys 1..Records loaded first, inserts extending
// it). Deterministic for a given (workload, seed).
type YCSB struct {
	workload byte
	records  uint64
	seed     int64

	rng     *rand.Rand
	zipf    *Zipfian
	maxKey  uint64
	counter uint64
}

// NewYCSB creates a generator for workload 'a', 'b', 'c', 'd' or 'f'
// over the given loaded record count.
func NewYCSB(workload byte, records uint64, seed int64) *YCSB {
	switch workload {
	case 'a', 'b', 'c', 'd', 'f':
	default:
		panic("trace: YCSB workload must be one of a, b, c, d, f")
	}
	if records == 0 {
		panic("trace: YCSB needs a loaded record count")
	}
	y := &YCSB{workload: workload, records: records, seed: seed}
	y.Reset()
	return y
}

// Name identifies the workload.
func (y *YCSB) Name() string { return "YCSB-" + string(rune(y.workload+'A'-'a')) }

// KeyBytes implements the trace key-size convention (8-byte keys).
func (y *YCSB) KeyBytes() int { return 8 }

// Records returns the initial record count (keys 1..Records must be
// loaded before running the mix).
func (y *YCSB) Records() uint64 { return y.records }

// Reset rewinds the generator.
func (y *YCSB) Reset() {
	y.rng = rand.New(rand.NewSource(y.seed))
	// YCSB's default zipfian constant, at its actual value now that
	// the tunable generator exists (earlier revisions approximated it
	// with rand.NewZipf s=1.001, which needs s > 1).
	y.zipf = NewZipfian(y.seed^0x5bd1e995, y.records, 0.99)
	y.maxKey = y.records
	y.counter = 0
}

// pick draws a skewed existing key in [1, maxKey].
func (y *YCSB) pick() uint64 {
	k := y.zipf.Next() + 1
	if k > y.maxKey {
		k = y.maxKey
	}
	return k
}

// pickLatest draws a key skewed towards the most recent inserts
// (workload D's "latest" distribution): rank 0 is the newest key.
func (y *YCSB) pickLatest() uint64 {
	off := y.zipf.Next()
	if off >= y.maxKey {
		off = y.maxKey - 1
	}
	return y.maxKey - off
}

// Next produces the next step of the mix.
func (y *YCSB) Next() YCSBStep {
	y.counter++
	r := y.rng.Float64()
	switch y.workload {
	case 'a':
		if r < 0.5 {
			return YCSBStep{Op: YCSBRead, Item: Item{Key: key64(y.pick())}}
		}
		return YCSBStep{Op: YCSBUpdate, Item: Item{Key: key64(y.pick()), Value: y.counter}}
	case 'b':
		if r < 0.95 {
			return YCSBStep{Op: YCSBRead, Item: Item{Key: key64(y.pick())}}
		}
		return YCSBStep{Op: YCSBUpdate, Item: Item{Key: key64(y.pick()), Value: y.counter}}
	case 'c':
		return YCSBStep{Op: YCSBRead, Item: Item{Key: key64(y.pick())}}
	case 'd':
		if r < 0.95 {
			return YCSBStep{Op: YCSBRead, Item: Item{Key: key64(y.pickLatest())}}
		}
		y.maxKey++
		return YCSBStep{Op: YCSBInsert, Item: Item{Key: key64(y.maxKey), Value: y.counter}}
	default: // 'f'
		if r < 0.5 {
			return YCSBStep{Op: YCSBRead, Item: Item{Key: key64(y.pick())}}
		}
		return YCSBStep{Op: YCSBRMW, Item: Item{Key: key64(y.pick()), Value: y.counter}}
	}
}

// key64 builds a one-word key (YCSB keys are dense record ids; ours
// start at 1 because the compact layout reserves 0).
func key64(id uint64) layout.Key {
	return layout.Key{Lo: id}
}
