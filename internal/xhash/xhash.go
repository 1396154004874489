// Package xhash provides the hash functions used by every table in this
// repository: strong 64-bit finalizers (for single-function schemes such
// as group hashing and linear probing) and a seeded multiply-xorshift
// family (for the two-function schemes, PFHT and path hashing). All
// functions are implemented from scratch over the stdlib only and are
// deterministic across platforms.
package xhash

// Mix64 is the splitmix64 finalizer: a full-avalanche bijective mixer.
// Bijectivity matters for the RandomNum trace, whose keys are already
// near-uniform — a bijection cannot introduce collisions of its own.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash64 hashes a 64-bit key under a seed. Different seeds give
// effectively independent functions (xor-fold the seed, then mix).
func Hash64(x, seed uint64) uint64 {
	return Mix64(x ^ (seed * 0x9e3779b97f4a7c15))
}

// Hash128 hashes a 128-bit key (lo, hi) under a seed, combining the
// halves with distinct odd multipliers before finalising.
func Hash128(lo, hi, seed uint64) uint64 {
	h := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	h ^= Mix64(lo + 0x8cb92ba72f3d8dd7)
	h = h*0xff51afd7ed558ccd + 1
	h ^= Mix64(hi + 0xc4ceb9fe1a85ec53)
	return Mix64(h)
}

// Func is a seeded hash function mapping a (lo, hi) key to a bucket in
// [0, Buckets). Buckets must be a power of two; the high bits of the
// mixed value are used, which are the best-avalanched bits of Mix64.
type Func struct {
	seed    uint64
	mask    uint64
	shift   uint
	twoWord bool
}

// NewFunc creates a hash function onto [0, buckets) for one- or
// two-word keys. buckets must be a power of two.
func NewFunc(seed uint64, buckets uint64, twoWordKeys bool) Func {
	if buckets == 0 || buckets&(buckets-1) != 0 {
		panic("xhash: bucket count must be a power of two")
	}
	shift := uint(64)
	for b := buckets; b > 1; b >>= 1 {
		shift--
	}
	return Func{seed: seed, mask: buckets - 1, shift: shift, twoWord: twoWordKeys}
}

// Index maps a key to its bucket.
func (f Func) Index(lo, hi uint64) uint64 {
	var h uint64
	if f.twoWord {
		h = Hash128(lo, hi, f.seed)
	} else {
		h = Hash64(lo, f.seed)
	}
	return h >> f.shift & f.mask
}

// Tag derives a short fingerprint of the key, independent of the bucket
// index bits, for storing in the spare bits of a cell's meta word. Never
// zero, so a zero tag field always means "no tag stored".
func Tag(lo, hi uint64, bits uint) uint64 {
	h := Hash128(lo, hi, 0x51ed270b7a2cadf5)
	t := h & (1<<bits - 1)
	if t == 0 {
		t = 1
	}
	return t
}

// Fingerprint derives a 1-byte tag of the key for the DRAM probe-filter
// sidecar: the top byte of an independent full-avalanche hash, so it is
// uncorrelated with any table's index bits (which come from a seeded
// Hash64/Hash128, not this fixed-salt one) and stays valid across
// expansions. Never zero — zero is the sidecar's empty-cell marker.
func Fingerprint(lo, hi uint64) byte {
	b := byte(Hash128(lo, hi, 0xd1b54a32d192ed03) >> 56)
	if b == 0 {
		b = 1
	}
	return b
}
