package xhash

import (
	"testing"
	"testing/quick"
)

func TestMix64IsBijective(t *testing.T) {
	// Spot-check injectivity on a structured sample; a full proof is
	// algebraic (each step of splitmix64 is invertible).
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 100000; i++ {
		h := Mix64(i)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Mix64 collision: %d and %d -> %#x", prev, i, h)
		}
		seen[h] = i
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Mix64(0x0123456789abcdef)
	for bit := uint(0); bit < 64; bit++ {
		h := Mix64(0x0123456789abcdef ^ 1<<bit)
		diff := popcount(base ^ h)
		if diff < 12 || diff > 52 {
			t.Fatalf("bit %d: only %d output bits changed", bit, diff)
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestHash64SeedsIndependent(t *testing.T) {
	same := 0
	const n = 10000
	for i := uint64(0); i < n; i++ {
		if Hash64(i, 1)&1023 == Hash64(i, 2)&1023 {
			same++
		}
	}
	// Expected collisions: n/1024 ≈ 10. Allow generous slack.
	if same > 60 {
		t.Fatalf("seeds 1 and 2 agree on %d of %d low-bit buckets", same, n)
	}
}

func TestNewFuncValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for non-power-of-two buckets")
			}
		}()
		NewFunc(1, 100, false)
	}()
}

func TestFuncRangeAndDeterminism(t *testing.T) {
	f := NewFunc(7, 1024, false)
	if f.mask+1 != 1024 {
		t.Fatalf("buckets = %d", f.mask+1)
	}
	for i := uint64(0); i < 10000; i++ {
		idx := f.Index(i, 0)
		if idx >= 1024 {
			t.Fatalf("index %d out of range", idx)
		}
		if idx != f.Index(i, 0) {
			t.Fatal("nondeterministic index")
		}
	}
}

func TestFuncSingleBucket(t *testing.T) {
	f := NewFunc(1, 1, false)
	if f.Index(12345, 0) != 0 {
		t.Fatal("single-bucket function must map everything to 0")
	}
}

func TestFuncUniformity(t *testing.T) {
	const buckets = 256
	const n = buckets * 1000
	f := NewFunc(3, buckets, false)
	counts := make([]int, buckets)
	for i := uint64(0); i < n; i++ {
		counts[f.Index(i, 0)]++
	}
	// Each bucket expects 1000; chi-square-ish sanity bounds.
	for b, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("bucket %d has %d items, expected ~1000", b, c)
		}
	}
}

func TestTwoWordKeysUseHighWord(t *testing.T) {
	f := NewFunc(5, 4096, true)
	differ := false
	for i := uint64(0); i < 64 && !differ; i++ {
		if f.Index(42, i) != f.Index(42, i+1) {
			differ = true
		}
	}
	if !differ {
		t.Fatal("two-word hash ignores the high word")
	}
}

func TestTagNeverZero(t *testing.T) {
	for i := uint64(0); i < 100000; i++ {
		if Tag(i, i*3, 48) == 0 {
			t.Fatalf("zero tag for key %d", i)
		}
	}
	if Tag(0, 0, 48) == 0 {
		t.Fatal("zero tag for zero key")
	}
}

func TestTagFitsWidth(t *testing.T) {
	f := func(lo, hi uint64) bool {
		return Tag(lo, hi, 16) < 1<<16 && Tag(lo, hi, 48) < 1<<48
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Hash128 distinguishes lo and hi swaps.
func TestQuickHash128OrderSensitive(t *testing.T) {
	f := func(lo, hi uint64) bool {
		if lo == hi {
			return true
		}
		return Hash128(lo, hi, 9) != Hash128(hi, lo, 9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
