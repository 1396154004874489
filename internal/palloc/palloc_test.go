package palloc

import (
	"testing"

	"grouphash/internal/native"
)

func TestAllocFreeCycle(t *testing.T) {
	mem := native.New(1 << 16)
	p := New(mem, 24, 10)
	if p.blockSize != 24 || p.Blocks() != 10 || p.InUse() != 0 {
		t.Fatalf("geometry: %d/%d/%d", p.blockSize, p.Blocks(), p.InUse())
	}
	var addrs []uint64
	for i := 0; i < 10; i++ {
		a, err := p.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		addrs = append(addrs, a)
	}
	if p.InUse() != 10 {
		t.Fatalf("InUse = %d", p.InUse())
	}
	if _, err := p.Alloc(); err != ErrPoolFull {
		t.Fatalf("full pool alloc = %v", err)
	}
	// Blocks are distinct and block-aligned.
	seen := map[uint64]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatal("duplicate block")
		}
		seen[a] = true
		p.Index(a) // must not panic
	}
	p.Free(addrs[3])
	p.Free(addrs[7])
	if p.InUse() != 8 {
		t.Fatalf("InUse = %d", p.InUse())
	}
	a, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if a != addrs[3] && a != addrs[7] {
		t.Fatal("freed blocks not reused")
	}
}

func TestBlockSizeRounding(t *testing.T) {
	mem := native.New(1 << 16)
	p := New(mem, 17, 4)
	if p.blockSize != 24 {
		t.Fatalf("block size = %d, want word-rounded 24", p.blockSize)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	mem := native.New(1 << 16)
	p := New(mem, 16, 4)
	a, _ := p.Alloc()
	p.Free(a)
	defer func() {
		if recover() == nil {
			t.Fatal("expected double-free panic")
		}
	}()
	p.Free(a)
}

func TestIndexValidation(t *testing.T) {
	mem := native.New(1 << 16)
	p := New(mem, 16, 4)
	for _, f := range []func(){
		func() { p.Index(3) },                // before arena / misaligned
		func() { p.Index(p.Addr(0) + 5) },    // misaligned
		func() { p.Index(p.Addr(3) + 16*4) }, // past the arena
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRebuildReclaimsLeaks(t *testing.T) {
	mem := native.New(1 << 16)
	p := New(mem, 16, 8)
	a0, _ := p.Alloc()
	a1, _ := p.Alloc()
	a2, _ := p.Alloc()
	_ = a1 // a1 will be "leaked": allocated but not reachable

	leaked := p.Rebuild(func(yield func(uint64)) {
		yield(a0)
		yield(a2)
	})
	if leaked != 1 {
		t.Fatalf("leaked = %d, want 1", leaked)
	}
	if p.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", p.InUse())
	}
	// The reclaimed block is allocatable again.
	got, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if got != a1 {
		t.Fatalf("realloc = %d, want the reclaimed %d", got, a1)
	}
}

func TestRebuildSetsMissingBits(t *testing.T) {
	// The dual crash case: the application reaches a block whose bit
	// was never persisted... which our protocol prevents (bit set
	// before linking), but Rebuild must handle it anyway for
	// idempotence: a bit cleared for a reachable block gets re-set.
	mem := native.New(1 << 16)
	p := New(mem, 16, 4)
	a, _ := p.Alloc()
	p.Free(a) // bit cleared; pretend the app still references it
	if n := p.Rebuild(func(yield func(uint64)) { yield(a) }); n != 0 {
		t.Fatalf("reclaimed %d, want 0", n)
	}
	if p.InUse() != 1 {
		t.Fatalf("InUse = %d", p.InUse())
	}
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err) // 3 blocks remain
	}
}

func TestFootprint(t *testing.T) {
	mem := native.New(1 << 20)
	p := New(mem, 32, 100)
	want := uint64(2*8 + 100*32) // 100 bits → 2 bitmap words
	if p.FootprintBytes() != want {
		t.Fatalf("footprint = %d, want %d", p.FootprintBytes(), want)
	}
}

func TestManyBlocksAcrossBitmapWords(t *testing.T) {
	mem := native.New(1 << 20)
	p := New(mem, 16, 200) // 4 bitmap words
	addrs := make([]uint64, 200)
	for i := range addrs {
		a, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = a
	}
	for i := 0; i < 200; i += 2 {
		p.Free(addrs[i])
	}
	for i := 0; i < 100; i++ {
		if _, err := p.Alloc(); err != nil {
			t.Fatalf("realloc %d: %v", i, err)
		}
	}
	if _, err := p.Alloc(); err != ErrPoolFull {
		t.Fatal("pool should be exactly full")
	}
}
