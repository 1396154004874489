package native

import (
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	m := New(1 << 12)
	m.Write8(0, 5)
	m.AtomicWrite8(8, 6)
	if m.Read8(0) != 5 || m.Read8(8) != 6 {
		t.Fatal("word round trip failed")
	}
	m.Persist(0, 16) // no-op, must not panic
}

func TestMisalignedPanics(t *testing.T) {
	m := New(64)
	for _, f := range []func(){
		func() { m.Read8(3) },
		func() { m.Write8(5, 1) },
		func() { m.Read8(1 << 20) },
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

func TestAllocGrowsOnDemand(t *testing.T) {
	m := New(64)
	a := m.Alloc(1024, 8) // larger than the initial buffer
	m.Write8(a+1016, 42)
	if m.Read8(a+1016) != 42 {
		t.Fatal("grown region unusable")
	}
	b := m.Alloc(1<<16, 64)
	if b%64 != 0 {
		t.Fatal("alignment lost after growth")
	}
	m.Write8(b, 1)
}

func TestAllocPreservesContents(t *testing.T) {
	m := New(64)
	a := m.Alloc(8, 8)
	m.Write8(a, 1234)
	m.Alloc(1<<20, 8) // forces growth
	if m.Read8(a) != 1234 {
		t.Fatal("growth lost earlier contents")
	}
}

func TestBadAlignmentPanics(t *testing.T) {
	m := New(64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Alloc(8, 12)
}

// Property: disjoint allocations never alias.
func TestQuickAllocationsDisjoint(t *testing.T) {
	f := func(sizes []uint16) bool {
		m := New(1 << 10)
		type span struct{ a, n uint64 }
		var spans []span
		for _, sz := range sizes {
			n := uint64(sz)%512 + 8
			a := m.Alloc(n, 8)
			for _, s := range spans {
				if a < s.a+s.n && s.a < a+n {
					return false
				}
			}
			spans = append(spans, span{a, n})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestImageRoundtrip checks that Capture/Restore move the live content
// faithfully: contents, the watermark (here not word-aligned), the
// freed ranges, and the bytes held.
func TestImageRoundtrip(t *testing.T) {
	m := New(1 << 12)
	a := m.Alloc(64, 8)
	for i := uint64(0); i < 8; i++ {
		m.Write8(a+i*8, 0x1111*(i+1))
	}
	gone := m.Alloc(3*pageBytes, 8) // spans two whole pages
	m.Write8(gone+pageBytes, 5)
	b := m.Alloc(1<<10, 8)
	m.Write8(b, 77)
	m.Alloc(13, 8) // unaligned watermark
	m.Free(gone, 3*pageBytes)
	img := m.Capture()
	if img.Allocated != m.Allocated() || len(img.Pages) != 2 || len(img.Freed) != 1 {
		t.Fatalf("capture: watermark %d (want %d), %d pages (want 2), extents %v",
			img.Allocated, m.Allocated(), len(img.Pages), img.Freed)
	}

	m2 := New(8) // deliberately too small: Restore must grow it
	m2.Restore(img)
	for i := uint64(0); i < 8; i++ {
		if got := m2.Read8(a + i*8); got != 0x1111*(i+1) {
			t.Fatalf("word %d = %#x after roundtrip", i, got)
		}
	}
	if m2.Read8(b) != 77 || m2.Read8(gone+pageBytes) != 0 {
		t.Fatal("live or freed word wrong after roundtrip")
	}
	if m2.Allocated() != m.Allocated() || m2.Live() != m.Live() {
		t.Fatalf("restored watermark %d, live %d; want %d, %d", m2.Allocated(), m2.Live(), m.Allocated(), m.Live())
	}
	if m2.Alloc(8, 8) < m.Allocated() {
		t.Fatal("restored allocator hands out captured addresses")
	}
}

// TestFreePartialPageStays: a freed range that covers no page wholly
// drops nothing, but its bytes read as zero and the rest of the page
// stays writable.
func TestFreePartialPageStays(t *testing.T) {
	m := New(0)
	a := m.Alloc(pageBytes/2, 8)
	b := m.Alloc(64, 8)
	m.Write8(a, 1)
	m.Write8(b, 2)
	m.Free(a, pageBytes/2)
	if m.Live() != m.Allocated() {
		t.Fatalf("live %d after a partial free, want the watermark %d", m.Live(), m.Allocated())
	}
	if m.Read8(a) != 0 || m.Read8(b) != 2 {
		t.Fatal("partial free: freed word not zero or live word lost")
	}
	m.Write8(b, 3) // the page is still live
}

// TestFreeStraddlingPageGoesWhenBothFreed: a page shared by two freed
// ranges is dropped by the second Free, not the first.
func TestFreeStraddlingPageGoesWhenBothFreed(t *testing.T) {
	m := New(0)
	x := m.Alloc(pageBytes+pageBytes/2, 8) // pages 0 and half of 1
	y := m.Alloc(pageBytes, 8)             // rest of page 1, half of 2
	m.Alloc(pageBytes, 8)                  // keeps page 2 live
	m.Free(x, pageBytes+pageBytes/2)
	if got := m.Allocated() - m.Live(); got != pageBytes {
		t.Fatalf("after the first free %d bytes dropped, want one page", got)
	}
	m.Free(y, pageBytes)
	if got := m.Allocated() - m.Live(); got != 2*pageBytes {
		t.Fatalf("after both frees %d bytes dropped, want two pages", got)
	}
	if (*m.pages.Load())[1] != &zeroPage || (*m.pages.Load())[2] == &zeroPage {
		t.Fatal("wrong pages dropped")
	}
}

// TestReadFreedReturnsZero: a lock-free reader probing a retired range
// reads zeros whether its page was dropped or not, and never panics.
func TestReadFreedReturnsZero(t *testing.T) {
	m := New(0)
	a := m.Alloc(3*pageBytes, 8)
	for off := uint64(0); off < 3*pageBytes; off += 4096 {
		m.Write8(a+off, off+1)
	}
	m.Alloc(8, 8)
	m.Free(a, 3*pageBytes)
	for off := uint64(0); off < 3*pageBytes; off += 4096 {
		if got := m.Read8(a + off); got != 0 {
			t.Fatalf("freed word at %d reads %d", a+off, got)
		}
	}
}

// TestFreeMisusePanics pins the guards: a double free, a free past the
// watermark, and a write to a dropped page all panic.
func TestFreeMisusePanics(t *testing.T) {
	m := New(0)
	a := m.Alloc(2*pageBytes, 8)
	m.Alloc(8, 8)
	m.Free(a, 2*pageBytes)
	for name, f := range map[string]func(){
		"double free":      func() { m.Free(a+8, 8) },
		"past watermark":   func() { m.Free(m.Allocated(), 8) },
		"write to dropped": func() { m.Write8(a+pageBytes, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestReleaseOverFreedPanics: Release must not rewind the allocator
// over a freed page, which would hand the shared zero page out again.
func TestReleaseOverFreedPanics(t *testing.T) {
	m := New(0)
	mark := m.Mark()
	a := m.Alloc(2*pageBytes, 8)
	m.Free(a, 2*pageBytes)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Release(mark)
}

// TestMarkReleaseRewindsAndZeroes pins the Reclaimer contract: Release
// rewinds the watermark to the Mark and zeroes everything allocated
// since, so the next Alloc reuses the same (fresh) range.
func TestMarkReleaseRewindsAndZeroes(t *testing.T) {
	m := New(1 << 12)
	keep := m.Alloc(64, 8)
	m.Write8(keep, 7)
	mark := m.Mark()
	a := m.Alloc(256, 64)
	for i := uint64(0); i < 32; i++ {
		m.Write8(a+i*8, 0xdead)
	}
	m.Release(mark)
	if m.Allocated() != mark {
		t.Fatalf("watermark %d after Release, want %d", m.Allocated(), mark)
	}
	b := m.Alloc(256, 64)
	if b != a {
		t.Fatalf("post-release Alloc at %d, want the reclaimed %d", b, a)
	}
	for i := uint64(0); i < 32; i++ {
		if m.Read8(b+i*8) != 0 {
			t.Fatalf("reclaimed word %d not zeroed", i)
		}
	}
	if m.Read8(keep) != 7 {
		t.Fatal("Release damaged memory below the mark")
	}
}

// TestReleaseAboveWatermarkPanics pins the misuse guard.
func TestReleaseAboveWatermarkPanics(t *testing.T) {
	m := New(1 << 12)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Release(m.Mark() + 64)
}

// TestAllocDuringConcurrentAccess exercises the property online
// expansion depends on: growth appends pages without moving existing
// ones, so readers and writers of already-allocated addresses may run
// concurrently with Alloc. Run under -race to make the check meaningful.
func TestAllocDuringConcurrentAccess(t *testing.T) {
	m := New(1 << 10)
	a := m.Alloc(1<<10, 8)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); ; i = (i + 1) % 128 {
			select {
			case <-stop:
				return
			default:
			}
			m.Write8(a+i*8, i)
			if got := m.Read8(a + i*8); got != i {
				t.Errorf("word %d = %d mid-growth", i, got)
				return
			}
		}
	}()
	for i := 0; i < 8; i++ {
		m.Alloc(3<<20, 64) // each call appends pages
	}
	close(stop)
	<-done
}
