package pmfs

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzLoadImage feeds arbitrary bytes to the image parser, which reads
// files a crash or a bad disk controls. It must never panic, and an
// image it accepts must satisfy the format's invariants — watermark
// within the region, extents sorted, disjoint, non-empty and below the
// watermark — and re-save byte-identically. The seeds include
// version-1 and version-2 images, which must be refused.
func FuzzLoadImage(f *testing.F) {
	small := &Image{
		Size: 4096, Allocated: 4000, Root: 64, Mark: 9,
		Freed: []Extent{{Addr: 128, Len: 256}, {Addr: 384, Len: 64}, {Addr: 1024, Len: 8}},
		Pages: [][]uint64{make([]uint64, PageWords)},
	}
	small.Pages[0][0], small.Pages[0][511] = 0x47524f5550480001, 7
	var v3 bytes.Buffer
	if _, err := small.WriteTo(&v3); err != nil {
		f.Fatal(err)
	}
	f.Add(v3.Bytes())
	v2 := make([]byte, 40, 40+24)
	for i, w := range []uint64{magicV2, 24, 16, 8, 3} {
		binary.LittleEndian.PutUint64(v2[i*8:], w)
	}
	f.Add(append(v2, bytes.Repeat([]byte{0xa5}, 24)...))
	f.Add(withCRC(magicV1, 8, 8, 0, 1))
	f.Add(withCRC(Magic, 0, 0, 0, 0, 0))
	f.Add([]byte("not an image"))

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := readImage(bytes.NewReader(data), uint64(len(data)))
		if err != nil {
			return
		}
		if img.Allocated > img.Size {
			t.Fatalf("accepted watermark %d above the %d-byte region", img.Allocated, img.Size)
		}
		var prev uint64
		for i, e := range img.Freed {
			if e.Len == 0 || e.Addr < prev || e.End() < e.Addr || e.End() > img.Allocated {
				t.Fatalf("accepted extent %d %+v after %d, watermark %d", i, e, prev, img.Allocated)
			}
			prev = e.End()
		}
		var out bytes.Buffer
		if _, err := img.WriteTo(&out); err != nil {
			t.Fatalf("accepted image does not re-save: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatal("re-saved image differs from the accepted input")
		}
	})
}
