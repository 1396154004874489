package pmfs

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"grouphash/internal/cache"
	"grouphash/internal/core"
	"grouphash/internal/layout"
	"grouphash/internal/memsim"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.img")

	mem := memsim.New(memsim.Config{Size: 1 << 20, Seed: 1, Geoms: cache.SmallGeometry()})
	tab, err := core.Create(mem, core.Options{Cells: 1024, GroupSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 500; i++ {
		if err := tab.Insert(layout.Key{Lo: i}, i*2); err != nil {
			t.Fatal(err)
		}
	}
	img := Capture(mem)
	img.Root = tab.Header()
	if err := SaveImage(path, img); err != nil {
		t.Fatal(err)
	}

	// "Reboot": an entirely new machine from the image.
	mem2, root, err := Load(path, memsim.Config{Seed: 2, Geoms: cache.SmallGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	tab2, err := core.Open(mem2, root)
	if err != nil {
		t.Fatal(err)
	}
	if tab2.Len() != 500 {
		t.Fatalf("reloaded Len = %d", tab2.Len())
	}
	for i := uint64(1); i <= 500; i++ {
		if v, ok := tab2.Lookup(layout.Key{Lo: i}); !ok || v != i*2 {
			t.Fatalf("reloaded key %d = (%d, %v)", i, v, ok)
		}
	}
	if bad := tab2.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("inconsistencies after reload: %v", bad)
	}
	// The allocator must continue from the stored watermark, not
	// clobber the table.
	if mem2.Allocated() != mem.Allocated() {
		t.Fatalf("watermark %d, want %d", mem2.Allocated(), mem.Allocated())
	}
	addr := mem2.Alloc(64, 8)
	if addr < mem.Allocated() {
		t.Fatal("new allocation overlaps reloaded structures")
	}
}

func TestSavePersistsDirtyState(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dirty.img")
	mem := memsim.New(memsim.Config{Size: 1 << 16, Seed: 1, Geoms: cache.SmallGeometry()})
	mem.Write8(0, 99) // dirty, never explicitly persisted
	if err := SaveImage(path, Capture(mem)); err != nil {
		t.Fatal(err)
	}
	mem2, _, err := Load(path, memsim.Config{Seed: 1, Geoms: cache.SmallGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	if mem2.Read8(0) != 99 {
		t.Fatal("Capture must clean-shutdown first")
	}
}

func TestLoadRejectsCorruptImages(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]byte{
		"truncated": make([]byte, 8),
		"badmagic":  make([]byte, 64),
		// Valid checksums, so each is refused for its own defect.
		"badwatermark": withCRC(Magic, 8, 4096, 0, 0, 0, 0),
		"sizemismatch": withCRC(Magic, 16, 8, 0, 0, 0, 0),
		"v2sizemismatch": func() []byte {
			b := withCRC(magicV2, 16, 8, 0, 0, 0)
			return b[:len(b)-CRCBytes]
		}(),
	}
	for name, data := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Load(p, memsim.Config{}); err == nil {
			t.Errorf("%s: corrupt image accepted", name)
		}
	}
	if _, _, err := Load(filepath.Join(dir, "missing"), memsim.Config{}); err == nil {
		t.Error("missing file accepted")
	}
}

// withCRC encodes words little-endian and appends their CRC32C: a
// hand-built image whose checksum is right, whatever else is wrong.
func withCRC(words ...uint64) []byte {
	b := make([]byte, 8*len(words), 8*len(words)+CRCBytes)
	for i, w := range words {
		binary.LittleEndian.PutUint64(b[i*8:], w)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "atomic.img")
	mem := memsim.New(memsim.Config{Size: 1 << 16, Seed: 1, Geoms: cache.SmallGeometry()})
	mem.Write8(0, 1)
	if err := SaveImage(path, Capture(mem)); err != nil {
		t.Fatal(err)
	}
	// A second save over the same path succeeds and leaves no temp
	// droppings.
	mem.Write8(0, 2)
	if err := SaveImage(path, Capture(mem)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the image", len(entries))
	}
	mem2, _, err := Load(path, memsim.Config{Geoms: cache.SmallGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	if mem2.Read8(0) != 2 {
		t.Fatal("second save not visible")
	}
}

// sampleImage is a four-page region whose two middle pages are freed
// wholly by two adjacent extents that straddle page boundaries, with a
// partial last page: the body holds pages 0 and 3 only.
func sampleImage() *Image {
	img := &Image{
		Size: 3*PageBytes + 100, Allocated: 3*PageBytes + 100, Root: 42, Mark: 777,
		Freed: []Extent{{Addr: 4096, Len: PageBytes}, {Addr: PageBytes + 4096, Len: 2*PageBytes - 4096}},
		Pages: [][]uint64{make([]uint64, PageWords), make([]uint64, PageWords)},
	}
	for i := range img.Pages[0] {
		img.Pages[0][i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for i := range 12 {
		img.Pages[1][i] = uint64(i + 1)
	}
	img.Pages[1][12] = 0xabcd // bytes 96..99; 100.. lie past the region
	return img
}

// TestSaveImageLoadImageRoundtrip checks the backend-neutral image path
// the network server snapshots through: a sparse version-3 image —
// freed extents, pages left out, a partial last page, the oplog mark —
// loads back equal, and its file holds only the live pages.
func TestSaveImageLoadImageRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "raw.img")
	want := sampleImage()
	if err := SaveImage(path, want); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if size := HeaderBytes + 2*ExtentBytes + PageBytes + 100 + CRCBytes; st.Size() != int64(size) {
		t.Fatalf("file is %d bytes, want %d (two live pages, one partial)", st.Size(), size)
	}
	got, err := LoadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip: got size %d, watermark %d, root %d, mark %d, extents %v, %d pages",
			got.Size, got.Allocated, got.Root, got.Mark, got.Freed, len(got.Pages))
	}
	dense := got.Bytes()
	if uint64(len(dense)) != want.Size || dense[2*PageBytes] != 0 || dense[3*PageBytes+96] != 0xcd {
		t.Fatal("Bytes: freed pages not zero or live page misplaced")
	}
	// Overwrite in place: the rename path must replace, not append.
	small := &Image{Size: 8, Allocated: 8, Root: 7, Pages: [][]uint64{make([]uint64, PageWords)}}
	if err := SaveImage(path, small); err != nil {
		t.Fatal(err)
	}
	if got, err = LoadImage(path); err != nil || got.Size != 8 || got.Root != 7 {
		t.Fatalf("second roundtrip = (%+v, %v)", got, err)
	}
}

// TestLoadImageV1Compat pins the compatibility contract: version-1
// images (written before the oplog existed, no meta word) are refused
// with an error that names their version.
func TestLoadImageV1Compat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.img")
	body := []byte{9, 8, 7, 6, 5, 4, 3, 2}
	buf := make([]byte, 32+len(body))
	binary.LittleEndian.PutUint64(buf[0:8], magicV1)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(body)))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(len(body)))
	binary.LittleEndian.PutUint64(buf[24:32], 3)
	copy(buf[32:], body)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadImage(path)
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 image: err = %v, want a refusal naming version 1", err)
	}
}

// TestLoadImageV2Compat: a dense version-2 image (the format before
// this one) still loads, as an image with no freed extents, so a
// server upgraded across the format change restarts from its last
// image.
func TestLoadImageV2Compat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.img")
	body := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	buf := make([]byte, 40, 40+len(body))
	for i, w := range []uint64{magicV2, uint64(len(body)), 11, 42, 777} {
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	if err := os.WriteFile(path, append(buf, body...), 0o644); err != nil {
		t.Fatal(err)
	}
	img, err := LoadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if img.Allocated != 11 || img.Root != 42 || img.Mark != 777 || len(img.Freed) != 0 || string(img.Bytes()) != string(body) {
		t.Fatalf("v2 load = (%d, %d, %d, %v, %v)", img.Allocated, img.Root, img.Mark, img.Freed, img.Bytes())
	}
}

// TestLoadImageRejectsBadExtents: extents that are unsorted, overlap,
// are empty or reach past the watermark are refused even when the
// checksum is right.
func TestLoadImageRejectsBadExtents(t *testing.T) {
	dir := t.TempDir()
	const w = 3 * PageBytes
	for name, ext := range map[string][]uint64{
		"unsorted":       {2 * PageBytes, 8, PageBytes, 8},
		"overlapping":    {PageBytes, 64, PageBytes + 32, 64},
		"empty":          {PageBytes, 0},
		"past watermark": {2 * PageBytes, PageBytes + 8},
		"wrapping":       {PageBytes, ^uint64(0)},
	} {
		words := append([]uint64{Magic, w, w, 0, 0, uint64(len(ext) / 2)}, ext...)
		p := filepath.Join(dir, "img")
		if err := os.WriteFile(p, withCRC(words...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadImage(p); err == nil || !strings.Contains(err.Error(), "extent") {
			t.Errorf("%s: err = %v, want an extent refusal", name, err)
		}
	}
}

// TestLoadImageRejectsBitFlips flips one bit in each part of a written
// image — header, extent list, body page, checksum — and requires a
// loud refusal every time.
func TestLoadImageRejectsBitFlips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flip.img")
	if err := SaveImage(path, sampleImage()); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, off := range map[string]int{
		"header root": 3*8 + 2,
		"extent list": HeaderBytes + ExtentBytes + 3,
		"body page":   HeaderBytes + 2*ExtentBytes + 5000,
		"checksum":    len(good) - 1,
	} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x10
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadImage(path); err == nil {
			t.Errorf("%s: bit flip at byte %d loaded silently", name, off)
		}
	}
}
