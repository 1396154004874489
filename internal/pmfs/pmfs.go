// Package pmfs persists simulated-NVM images to ordinary files — the
// role PMFS plays in the paper's setup (§4.1: "a portion of the DRAM
// region as NVM ... managed by PMFS, which gives direct access to the
// memory region with mmap"). On a machine without persistent memory,
// the closest faithful analogue of a PMFS file is an image file: the
// region's durable bytes plus the metadata needed to remap it — the
// region size, the allocator watermark, and the application's root
// address (the table header).
//
// Format version 3 is page-granular, because the native backend frees
// what online expansion retires one 1 MiB page at a time. A file is:
//
//	header   6 words: magic, region size, allocator watermark, root,
//	         oplog mark, extent count
//	extents  (address, length) word pairs: the freed byte ranges,
//	         sorted, disjoint, non-empty and below the watermark
//	body     every page of [0, size) that the extents do not cover
//	         wholly, in address order (the last page stops at size)
//	crc      CRC32C (Castagnoli) of everything above, 4 bytes
//
// Wholly freed pages are left out of the file and read back as zeros,
// so an image is as large as the memory a store really holds. The
// oplog mark is the LSN of the last operation-log record the image
// covers (0 when no oplog is in play), so recovery knows exactly where
// snapshot state ends and log replay begins. Version-2 images (dense,
// no extents, no checksum) still load; version 1 is refused.
//
// Saves are crash-safe in the ordinary file-system sense: the image is
// written to a temporary file in the target's directory, fsynced,
// renamed over the target, and the parent DIRECTORY is fsynced after
// the rename. All three barriers are required for the "either the old
// image or the new one" guarantee on a real file system: the file
// fsync makes the new bytes durable, the atomic rename switches the
// name, and the directory fsync makes the switch itself durable — on
// POSIX file systems a rename lives in the directory's data, so a
// crash before the directory sync can legally resurrect the old
// directory entry (that still points at the old, intact image — the
// guarantee holds either way, but only because the temp file was
// fully synced BEFORE the rename).
//
// The same image format serves both memory backends: Capture/Load wrap
// the simulated machine (cache write-back, latency model), while the
// native backend captures and restores an Image directly;
// SaveImage/LoadImage move an Image between memory and a file.
package pmfs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"grouphash/internal/memsim"
)

// Magic identifies a format-version-3 pmfs image file.
const Magic = 0x504d46535f474803 // "PMFS_GH" + format version 3

// Earlier formats' magics: version 2 still loads, version 1 is refused
// by name.
const (
	magicV2 = 0x504d46535f474802
	magicV1 = 0x504d46535f474801
)

// Page geometry of the format: the unit the body leaves out when the
// freed extents cover it wholly. The native backend pages its memory
// at the same size, so a capture copies pages whole.
const (
	PageShift = 20
	PageBytes = 1 << PageShift
	PageWords = PageBytes / 8
)

// Header and trailer sizes: HeaderBytes of fixed header, then
// ExtentBytes per freed extent, the body, and CRCBytes of checksum.
const (
	HeaderBytes = 6 * 8
	ExtentBytes = 2 * 8
	CRCBytes    = 4

	headerBytesV2 = 5 * 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Extent is a freed byte range [Addr, Addr+Len).
type Extent struct{ Addr, Len uint64 }

// End returns the first byte past the extent.
func (e Extent) End() uint64 { return e.Addr + e.Len }

// Image is one memory image: the region's live pages plus the metadata
// to remap it.
type Image struct {
	Size      uint64     // bytes of region the image covers
	Allocated uint64     // allocator watermark, at most Size
	Root      uint64     // the application's root address
	Mark      uint64     // oplog mark: last log record the image covers
	Freed     []Extent   // freed ranges: sorted, disjoint, below Allocated
	Pages     [][]uint64 // the live pages in address order, PageWords each
}

// FreedPages calls fn(first, end) for every maximal run of page
// numbers [first, end) that the sorted, disjoint extents cover wholly,
// in address order. Adjacent extents join into one covering range, so
// a page straddling two of them counts once both are present.
func FreedPages(freed []Extent, fn func(first, end uint64)) {
	for i := 0; i < len(freed); {
		lo, hi := freed[i].Addr, freed[i].End()
		for i++; i < len(freed) && freed[i].Addr == hi; i++ {
			hi = freed[i].End()
		}
		if first, end := pagesOf(lo), hi>>PageShift; first < end {
			fn(first, end)
		}
	}
}

// pagesOf returns the page count of a size-byte region.
func pagesOf(size uint64) uint64 {
	n := size >> PageShift
	if size%PageBytes != 0 {
		n++
	}
	return n
}

// livePages returns how many pages of [0, size) the freed extents do
// not cover wholly: the page count of the body.
func livePages(size uint64, freed []Extent) uint64 {
	n := pagesOf(size)
	FreedPages(freed, func(first, end uint64) { n -= end - first })
	return n
}

// bodyBytes is the length of a body of live pages for a size-byte
// region. Only the region's last page can be partial, and a partial
// page cannot be wholly freed, so it is the body's last page.
func bodyBytes(size, live uint64) uint64 {
	n := live * PageBytes
	if tail := size % PageBytes; tail != 0 {
		n -= PageBytes - tail
	}
	return n
}

// checkMeta validates the metadata: watermark within the region, and
// extents sorted, disjoint, non-empty and below the watermark.
func (img *Image) checkMeta() error {
	if img.Allocated > img.Size {
		return fmt.Errorf("corrupt watermark %d for %d-byte region", img.Allocated, img.Size)
	}
	var prev uint64
	for i, e := range img.Freed {
		switch {
		case e.Len == 0 || e.End() < e.Addr:
			return fmt.Errorf("freed extent %d [%d, +%d) is empty or wraps", i, e.Addr, e.Len)
		case e.Addr < prev:
			return fmt.Errorf("freed extent %d at %d is unsorted or overlaps its predecessor", i, e.Addr)
		case e.End() > img.Allocated:
			return fmt.Errorf("freed extent %d ends at %d, past the watermark %d", i, e.End(), img.Allocated)
		}
		prev = e.End()
	}
	return nil
}

// WriteTo encodes img in format version 3, checksum last.
func (img *Image) WriteTo(w io.Writer) (int64, error) {
	if err := img.checkMeta(); err != nil {
		return 0, err
	}
	live := livePages(img.Size, img.Freed)
	if uint64(len(img.Pages)) != live {
		return 0, fmt.Errorf("image has %d body pages, its extents leave %d", len(img.Pages), live)
	}
	for _, pg := range img.Pages {
		if len(pg) != PageWords {
			return 0, fmt.Errorf("body page of %d words, want %d", len(pg), PageWords)
		}
	}
	crc := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		bw.Write(word[:])
	}
	for _, v := range []uint64{Magic, img.Size, img.Allocated, img.Root, img.Mark, uint64(len(img.Freed))} {
		put(v)
	}
	for _, e := range img.Freed {
		put(e.Addr)
		put(e.Len)
	}
	body := bodyBytes(img.Size, live)
	buf := make([]byte, min(body, PageBytes))
	left := body
	for _, pg := range img.Pages {
		n := min(left, PageBytes)
		putPage(buf[:n], pg)
		bw.Write(buf[:n])
		left -= n
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint32(word[:], crc.Sum32())
	if _, err := w.Write(word[:CRCBytes]); err != nil {
		return 0, err
	}
	return int64(HeaderBytes + ExtentBytes*uint64(len(img.Freed)) + body + CRCBytes), nil
}

// Bytes returns the dense contents of [0, Size), zeros where pages
// were freed — the shape the simulated region loads.
func (img *Image) Bytes() []byte {
	out := make([]byte, img.Size)
	next, live := uint64(0), img.Pages
	copyTo := func(end uint64) {
		for ; next < end; next++ {
			putPage(out[next<<PageShift:min(img.Size, (next+1)<<PageShift)], live[0])
			live = live[1:]
		}
	}
	FreedPages(img.Freed, func(first, end uint64) {
		copyTo(first)
		next = end
	})
	copyTo(pagesOf(img.Size))
	return out
}

// Capture cleanly shuts mem down — every dirty line is written back,
// because an image may only contain durable state — and returns its
// region as an image with no freed extents.
func Capture(mem *memsim.Memory) *Image {
	mem.CleanShutdown()
	body := mem.Region().Image()
	size := uint64(len(body))
	img := &Image{Size: size, Allocated: mem.Allocated()}
	for off := uint64(0); off < size; off += PageBytes {
		img.Pages = append(img.Pages, getPage(body[off:min(size, off+PageBytes)]))
	}
	return img
}

// SaveImage crash-safely writes img to path in format version 3: temp
// file in path's directory, write, fsync, rename, directory fsync (see
// the package comment for why each step is needed). The checksum is
// computed here, so a caller that captured img with writers excluded
// spends none of that window on it.
func SaveImage(path string, img *Image) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".pmfs-*")
	if err != nil {
		return fmt.Errorf("pmfs: creating temp image: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if _, err := img.WriteTo(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("pmfs: writing image: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("pmfs: syncing image: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("pmfs: closing image: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("pmfs: publishing image: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename inside it is
// durable, not merely visible.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("pmfs: opening directory for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("pmfs: syncing directory: %w", err)
	}
	return nil
}

// Load reads an image file and builds a fresh simulated machine holding
// its contents, returning the machine and the stored root address. The
// supplied config's Size is overridden by the image's region size; the
// other knobs (seed, latency, geometry) apply to the new machine.
func Load(path string, cfg memsim.Config) (*memsim.Memory, uint64, error) {
	img, err := LoadImage(path)
	if err != nil {
		return nil, 0, err
	}
	cfg.Size = img.Size
	mem := memsim.New(cfg)
	mem.Region().SetImage(img.Bytes())
	mem.SetAllocated(img.Allocated)
	return mem, img.Root, nil
}

// LoadImage reads and validates an image file. A version-3 image is
// returned only after its checksum matched and its extents proved
// sorted, disjoint and below the watermark; a version-2 image loads as
// one with no freed extents.
func LoadImage(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pmfs: reading image: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("pmfs: reading image: %w", err)
	}
	img, err := readImage(bufio.NewReaderSize(f, 1<<16), uint64(st.Size()))
	if err != nil {
		return nil, fmt.Errorf("pmfs: image %s: %w", path, err)
	}
	return img, nil
}

// readImage decodes an n-byte image from r. Every length is checked
// against n before anything is allocated for it, so hostile headers
// cannot force large allocations.
func readImage(r io.Reader, n uint64) (*Image, error) {
	crc := crc32.New(castagnoli)
	tr := io.TeeReader(r, crc)
	var word [8]byte
	get := func() (uint64, error) {
		if _, err := io.ReadFull(tr, word[:]); err != nil {
			return 0, fmt.Errorf("truncated (%d bytes)", n)
		}
		return binary.LittleEndian.Uint64(word[:]), nil
	}
	magic, err := get()
	if err != nil {
		return nil, err
	}
	switch magic {
	case Magic:
	case magicV2:
		return readV2(tr, n, get)
	case magicV1:
		return nil, fmt.Errorf("format version 1 is no longer supported (re-save it with a version-2 or later build)")
	default:
		return nil, fmt.Errorf("bad magic %#x", magic)
	}
	if n < HeaderBytes+CRCBytes {
		return nil, fmt.Errorf("truncated (%d bytes)", n)
	}
	img := &Image{}
	var count uint64
	for _, p := range []*uint64{&img.Size, &img.Allocated, &img.Root, &img.Mark, &count} {
		if *p, err = get(); err != nil {
			return nil, err
		}
	}
	if count > (n-HeaderBytes-CRCBytes)/ExtentBytes {
		return nil, fmt.Errorf("%d freed extents do not fit in %d bytes", count, n)
	}
	for range count {
		var e Extent
		if e.Addr, err = get(); err != nil {
			return nil, err
		}
		if e.Len, err = get(); err != nil {
			return nil, err
		}
		img.Freed = append(img.Freed, e)
	}
	if err := img.checkMeta(); err != nil {
		return nil, err
	}
	// The body must fill the rest of the file exactly; compare page
	// counts first so a hostile size cannot overflow the byte count.
	rest := n - HeaderBytes - ExtentBytes*count - CRCBytes
	live := livePages(img.Size, img.Freed)
	if live > rest>>PageShift+1 || bodyBytes(img.Size, live) != rest {
		return nil, fmt.Errorf("body is %d bytes, header and extents leave %d pages of a %d-byte region", rest, live, img.Size)
	}
	img.Pages = make([][]uint64, live)
	if err := readPages(tr, img.Pages, rest); err != nil {
		return nil, err
	}
	sum := crc.Sum32()
	if _, err := io.ReadFull(r, word[:CRCBytes]); err != nil {
		return nil, fmt.Errorf("truncated (%d bytes)", n)
	}
	if got := binary.LittleEndian.Uint32(word[:]); got != sum {
		return nil, fmt.Errorf("checksum mismatch: file says %#08x, contents hash to %#08x", got, sum)
	}
	return img, nil
}

// readV2 decodes the rest of a dense version-2 image: four more header
// words, then size bytes of body, no extents and no checksum.
func readV2(r io.Reader, n uint64, get func() (uint64, error)) (*Image, error) {
	img := &Image{}
	var err error
	for _, p := range []*uint64{&img.Size, &img.Allocated, &img.Root, &img.Mark} {
		if *p, err = get(); err != nil {
			return nil, err
		}
	}
	if img.Size != n-headerBytesV2 {
		return nil, fmt.Errorf("body is %d bytes, header says %d", n-headerBytesV2, img.Size)
	}
	if err := img.checkMeta(); err != nil {
		return nil, err
	}
	img.Pages = make([][]uint64, pagesOf(img.Size))
	return img, readPages(r, img.Pages, img.Size)
}

// readPages fills pages (allocating each) from body bytes of r; the
// last page may stop short of PageBytes and is zero-padded.
func readPages(r io.Reader, pages [][]uint64, body uint64) error {
	buf := make([]byte, min(body, PageBytes))
	for p := range pages {
		n := min(body, PageBytes)
		if _, err := io.ReadFull(r, buf[:n]); err != nil {
			return fmt.Errorf("body truncated at page %d", p)
		}
		pages[p] = getPage(buf[:n])
		body -= n
	}
	return nil
}

// putPage encodes the first len(dst) bytes of page pg, little-endian.
func putPage(dst []byte, pg []uint64) {
	full := len(dst) &^ 7
	for i := 0; i < full; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], pg[i/8])
	}
	if full < len(dst) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], pg[full/8])
		copy(dst[full:], b[:])
	}
}

// getPage decodes up to a page of little-endian bytes into a fresh
// page, zero-padding past the end of src.
func getPage(src []byte) []uint64 {
	pg := make([]uint64, PageWords)
	full := len(src) &^ 7
	for i := 0; i < full; i += 8 {
		pg[i/8] = binary.LittleEndian.Uint64(src[i:])
	}
	if full < len(src) {
		var b [8]byte
		copy(b[:], src[full:])
		pg[full/8] = binary.LittleEndian.Uint64(b[:])
	}
	return pg
}
