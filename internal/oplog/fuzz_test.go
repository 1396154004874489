package oplog

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"grouphash/internal/layout"
)

// fuzzSeedSegments builds a real two-segment log and returns the raw
// bytes of both segment files — the honest starting points the fuzzer
// mutates from.
func fuzzSeedSegments(f *testing.F) ([]byte, []byte) {
	base := filepath.Join(f.TempDir(), "log")
	l, err := OpenConfig(base, 1, Config{})
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		appendOne(l, OpPut, layout.Key{Lo: i}, i*100)
	}
	if err := l.WaitDurable(5); err != nil {
		f.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		f.Fatal(err)
	}
	for i := uint64(6); i <= 9; i++ {
		appendOne(l, OpInsert, layout.Key{Lo: i, Hi: i}, i)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	seg1, err := os.ReadFile(segPath(base, 1))
	if err != nil {
		f.Fatal(err)
	}
	seg2, err := os.ReadFile(segPath(base, 2))
	if err != nil {
		f.Fatal(err)
	}
	return seg1, seg2
}

// FuzzOplogScan mutates raw segment bytes and asserts recovery's
// load-bearing invariants hold against ANY on-disk state, not just the
// states crashes can produce:
//
//   - Scan never panics and never yields a record with LSN ≤ after;
//   - yielded LSNs are strictly increasing (no duplicates, no
//     reordering — the exactly-once replay property);
//   - the replayed count equals the number of fn calls and the
//     returned next LSN is past every yielded record;
//   - torn-tail tolerance: appending arbitrary garbage after valid
//     records never disturbs the valid prefix's replay.
func FuzzOplogScan(f *testing.F) {
	seg1, seg2 := fuzzSeedSegments(f)
	f.Add(seg1, seg2, uint16(0))
	f.Add(seg1[:len(seg1)-13], seg2, uint16(2))                  // torn tail mid-record
	f.Add(seg1[:SegHeaderLen-5], seg2, uint16(0))                // torn header
	f.Add(seg2, seg1, uint16(0))                                 // segments swapped: overlap/ordering stress
	f.Add([]byte{}, []byte{}, uint16(9))                         // empty files
	f.Add(make([]byte, SegHeaderLen+RecordLen), seg2, uint16(0)) // zeroed bytes

	f.Fuzz(func(t *testing.T, a, b []byte, after16 uint16) {
		dir := t.TempDir()
		base := filepath.Join(dir, "log")
		if err := os.WriteFile(segPath(base, 1), a, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segPath(base, 2), b, 0o644); err != nil {
			t.Fatal(err)
		}
		after := uint64(after16)
		var lsns []uint64
		next, replayed, err := Scan(base, after, func(r Record) error {
			lsns = append(lsns, r.LSN)
			return nil
		})
		// err != nil (the overlap refusal) is a legal outcome; the
		// invariants below must hold for whatever was yielded first.
		_ = err
		if replayed != len(lsns) {
			t.Fatalf("replayed=%d but fn saw %d records", replayed, len(lsns))
		}
		for i, l := range lsns {
			if l <= after {
				t.Fatalf("yielded LSN %d ≤ after %d", l, after)
			}
			if i > 0 && l <= lsns[i-1] {
				t.Fatalf("LSNs out of order: %d after %d", l, lsns[i-1])
			}
		}
		if len(lsns) > 0 && next <= lsns[len(lsns)-1] {
			t.Fatalf("next=%d not past highest yielded LSN %d", next, lsns[len(lsns)-1])
		}
		if next < 1 {
			t.Fatalf("next=%d, the LSN space starts at 1", next)
		}

		// Torn-tail property: a segment holding 3 known-valid records
		// followed by the fuzz input's bytes must still replay those 3
		// records intact — garbage can only cut a tail off, never corrupt
		// or reorder what a covered fsync already made durable.
		tornBase := filepath.Join(dir, "torn")
		// Build the segment in memory (writeSegHeader would fsync the
		// file and directory — far too slow inside a fuzz loop).
		hdr := make([]byte, SegHeaderLen)
		binary.LittleEndian.PutUint64(hdr[0:8], segMagic)
		binary.LittleEndian.PutUint64(hdr[8:16], 1)  // seq
		binary.LittleEndian.PutUint64(hdr[16:24], 1) // start LSN
		binary.LittleEndian.PutUint32(hdr[24:28], crc32.Checksum(hdr[:24], crcTable))
		want := []Record{
			{LSN: 1, Op: OpPut, Key: layout.Key{Lo: 11}, Value: 110},
			{LSN: 2, Op: OpDelete, Key: layout.Key{Lo: 22, Hi: 1}},
			{LSN: 3, Op: OpInsert, Key: layout.Key{Lo: 33}, Value: 330},
		}
		body := hdr
		for _, r := range want {
			body = appendRecord(body, r)
		}
		if err := os.WriteFile(segPath(tornBase, 1), append(body, a...), 0o644); err != nil {
			t.Fatal(err)
		}
		var got []Record
		_, n, err := Scan(tornBase, 0, func(r Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("torn-tail scan: %v", err)
		}
		if n < len(want) {
			t.Fatalf("torn tail swallowed valid records: replayed %d, want ≥ %d", n, len(want))
		}
		for i, w := range want {
			if got[i] != w {
				t.Fatalf("record %d = %+v, want %+v", i, got[i], w)
			}
		}
		// Any extra records the suffix happened to continue with must
		// keep the sequence strict.
		for i := len(want); i < len(got); i++ {
			if got[i].LSN != uint64(i)+1 {
				t.Fatalf("suffix record %d has LSN %d", i, got[i].LSN)
			}
		}
	})
}
