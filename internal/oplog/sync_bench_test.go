package oplog

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"grouphash/internal/core"
	"grouphash/internal/layout"
)

// reportLatency reports the p50 and p99 of lat in microseconds: a sync's
// latency distribution has a long tail, so its mean says little.
func reportLatency(b *testing.B, lat []time.Duration) {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2])/1e3, "p50_us")
	b.ReportMetric(float64(lat[len(lat)*99/100])/1e3, "p99_us")
}

// BenchmarkCommitSync is the fsync probe behind segment growth: one
// group commit — a write of the given size plus its sync — timed in the
// four shapes a segment file can be in. "append" extends the file on
// every commit (a segment past its preallocated end); "overwrite"
// writes into blocks an earlier full fsync allocated and made durable
// (a segment inside a grown step). Run it on the filesystem the log
// lives on, e.g.
//
//	TMPDIR=/data go test -run XXX -bench CommitSync -benchtime 2000x ./internal/oplog
func BenchmarkCommitSync(b *testing.B) {
	const region = 4 << 20 // the overwrite shapes cycle through one grown 4 MiB step
	for _, size := range []int{264, 2640, 9400} {
		for _, shape := range []struct {
			name      string
			overwrite bool
			full      bool
		}{
			{"append-fsync", false, true},
			{"append-fdatasync", false, false},
			{"overwrite-fsync", true, true},
			{"overwrite-fdatasync", true, false},
		} {
			b.Run(fmt.Sprintf("%s/%dB", shape.name, size), func(b *testing.B) {
				f, err := os.Create(filepath.Join(b.TempDir(), "seg"))
				if err != nil {
					b.Fatal(err)
				}
				defer f.Close()
				if shape.overwrite {
					for off := int64(0); off < region; off += int64(len(zeroBlock)) {
						if _, err := f.WriteAt(zeroBlock[:], off); err != nil {
							b.Fatal(err)
						}
					}
					if err := f.Sync(); err != nil {
						b.Fatal(err)
					}
				}
				buf := make([]byte, size)
				for i := range buf {
					buf[i] = byte(i) | 1
				}
				lat := make([]time.Duration, 0, b.N)
				var off int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if shape.overwrite && off+int64(size) > region {
						off = 0
					}
					start := time.Now()
					if _, err := f.WriteAt(buf, off); err != nil {
						b.Fatal(err)
					}
					if shape.full {
						err = f.Sync()
					} else {
						err = datasync(f)
					}
					if err != nil {
						b.Fatal(err)
					}
					lat = append(lat, time.Since(start))
					off += int64(size)
				}
				b.StopTimer()
				reportLatency(b, lat)
			})
		}
	}
}

// BenchmarkGrowthStep times the commit that grows a header-only segment
// by one 4 MiB preallocation step: one record, a 4 MiB zero-fill and a
// full fsync. A fresh segment per iteration (Rotate, untimed) makes
// every timed commit a growth commit.
func BenchmarkGrowthStep(b *testing.B) {
	l, err := OpenConfig(filepath.Join(b.TempDir(), "oplog"), 1, Config{SyncEvery: time.Hour, PreallocBytes: 4 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		lsn := appendOne(l, core.BatchPut, layout.Key{Lo: uint64(i) + 1}, 1)
		if err := l.WaitDurable(lsn); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
		b.StopTimer()
		if err := l.Rotate(); err != nil {
			b.Fatal(err)
		}
		if err := l.TruncateThrough(lsn); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	reportLatency(b, lat)
}

// BenchmarkRotate times Rotate on a log with 4 MiB preallocation steps,
// the oplog's share of the snapshot's all-stripes-held cut: seal the
// active segment (its records already committed) and create the next.
func BenchmarkRotate(b *testing.B) {
	l, err := OpenConfig(filepath.Join(b.TempDir(), "oplog"), 1, Config{SyncEvery: time.Hour, PreallocBytes: 4 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	recs := make([]Record, 256)
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range recs {
			recs[j] = Record{BatchOp: core.BatchOp{Kind: core.BatchPut, Key: layout.Key{Lo: uint64(j) + 1}, Value: uint64(i)}}
		}
		first := l.AppendBatch(recs)
		if err := l.WaitDurable(first + uint64(len(recs)) - 1); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		start := time.Now()
		if err := l.Rotate(); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
		b.StopTimer()
		if err := l.TruncateThrough(l.LastLSN()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	reportLatency(b, lat)
}
