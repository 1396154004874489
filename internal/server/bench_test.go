package server

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"grouphash"
	"grouphash/internal/layout"
	"grouphash/internal/oplog"
	"grouphash/internal/wire"
)

// benchAckedWrite measures the end-to-end cost of one acked write
// through the server over loopback TCP — the durability tax group
// commit is built to cut. The client streams 64-op
// pipelined batches with 8 in flight, the shape the apply/ack
// decoupling targets: the reader applies the next burst while the
// acker waits on the fsync covering the previous one (its parking
// closes the commit window, so it never waits out the timer).
func benchAckedWrite(b *testing.B, withLog bool, lcfg oplog.Config) {
	st, err := grouphash.New(grouphash.Options{Capacity: 1 << 16, Concurrent: true})
	if err != nil {
		b.Fatal(err)
	}
	var lg *oplog.Log
	if withLog {
		if lg, err = oplog.OpenConfig(filepath.Join(b.TempDir(), "oplog"), 1, lcfg); err != nil {
			b.Fatal(err)
		}
	}
	s, err := New(Config{Engine: st, Oplog: lg})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	defer func() {
		if err := s.Drain(); err != nil {
			b.Fatal(err)
		}
		if err := <-serveDone; err != nil {
			b.Errorf("Serve returned %v", err)
		}
	}()

	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, 64<<10)
	br := bufio.NewReaderSize(conn, 64<<10)

	const batch, depth = 64, 32
	total := b.N
	sem := make(chan struct{}, depth)
	done := make(chan error, 1)
	go func() {
		for consumed := 0; consumed < total; {
			m := batch
			if total-consumed < m {
				m = total - consumed
			}
			for j := 0; j < m; j++ {
				resp, err := wire.ReadResponse(br)
				if err != nil {
					done <- err
					return
				}
				if resp.Status != wire.StatusOK {
					done <- fmt.Errorf("put status %d", resp.Status)
					return
				}
			}
			consumed += m
			<-sem
		}
		done <- nil
	}()
	b.ResetTimer()
	var buf []byte
	for sent := 0; sent < total; {
		n := batch
		if total-sent < n {
			n = total - sent
		}
		sem <- struct{}{} // window: at most depth batches in flight
		buf = buf[:0]
		for j := 0; j < n; j++ {
			k := uint64(sent+j)%(1<<20) + 1
			buf = wire.AppendRequest(buf, wire.Request{Op: wire.OpPut, Key: layout.Key{Lo: k}, Value: k})
		}
		if _, err := bw.Write(buf); err != nil {
			b.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
		sent += n
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if withLog {
		b.ReportMetric(float64(lg.Fsyncs())/float64(b.N), "fsyncs/op")
	}
}

// BenchmarkServeBatchPipeline drives explicit 256-op OpBatch put
// frames through a live adaptive-oplog server with an allocation-free
// client (reused request/response slices, in-place wire codecs), so
// allocs/op is the serving loop's own steady-state allocation rate:
// pooled completion chunks, pooled batch-response buffers, in-place
// frame codecs and recycled oplog staging buffers together hold it at
// (near) zero. Gated by make bench-allocs.
func BenchmarkServeBatchPipeline(b *testing.B) {
	st, err := grouphash.New(grouphash.Options{Capacity: 1 << 20, Concurrent: true})
	if err != nil {
		b.Fatal(err)
	}
	lg, err := oplog.OpenConfig(filepath.Join(b.TempDir(), "oplog"), 1,
		oplog.Config{SyncEvery: 100 * time.Microsecond, SyncBytes: 64 << 10, PreallocBytes: 4 << 20})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Engine: st, Oplog: lg})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	defer func() {
		if err := s.Drain(); err != nil {
			b.Fatal(err)
		}
		if err := <-serveDone; err != nil {
			b.Errorf("Serve returned %v", err)
		}
	}()

	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, 64<<10)
	br := bufio.NewReaderSize(conn, 64<<10)

	const frame = 256
	subs := make([]wire.Request, frame)
	resps := make([]wire.Response, frame)
	var buf []byte
	next := uint64(0)
	send := func(n int) {
		for j := 0; j < n; j++ {
			k := next%(1<<18) + 1 // capped keyspace: no expansion mid-benchmark
			next++
			subs[j] = wire.Request{Op: wire.OpPut, Key: layout.Key{Lo: k}, Value: k}
		}
		buf = buf[:0]
		var err error
		if buf, err = wire.AppendBatchRequest(buf, subs[:n]); err != nil {
			b.Fatal(err)
		}
		if _, err := bw.Write(buf); err != nil {
			b.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
		if err := wire.ReadBatchResponses(br, resps[:n]); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < n; j++ {
			if resps[j].Status != wire.StatusOK {
				b.Fatalf("put status %d", resps[j].Status)
			}
		}
	}
	for i := 0; i < 8; i++ {
		send(frame) // warm the pools, scratch slices and staging buffers
	}
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; sent += frame {
		n := frame
		if b.N-sent < n {
			n = b.N - sent
		}
		send(n)
	}
}

// BenchmarkAckedWrite compares the acked-write path without a log,
// with a zero-length commit window (fsync as soon as a write is
// staged), and with the shipped 100µs/64KiB group-commit window.
func BenchmarkAckedWrite(b *testing.B) {
	for _, mode := range []struct {
		name    string
		withLog bool
		cfg     oplog.Config
	}{
		{"nolog", false, oplog.Config{}},
		{"zero-window", true, oplog.Config{}},
		{"adaptive-100us-64KiB", true, oplog.Config{
			SyncEvery: 100 * time.Microsecond, SyncBytes: 64 << 10, PreallocBytes: 4 << 20}},
	} {
		b.Run(mode.name, func(b *testing.B) { benchAckedWrite(b, mode.withLog, mode.cfg) })
	}
}
