package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"grouphash/internal/layout"
)

// FuzzWireDecode feeds arbitrary byte streams through both decoders —
// RequestReader.Next, which the server runs on every byte a client
// sends, and ReadResponse over a bufio.Reader, as every client runs
// it — asserting the framing invariants a
// hostile or desynchronised peer must not be able to break:
//
//   - no panic, whatever the bytes;
//   - no over-allocation: a length prefix is never trusted past
//     MaxFrame, so Extra can never exceed MaxFrame-RespFixedLen and a
//     batch never holds more than MaxBatchOps sub-ops;
//   - every successfully decoded frame re-encodes (AppendRequest,
//     AppendBatchRequest, WriteResponse) to the bytes it was decoded
//     from, and those decode back to the same message;
//   - progress: each decode consumes at least the 4-byte prefix, so a
//     reader looping over a stream always terminates.
//
// The seed corpus covers the hostile-frame tests' vocabulary (zero,
// off-by-one and over-cap prefixes, truncations) plus valid streams of
// single and OpBatch frames.
func FuzzWireDecode(f *testing.F) {
	// Valid frames, alone and back-to-back.
	req := AppendRequest(nil, Request{Op: OpPut, Key: layout.Key{Lo: 1, Hi: 2}, Value: 3})
	f.Add(req)
	f.Add(AppendRequest(req, Request{Op: OpGet, Key: layout.Key{Lo: ^uint64(0)}}))
	f.Add(encodeResponses(f, Response{Status: StatusOK, Value: 9, Extra: []byte("stats text")}))
	// Hostile prefixes from TestHostileFrames and TestBatchHostileFrames:
	// zero, off-by-one, just past the cap, and a huge 32-bit length.
	for _, n := range []uint32{0, ReqBodyLen - 1, ReqBodyLen + 1, RespFixedLen - 1, MaxFrame, MaxFrame + 1, 1 << 31} {
		f.Add(append(binary.LittleEndian.AppendUint32(nil, n), make([]byte, 40)...))
	}
	// Truncations.
	f.Add(req[:7])
	f.Add(req[:4])
	f.Add([]byte{})
	// An OpBatch frame, alone and between single frames.
	batch, err := AppendBatchRequest(nil, []Request{
		{Op: OpPut, Key: layout.Key{Lo: 4}, Value: 5},
		{Op: OpGet, Key: layout.Key{Lo: 4}},
		{Op: OpDelete, Key: layout.Key{Lo: 6, Hi: 7}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batch)
	f.Add(AppendRequest(append(append([]byte(nil), req...), batch...), Request{Op: OpLen}))

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		rr := NewRequestReader(rd)
		for {
			off := len(data) - rd.Len()
			req, subs, err := rr.Next()
			if err != nil {
				// io.EOF only at a clean frame boundary; anything else
				// ends the stream too (framing is lost) — just no panic.
				break
			}
			consumed := data[off : len(data)-rd.Len()]
			if len(consumed) < 4 {
				t.Fatalf("Next consumed %d bytes, must consume at least the prefix", len(consumed))
			}
			var frame []byte
			if req.Op == OpBatch {
				if len(subs) == 0 || len(subs) > MaxBatchOps {
					t.Fatalf("decoded a batch of %d sub-ops", len(subs))
				}
				if frame, err = AppendBatchRequest(nil, subs); err != nil {
					t.Fatalf("re-encoding a decoded batch: %v", err)
				}
			} else {
				if subs != nil {
					t.Fatalf("single frame %+v came with %d sub-ops", req, len(subs))
				}
				frame = AppendRequest(nil, req)
			}
			if !bytes.Equal(frame, consumed) {
				t.Fatalf("request round trip: decoded from %x, re-encodes to %x", consumed, frame)
			}
			again, againSubs, err := NewRequestReader(bytes.NewReader(frame)).Next()
			if err != nil || again != req || len(againSubs) != len(subs) {
				t.Fatalf("request round trip: %+v -> %v, %+v", req, err, again)
			}
			for i := range subs {
				if againSubs[i] != subs[i] {
					t.Fatalf("sub-op %d round trip: %+v -> %+v", i, subs[i], againSubs[i])
				}
			}
		}

		// Responses are decoded the way every client does, through a
		// bufio.Reader; it is kept at the 16-byte minimum so frames
		// straddle refills. Bytes consumed are the bytes the reader
		// pulled from rd less those still in its buffer.
		rd = bytes.NewReader(data)
		br := bufio.NewReaderSize(rd, 16)
		for {
			before := len(data) - rd.Len() - br.Buffered()
			resp, err := ReadResponse(br)
			if err != nil {
				break
			}
			if consumed := len(data) - rd.Len() - br.Buffered() - before; consumed < 4 {
				t.Fatalf("ReadResponse consumed %d bytes, must consume at least the prefix", consumed)
			}
			if len(resp.Extra) > MaxFrame-RespFixedLen {
				t.Fatalf("decoded %d-byte extra, cap is %d", len(resp.Extra), MaxFrame-RespFixedLen)
			}
			again, err := ReadResponse(smallReader(encodeResponses(t, resp)))
			if err != nil || again.Status != resp.Status || again.Value != resp.Value || !bytes.Equal(again.Extra, resp.Extra) {
				t.Fatalf("response round trip: %+v -> %v, %+v", resp, err, again)
			}
		}
	})
}
