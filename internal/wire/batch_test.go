package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"grouphash/internal/layout"
)

func TestBatchRoundtrip(t *testing.T) {
	subs := []Request{
		{Op: OpPut, Key: layout.Key{Lo: 1, Hi: 2}, Value: 3},
		{Op: OpGet, Key: layout.Key{Lo: 7, Hi: ^uint64(0)}},
		{Op: OpPut, Key: layout.Key{Lo: 9}, Value: 11},
		{Op: OpDelete, Key: layout.Key{Lo: 13}},
		{Op: OpLen},
	}
	frame, err := AppendBatchRequest(nil, subs)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 + 1 + len(subs)*ReqBodyLen; len(frame) != want {
		t.Fatalf("batch frame is %d bytes, want %d", len(frame), want)
	}
	rr := NewRequestReader(bytes.NewReader(frame))
	req, got, err := rr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpBatch {
		t.Fatalf("batch frame decoded as op %d", req.Op)
	}
	if len(got) != len(subs) {
		t.Fatalf("decoded %d sub-ops, want %d", len(got), len(subs))
	}
	for i := range subs {
		if got[i] != subs[i] {
			t.Fatalf("sub-op %d = %+v, want %+v", i, got[i], subs[i])
		}
	}
	if _, _, err := rr.Next(); err != io.EOF {
		t.Fatalf("empty stream read = %v, want io.EOF", err)
	}

	// And the response leg.
	resps := []Response{
		{Status: StatusOK, Value: 42},
		{Status: StatusNotFound},
		{Status: StatusOK},
		{Status: StatusOK, Value: 1},
		{Status: StatusOK, Value: 5},
	}
	back := make([]Response, len(resps))
	if err := ReadBatchResponses(smallReader(encodeBatch(t, resps)), back); err != nil {
		t.Fatal(err)
	}
	for i := range resps {
		if back[i].Status != resps[i].Status || back[i].Value != resps[i].Value {
			t.Fatalf("sub-response %d = %+v, want %+v", i, back[i], resps[i])
		}
	}
}

// TestRequestReaderSingles checks the reader decodes a pipelined mix of
// single frames and batch frames in order, with io.EOF at the clean
// end of the stream.
func TestRequestReaderSingles(t *testing.T) {
	var frame []byte
	frame = AppendRequest(frame, Request{Op: OpPut, Key: layout.Key{Lo: 1}, Value: 2})
	var err error
	frame, err = AppendBatchRequest(frame, []Request{{Op: OpGet, Key: layout.Key{Lo: 1}}, {Op: OpDelete, Key: layout.Key{Lo: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	frame = AppendRequest(frame, Request{Op: OpPing})

	rr := NewRequestReader(bytes.NewReader(frame))
	req, subs, err := rr.Next()
	if err != nil || subs != nil || req.Op != OpPut || req.Key.Lo != 1 || req.Value != 2 {
		t.Fatalf("first frame = %+v, %v, %v", req, subs, err)
	}
	req, subs, err = rr.Next()
	if err != nil || req.Op != OpBatch || len(subs) != 2 || subs[0].Op != OpGet || subs[1].Op != OpDelete {
		t.Fatalf("second frame = %+v, %v, %v", req, subs, err)
	}
	req, subs, err = rr.Next()
	if err != nil || subs != nil || req.Op != OpPing {
		t.Fatalf("third frame = %+v, %v, %v", req, subs, err)
	}
	if _, _, err := rr.Next(); err != io.EOF {
		t.Fatalf("end = %v, want io.EOF", err)
	}
}

// TestBatchHostileFrames covers the frames a hostile or desynchronised
// peer could aim at the batch paths.
func TestBatchHostileFrames(t *testing.T) {
	// Size limits on the encode side.
	if _, err := AppendBatchRequest(nil, nil); !errors.Is(err, ErrFrame) {
		t.Errorf("empty batch = %v, want ErrFrame", err)
	}
	if _, err := AppendBatchRequest(nil, make([]Request, MaxBatchOps+1)); !errors.Is(err, ErrFrame) {
		t.Errorf("oversized batch = %v, want ErrFrame", err)
	}
	if err := WriteBatchResponses(bufio.NewWriter(io.Discard), nil); !errors.Is(err, ErrFrame) {
		t.Errorf("empty batch response = %v, want ErrFrame", err)
	}
	if err := WriteBatchResponses(bufio.NewWriter(io.Discard), make([]Response, MaxBatchOps+1)); !errors.Is(err, ErrFrame) {
		t.Errorf("oversized batch response = %v, want ErrFrame", err)
	}

	// Length prefixes RequestReader must refuse: zero, not 25 and not
	// 1+25k, 1+25k past the frame cap, and a bare OpBatch opcode.
	for _, n := range []uint32{0, 1, ReqBodyLen - 1, ReqBodyLen + 1, 1 + ReqBodyLen + 1, MaxFrame + 1, 1 + uint32(MaxBatchOps+1)*ReqBodyLen} {
		hdr := binary.LittleEndian.AppendUint32(nil, n)
		body := append(hdr, make([]byte, ReqBodyLen*2)...)
		if _, _, err := NewRequestReader(bytes.NewReader(body)).Next(); !errors.Is(err, ErrFrame) {
			t.Errorf("request prefix %d = %v, want ErrFrame", n, err)
		}
	}

	// A 25-byte body whose opcode claims OpBatch: a batch must carry at
	// least one sub-op, so this is framing corruption, not a request.
	single := AppendRequest(nil, Request{Op: OpBatch})
	if _, _, err := NewRequestReader(bytes.NewReader(single)).Next(); !errors.Is(err, ErrFrame) {
		t.Errorf("single-size OpBatch frame = %v, want ErrFrame", err)
	}

	// A batch-shaped body whose leading opcode is NOT OpBatch.
	frame, err := AppendBatchRequest(nil, []Request{{Op: OpGet}})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), frame...)
	bad[4] = OpGet
	if _, _, err := NewRequestReader(bytes.NewReader(bad)).Next(); !errors.Is(err, ErrFrame) {
		t.Errorf("batch-shaped single op = %v, want ErrFrame", err)
	}

	// Truncation at every boundary: mid-frame death is ErrUnexpectedEOF,
	// before byte one it is the clean close.
	frame, err = AppendBatchRequest(nil, []Request{{Op: OpPut, Key: layout.Key{Lo: 1}, Value: 2}, {Op: OpGet}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(frame); cut++ {
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF
		}
		if _, _, err := NewRequestReader(bytes.NewReader(frame[:cut])).Next(); err != want {
			t.Errorf("batch cut at %d = %v, want %v", cut, err, want)
		}
	}

	// Batch response length prefix disagreeing with the expected count.
	resp := encodeBatch(t, []Response{{Status: StatusOK}, {Status: StatusOK}})
	if err := ReadBatchResponses(smallReader(resp), make([]Response, 3)); !errors.Is(err, ErrFrame) {
		t.Errorf("count-mismatched batch response = %v, want ErrFrame", err)
	}
	// Truncated batch response.
	for cut := 1; cut < len(resp); cut++ {
		if err := ReadBatchResponses(smallReader(resp[:cut]), make([]Response, 2)); err == nil {
			t.Errorf("batch response cut at %d decoded cleanly", cut)
		}
	}
}

// TestBatchPathAllocs pins the serving hot path's allocation story at
// the wire layer: once the reader's scratch is warm, decoding single
// and batch frames, decoding fixed-size responses, and encoding batch
// responses all run without a single heap allocation.
func TestBatchPathAllocs(t *testing.T) {
	var frames []byte
	frames = AppendRequest(frames, Request{Op: OpPut, Key: layout.Key{Lo: 1}, Value: 2})
	var err error
	frames, err = AppendBatchRequest(frames, make([]Request, 64))
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(frames)
	rr := NewRequestReader(rd)
	if _, _, err := rr.Next(); err != nil { // warm the scratch buffers
		t.Fatal(err)
	}
	if _, _, err := rr.Next(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(frames)
		if _, _, err := rr.Next(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := rr.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("RequestReader.Next allocates %.1f times per frame pair, want 0", n)
	}

	respFrame := encodeResponses(t, Response{Status: StatusOK, Value: 7})
	respRd := bytes.NewReader(respFrame)
	respBr := bufio.NewReader(respRd)
	if n := testing.AllocsPerRun(100, func() {
		respRd.Reset(respFrame)
		respBr.Reset(respRd)
		if _, err := ReadResponse(respBr); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("fixed-size ReadResponse allocates %.1f times, want 0", n)
	}

	resps := make([]Response, 64)
	batchFrame := encodeBatch(t, resps)
	batchRd := bytes.NewReader(batchFrame)
	batchBr := bufio.NewReader(batchRd)
	if n := testing.AllocsPerRun(100, func() {
		batchRd.Reset(batchFrame)
		batchBr.Reset(batchRd)
		if err := ReadBatchResponses(batchBr, resps); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("64-op ReadBatchResponses allocates %.1f times, want 0", n)
	}
}

// BenchmarkReadResponseFixed pins the no-Extra decode path — every
// Get/Put/Insert/Delete response on the hot path — at 0 allocs/op
// (run with -benchmem; gated by make bench-allocs).
func BenchmarkReadResponseFixed(b *testing.B) {
	frame := encodeResponses(b, Response{Status: StatusOK, Value: 7})
	rd := bytes.NewReader(frame)
	br := bufio.NewReader(rd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(frame)
		br.Reset(rd)
		if _, err := ReadResponse(br); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteResponseFixed pins the no-Extra encode path — the
// acker's per-response write — at 0 allocs/op (run with -benchmem;
// gated by make bench-allocs).
func BenchmarkWriteResponseFixed(b *testing.B) {
	bw := bufio.NewWriterSize(io.Discard, 64<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteResponse(bw, Response{Status: StatusOK, Value: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteBatchResponses encodes one 64-op batch response frame
// per iteration; 0 allocs/op.
func BenchmarkWriteBatchResponses(b *testing.B) {
	bw := bufio.NewWriterSize(io.Discard, 64<<10)
	resps := make([]Response, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteBatchResponses(bw, resps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRequestReaderBatch decodes one 64-op batch frame per
// iteration; 0 allocs/op once the reader scratch is warm.
func BenchmarkRequestReaderBatch(b *testing.B) {
	frame, err := AppendBatchRequest(nil, make([]Request, 64))
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(frame)
	rr := NewRequestReader(rd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(frame)
		if _, _, err := rr.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
