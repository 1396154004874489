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

// The response writers encode in place in a *bufio.Writer's buffer (the
// server's ack path) and the readers decode in place from a
// *bufio.Reader's (every real client). These tests drive those paths
// with deliberately tiny buffers so every flush/refill branch runs, and
// check byte-for-byte agreement with a slow reference encoder that
// spells the frame layout out field by field.

// failWriter errors after n successful writes.
type failWriter struct{ n int }

var errSink = errors.New("sink failed")

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errSink
	}
	f.n--
	return len(p), nil
}

// slowResponse is the reference encoding of one response frame: the
// body length, the status byte, the value word, then Extra.
func slowResponse(dst []byte, r Response) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(RespFixedLen+len(r.Extra)))
	dst = append(dst, r.Status)
	dst = binary.LittleEndian.AppendUint64(dst, r.Value)
	return append(dst, r.Extra...)
}

func TestWriteResponseBufioMatchesSlowPath(t *testing.T) {
	resps := []Response{
		{Status: StatusOK, Value: 7},
		{Status: StatusNotFound, Value: 0},
		{Status: StatusOK, Value: 42, Extra: []byte("stats payload")},
		{Status: StatusOK, Value: 1<<64 - 1},
		{Status: StatusBadRequest, Value: 3, Extra: bytes.Repeat([]byte{0xAB}, 100)},
	}
	var slow []byte
	for _, r := range resps {
		slow = slowResponse(slow, r)
	}
	// A 16-byte bufio.Writer (the minimum) cannot hold even two fixed
	// frames, so the mid-stream Flush branch runs on every response.
	var fast bytes.Buffer
	bw := bufio.NewWriterSize(&fast, 16)
	for _, r := range resps {
		if err := WriteResponse(bw, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slow, fast.Bytes()) {
		t.Fatalf("bufio encoder differs from the reference:\nslow %x\nfast %x", slow, fast.Bytes())
	}

	// Decode back through a reader kept at the 16-byte minimum, so
	// fixed frames straddle refills.
	rd := smallReader(fast.Bytes())
	for i, want := range resps {
		got, err := ReadResponse(rd)
		if err != nil {
			t.Fatalf("resp %d: %v", i, err)
		}
		if got.Status != want.Status || got.Value != want.Value || !bytes.Equal(got.Extra, want.Extra) {
			t.Fatalf("resp %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadResponse(rd); err != io.EOF {
		t.Fatalf("want clean EOF after last frame, got %v", err)
	}
}

func TestWriteResponseBufioFlushError(t *testing.T) {
	// First write succeeds (fills the buffer), then the forced flush on
	// the next response fails: the error must surface, not vanish into
	// the buffer.
	bw := bufio.NewWriterSize(&failWriter{n: 0}, 16)
	if err := WriteResponse(bw, Response{Status: StatusOK}); err != nil {
		t.Fatalf("buffered write should not touch the sink yet: %v", err)
	}
	if err := WriteResponse(bw, Response{Status: StatusOK}); !errors.Is(err, errSink) {
		t.Fatalf("want sink error from forced flush, got %v", err)
	}
}

func TestWriteResponseStickyBufioError(t *testing.T) {
	// A large-enough buffer means no forced flush: the bw.Write calls
	// themselves must surface bufio's sticky error.
	bw := bufio.NewWriterSize(&failWriter{n: 0}, 64)
	if err := WriteResponse(bw, Response{Status: StatusOK}); err != nil {
		t.Fatalf("buffered write should succeed: %v", err)
	}
	if err := bw.Flush(); !errors.Is(err, errSink) {
		t.Fatalf("want sink error from flush, got %v", err)
	}
	if err := WriteResponse(bw, Response{Status: StatusOK}); !errors.Is(err, errSink) {
		t.Fatalf("sticky bufio error swallowed: %v", err)
	}
}

func TestWriteResponseBufioExtraError(t *testing.T) {
	// The fixed part buffers cleanly; the oversized Extra forces a
	// flush into the dead sink.
	bw := bufio.NewWriterSize(&failWriter{n: 0}, 64)
	resp := Response{Status: StatusOK, Extra: bytes.Repeat([]byte{1}, 200)}
	if err := WriteResponse(bw, resp); !errors.Is(err, errSink) {
		t.Fatalf("want sink error from Extra write, got %v", err)
	}
}

func TestReadBatchResponsesErrors(t *testing.T) {
	// Wrong sub-response count.
	frame := encodeBatch(t, make([]Response, 3))
	if err := ReadBatchResponses(smallReader(frame), make([]Response, 4)); !errors.Is(err, ErrFrame) {
		t.Fatalf("count mismatch accepted: %v", err)
	}
	// Truncated body.
	if err := ReadBatchResponses(smallReader(frame[:len(frame)-2]), make([]Response, 3)); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn batch body: want ErrUnexpectedEOF, got %v", err)
	}
	// Dead stream before the header.
	if err := ReadBatchResponses(smallReader(nil), make([]Response, 1)); err != io.EOF {
		t.Fatalf("want io.EOF on clean close, got %v", err)
	}
	// Torn header.
	if err := ReadBatchResponses(smallReader([]byte{1, 2}), make([]Response, 1)); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn header: want ErrUnexpectedEOF, got %v", err)
	}
}

func TestWriteResponseExtraTooLarge(t *testing.T) {
	var buf bytes.Buffer
	resp := Response{Status: StatusOK, Extra: make([]byte, MaxFrame)}
	if err := WriteResponse(bufio.NewWriter(&buf), resp); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized Extra accepted: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("refused response wrote %d bytes", buf.Len())
	}
}

func TestWriteBatchResponsesBufioMatchesSlowPath(t *testing.T) {
	resps := make([]Response, 64)
	for i := range resps {
		resps[i] = Response{Status: byte(i % 3), Value: uint64(i) * 0x9e3779b97f4a7c15}
	}
	// The reference encoding: the body length, then each sub-response's
	// status byte and value word.
	slow := binary.LittleEndian.AppendUint32(nil, uint32(len(resps)*RespFixedLen))
	for _, r := range resps {
		slow = binary.LittleEndian.AppendUint64(append(slow, r.Status), r.Value)
	}
	var fast bytes.Buffer
	bw := bufio.NewWriterSize(&fast, 16) // every sub-response forces a flush
	if err := WriteBatchResponses(bw, resps); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slow, fast.Bytes()) {
		t.Fatalf("bufio batch encoder differs from the reference:\nslow %x\nfast %x", slow, fast.Bytes())
	}

	got := make([]Response, len(resps))
	if err := ReadBatchResponses(smallReader(fast.Bytes()), got); err != nil {
		t.Fatal(err)
	}
	for i := range resps {
		if got[i].Status != resps[i].Status || got[i].Value != resps[i].Value {
			t.Fatalf("sub %d: got %+v want %+v", i, got[i], resps[i])
		}
	}
}

func TestWriteBatchResponsesBufioFlushError(t *testing.T) {
	// Header goes through (one sink write), then the first sub-response
	// flush fails.
	bw := bufio.NewWriterSize(&failWriter{n: 1}, 16)
	resps := make([]Response, 8)
	if err := WriteBatchResponses(bw, resps); !errors.Is(err, errSink) {
		t.Fatalf("want sink error from sub-response flush, got %v", err)
	}

	// Under four bytes free: the flush before the header fails.
	bw = bufio.NewWriterSize(&failWriter{n: 0}, 16)
	bw.Write(make([]byte, 13))
	if err := WriteBatchResponses(bw, resps); !errors.Is(err, errSink) {
		t.Fatalf("want sink error from the header flush, got %v", err)
	}
	// Room to spare but a sticky error: the header write surfaces it.
	bw = bufio.NewWriterSize(&failWriter{n: 0}, 64)
	bw.Write(make([]byte, 13))
	if err := bw.Flush(); !errors.Is(err, errSink) {
		t.Fatalf("want sink error from flush, got %v", err)
	}
	if err := WriteBatchResponses(bw, resps); !errors.Is(err, errSink) {
		t.Fatalf("sticky bufio error swallowed: %v", err)
	}
}

func TestWriteBatchResponsesSizeLimits(t *testing.T) {
	bw := bufio.NewWriter(io.Discard)
	if err := WriteBatchResponses(bw, nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("empty batch accepted: %v", err)
	}
	if err := WriteBatchResponses(bw, make([]Response, MaxBatchOps+1)); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized batch accepted: %v", err)
	}
}

func TestReadResponseBufferedErrors(t *testing.T) {
	// Truncated header: one byte then EOF is a torn frame.
	if _, err := ReadResponse(smallReader([]byte{1})); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn header: want ErrUnexpectedEOF, got %v", err)
	}
	// Clean EOF before any bytes stays io.EOF.
	if _, err := ReadResponse(smallReader(nil)); err != io.EOF {
		t.Fatalf("clean close: want io.EOF, got %v", err)
	}
	// Hostile length: below the fixed size.
	bad := []byte{3, 0, 0, 0}
	if _, err := ReadResponse(smallReader(bad)); !errors.Is(err, ErrFrame) {
		t.Fatalf("undersized body length accepted: %v", err)
	}
	// Truncated fixed body.
	torn := []byte{9, 0, 0, 0, StatusOK, 1, 2}
	if _, err := ReadResponse(smallReader(torn)); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn body: want ErrUnexpectedEOF, got %v", err)
	}
	// Truncated Extra body.
	full := encodeResponses(t, Response{Status: StatusOK, Extra: []byte("abcdef")})
	if _, err := ReadResponse(smallReader(full[:len(full)-3])); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn extra: want ErrUnexpectedEOF, got %v", err)
	}
}

// TestBatchRequestResponseWireRoundTrip drives the whole batch frame
// cycle the way the server does: AppendBatchRequest → RequestReader →
// WriteBatchResponses → ReadBatchResponses, all through small bufio
// buffers.
func TestBatchRequestResponseWireRoundTrip(t *testing.T) {
	subs := make([]Request, 17)
	for i := range subs {
		subs[i] = Request{Op: OpPut, Key: layout.Key{Lo: uint64(i + 1)}, Value: uint64(i) << 8}
	}
	frame, err := AppendBatchRequest(nil, subs)
	if err != nil {
		t.Fatal(err)
	}
	rr := NewRequestReader(bufio.NewReaderSize(bytes.NewReader(frame), 16))
	req, got, err := rr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpBatch || len(got) != len(subs) {
		t.Fatalf("batch frame decoded as op %d with %d subs, want OpBatch with %d", req.Op, len(got), len(subs))
	}
	for i := range subs {
		if got[i] != subs[i] {
			t.Fatalf("sub %d: got %+v want %+v", i, got[i], subs[i])
		}
	}
	if _, _, err := rr.Next(); err != io.EOF {
		t.Fatalf("want clean EOF after the batch frame, got %v", err)
	}
}
