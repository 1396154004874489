package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"grouphash/internal/layout"
)

func TestRequestRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	want := []Request{
		{Op: OpPing},
		{Op: OpGet, Key: layout.Key{Lo: 7, Hi: ^uint64(0)}},
		{Op: OpPut, Key: layout.Key{Lo: 1}, Value: 42},
		{Op: OpDelete, Key: layout.Key{Lo: 9}},
	}
	for _, r := range want {
		if err := WriteRequest(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	rr := NewRequestReader(&buf)
	for i, w := range want {
		got, subs, err := rr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got != w || subs != nil {
			t.Fatalf("request %d = %+v (subs %v), want %+v", i, got, subs, w)
		}
	}
	if _, _, err := rr.Next(); err != io.EOF {
		t.Fatalf("empty stream read = %v, want io.EOF", err)
	}
}

func TestResponseRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	want := []Response{
		{Status: StatusOK, Value: 99},
		{Status: StatusNotFound},
		{Status: StatusOK, Extra: []byte("stats text")},
	}
	for _, r := range want {
		if err := WriteResponse(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		got, err := ReadResponse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != w.Status || got.Value != w.Value || !bytes.Equal(got.Extra, w.Extra) {
			t.Fatalf("response %d = %+v, want %+v", i, got, w)
		}
	}
}

// TestHostileFrames feeds both read paths the frames a desynchronised
// or malicious peer would: response length prefixes too small or past
// the frame cap, and single frames truncated at every possible byte
// boundary. TestBatchHostileFrames covers RequestReader's length
// prefixes and batch frames.
func TestHostileFrames(t *testing.T) {
	// Response prefixes: too small for the fixed part, and too big.
	for _, n := range []uint32{0, RespFixedLen - 1, MaxFrame + 1} {
		hdr := binary.LittleEndian.AppendUint32(nil, n)
		if _, err := ReadResponse(bytes.NewReader(append(hdr, make([]byte, 16)...))); !errors.Is(err, ErrFrame) {
			t.Errorf("response prefix %d = %v, want ErrFrame", n, err)
		}
	}
	// Truncation at every boundary of both paths: a stream dying
	// mid-frame is ErrUnexpectedEOF — never mistakable for a clean
	// close — except before byte one, which IS the clean close.
	req := AppendRequest(nil, Request{Op: OpPut, Key: layout.Key{Lo: 1, Hi: 2}, Value: 3})
	for cut := 0; cut < len(req); cut++ {
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF
		}
		if _, _, err := NewRequestReader(bytes.NewReader(req[:cut])).Next(); err != want {
			t.Errorf("request cut at %d = %v, want %v", cut, err, want)
		}
	}
	var buf bytes.Buffer
	if err := WriteResponse(&buf, Response{Status: StatusOK, Value: 9, Extra: []byte("xyz")}); err != nil {
		t.Fatal(err)
	}
	resp := buf.Bytes()
	for cut := 0; cut < len(resp); cut++ {
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF
		}
		if _, err := ReadResponse(bytes.NewReader(resp[:cut])); err != want {
			t.Errorf("response cut at %d = %v, want %v", cut, err, want)
		}
	}
}

func TestMalformedFrames(t *testing.T) {
	// A request length prefix that is neither a single request nor a
	// whole number of batch sub-ops, with no body behind it.
	if _, _, err := NewRequestReader(bytes.NewReader([]byte{200, 0, 0, 0})).Next(); !errors.Is(err, ErrFrame) {
		t.Fatalf("200-byte request prefix = %v, want ErrFrame", err)
	}
	// Oversized response length prefix.
	if _, err := ReadResponse(bytes.NewReader([]byte{0, 0, 2, 0})); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized response = %v, want ErrFrame", err)
	}
	// Oversized outgoing extra payload is rejected before writing.
	if err := WriteResponse(io.Discard, Response{Extra: make([]byte, MaxFrame)}); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized extra = %v, want ErrFrame", err)
	}
}
