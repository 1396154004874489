// Package wire defines the length-prefixed binary protocol the network
// server (internal/server) and client (internal/client) speak over a
// TCP stream.
//
// Framing: every message is a little-endian uint32 body length
// followed by the body. Requests carry a fixed 25-byte body — opcode
// (1), key low word (8), key high word (8), value (8) — so a request
// never needs a second allocation or a variable-length parse on the
// hot path. Responses carry a 9-byte fixed prefix — status (1), value
// (8) — plus an optional free-form payload (used only by OpStats).
//
// Pipelining: a client may write any number of requests before reading
// responses; the server processes each connection's requests strictly
// in order and writes responses in the same order, so the k-th
// response always answers the k-th request. No request ids are needed.
//
// The protocol is deliberately minimal — single-word values, fixed-key
// sizes — because it serves exactly the store the paper defines:
// fixed-size keys, one-word values (§4.1's item formats).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"grouphash/internal/layout"
)

// Opcodes. A request's opcode selects the store operation; fields the
// operation does not use (e.g. Value on a Get) are ignored.
const (
	// OpPing checks liveness; the server answers StatusOK.
	OpPing = byte(iota + 1)
	// OpGet looks up Key; StatusOK carries the value, StatusNotFound
	// reports absence.
	OpGet
	// OpPut upserts (Key, Value) atomically (no duplicate items under
	// concurrent Puts of one key).
	OpPut
	// OpInsert inserts (Key, Value) with the paper's Algorithm-1
	// semantics: no existing-key check, duplicates allowed.
	OpInsert
	// OpDelete removes Key; StatusNotFound reports it was absent.
	OpDelete
	// OpLen returns the store's item count in the response value.
	OpLen
	// OpStats returns the server's metrics registry in Prometheus text
	// exposition (the bytes GET /metrics serves), cut at a line boundary
	// when it exceeds the frame limit. Value is ignored.
	OpStats
	// OpBatch carries N fixed-size sub-operations in ONE frame: the body
	// is the OpBatch byte followed by N packed sub-request bodies (same
	// 25-byte encoding as a single request). The server answers with ONE
	// frame of N packed 9-byte sub-responses, released only when every
	// logged sub-operation is durable — an acked batch is all-or-nothing
	// on the wire. Sub-operations may be OpPing/OpGet/OpPut/OpInsert/
	// OpDelete/OpLen; OpStats and nested OpBatch answer StatusBadRequest.
	OpBatch
)

// Status codes carried in the first response byte.
const (
	// StatusOK reports success.
	StatusOK = byte(iota)
	// StatusNotFound reports an absent key (Get, Delete).
	StatusNotFound
	// StatusFull maps hashtab.ErrTableFull: the store cannot place the
	// item even after online expansion — seen only when expansion is
	// disabled or the arena itself is exhausted.
	StatusFull
	// StatusInvalidKey maps hashtab.ErrInvalidKey (the compact
	// layout's reserved zero key).
	StatusInvalidKey
	// StatusBadRequest reports an opcode the server does not know.
	StatusBadRequest
	// StatusDraining reports the server is shutting down and no longer
	// accepts writes.
	StatusDraining
)

// ReqBodyLen is the fixed request body size: op + key.Lo + key.Hi +
// value.
const ReqBodyLen = 1 + 8 + 8 + 8

// RespFixedLen is the fixed response prefix size: status + value.
const RespFixedLen = 1 + 8

// MaxFrame caps any frame body; larger prefixes are a protocol error
// (a desynchronised or hostile peer), not an allocation request.
const MaxFrame = 1 << 16

// MaxBatchOps is the most sub-operations one OpBatch frame can carry:
// the batch body (1 opcode byte + N packed sub-requests) must fit
// MaxFrame, and the batch response (N packed sub-responses) always
// does too (RespFixedLen < ReqBodyLen).
const MaxBatchOps = (MaxFrame - 1) / ReqBodyLen

// ErrFrame reports a malformed frame (bad length for the message
// type). Connections that see it must be torn down: framing is lost.
var ErrFrame = errors.New("wire: malformed frame")

// Request is one client->server message.
type Request struct {
	// Op is the opcode (OpGet, OpPut, ...).
	Op byte
	// Key is the target key; ignored by OpPing/OpLen/OpStats.
	Key layout.Key
	// Value is the payload word for OpPut/OpInsert.
	Value uint64
}

// Response is one server->client message. Extra is non-nil only for
// payload-carrying responses (OpStats).
type Response struct {
	// Status is the result code (StatusOK, ...).
	Status byte
	// Value is the result word (Get value, Len count).
	Value uint64
	// Extra is the optional free-form payload.
	Extra []byte
}

// AppendRequest appends r's frame to buf and returns the extended
// slice — allocation-free when buf has capacity, the building block
// for pipelined batches.
func AppendRequest(buf []byte, r Request) []byte {
	var b [4 + ReqBodyLen]byte
	binary.LittleEndian.PutUint32(b[0:4], ReqBodyLen)
	b[4] = r.Op
	binary.LittleEndian.PutUint64(b[5:13], r.Key.Lo)
	binary.LittleEndian.PutUint64(b[13:21], r.Key.Hi)
	binary.LittleEndian.PutUint64(b[21:29], r.Value)
	return append(buf, b[:]...)
}

// WriteRequest writes one request frame to w.
func WriteRequest(w io.Writer, r Request) error {
	_, err := w.Write(AppendRequest(nil, r))
	return err
}

// WriteResponse writes one response frame to w.
func WriteResponse(w io.Writer, resp Response) error {
	if len(resp.Extra) > MaxFrame-RespFixedLen {
		return fmt.Errorf("%w: %d-byte extra payload", ErrFrame, len(resp.Extra))
	}
	if bw, ok := w.(*bufio.Writer); ok {
		// Encode straight into the writer's own buffer: a local scratch
		// array would escape through the io.Writer parameter and cost
		// one heap allocation per response on the server's ack path.
		// Pinned at 0 allocs/op by BenchmarkWriteResponseFixed.
		if bw.Available() < 4+RespFixedLen {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		b := bw.AvailableBuffer()
		b = binary.LittleEndian.AppendUint32(b, uint32(RespFixedLen+len(resp.Extra)))
		b = append(b, resp.Status)
		b = binary.LittleEndian.AppendUint64(b, resp.Value)
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if len(resp.Extra) > 0 {
			if _, err := bw.Write(resp.Extra); err != nil {
				return err
			}
		}
		return nil
	}
	var b [4 + RespFixedLen]byte
	binary.LittleEndian.PutUint32(b[0:4], uint32(RespFixedLen+len(resp.Extra)))
	b[4] = resp.Status
	binary.LittleEndian.PutUint64(b[5:13], resp.Value)
	if _, err := w.Write(b[:]); err != nil {
		return err
	}
	if len(resp.Extra) > 0 {
		if _, err := w.Write(resp.Extra); err != nil {
			return err
		}
	}
	return nil
}

// ReadResponse reads one response frame from r. A clean EOF before
// the first length byte returns io.EOF untouched, so callers can tell
// "connection closed between frames" from a truncated frame
// (io.ErrUnexpectedEOF). When r is a *bufio.Reader — every real
// client — the no-Extra case (every Get/Put/Insert/Delete on the hot
// path) decodes straight out of the reader's own buffer via
// Peek/Discard: zero allocations per response, pinned by
// BenchmarkReadResponseFixed. Any other reader pays a scratch-buffer
// escape; only the Extra-carrying case ever allocates a returned slice.
func ReadResponse(r io.Reader) (Response, error) {
	if br, ok := r.(*bufio.Reader); ok {
		return readResponseBuffered(br)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Response{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < RespFixedLen || n > MaxFrame {
		return Response{}, fmt.Errorf("%w: response body %d bytes", ErrFrame, n)
	}
	if n == RespFixedLen {
		var b [RespFixedLen]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return Response{}, noEOF(err)
		}
		return Response{Status: b[0], Value: binary.LittleEndian.Uint64(b[1:9])}, nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return Response{}, noEOF(err)
	}
	return Response{Status: b[0], Value: binary.LittleEndian.Uint64(b[1:9]), Extra: b[RespFixedLen:]}, nil
}

// readResponseBuffered is ReadResponse for buffered streams: the frame
// is decoded in place from the bufio buffer (Peek never allocates; the
// minimum bufio buffer of 16 bytes covers the 13-byte fixed frame).
func readResponseBuffered(br *bufio.Reader) (Response, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return Response{}, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < RespFixedLen || n > MaxFrame {
		return Response{}, fmt.Errorf("%w: response body %d bytes", ErrFrame, n)
	}
	if n == RespFixedLen {
		b, err := br.Peek(4 + RespFixedLen)
		if err != nil {
			return Response{}, noEOF(err)
		}
		resp := Response{Status: b[4], Value: binary.LittleEndian.Uint64(b[5:13])}
		br.Discard(4 + RespFixedLen)
		return resp, nil
	}
	br.Discard(4)
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return Response{}, noEOF(err)
	}
	return Response{Status: b[0], Value: binary.LittleEndian.Uint64(b[1:9]), Extra: b[RespFixedLen:]}, nil
}

// noEOF converts a mid-frame EOF to ErrUnexpectedEOF: the stream died
// inside a frame, which is never a clean close.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// AppendBatchRequest appends one OpBatch frame carrying subs to buf and
// returns the extended slice. The sub-requests' own opcodes travel in
// their packed bodies; len(subs) must be in [1, MaxBatchOps].
func AppendBatchRequest(buf []byte, subs []Request) ([]byte, error) {
	if len(subs) == 0 || len(subs) > MaxBatchOps {
		return buf, fmt.Errorf("%w: batch of %d sub-ops", ErrFrame, len(subs))
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(1+len(subs)*ReqBodyLen))
	hdr[4] = OpBatch
	buf = append(buf, hdr[:]...)
	for _, r := range subs {
		var b [ReqBodyLen]byte
		b[0] = r.Op
		binary.LittleEndian.PutUint64(b[1:9], r.Key.Lo)
		binary.LittleEndian.PutUint64(b[9:17], r.Key.Hi)
		binary.LittleEndian.PutUint64(b[17:25], r.Value)
		buf = append(buf, b[:]...)
	}
	return buf, nil
}

// decodeRequestBody parses one packed 25-byte request body.
func decodeRequestBody(b []byte) Request {
	return Request{
		Op:    b[0],
		Key:   layout.Key{Lo: binary.LittleEndian.Uint64(b[1:9]), Hi: binary.LittleEndian.Uint64(b[9:17])},
		Value: binary.LittleEndian.Uint64(b[17:25]),
	}
}

// WriteBatchResponses writes the batch response frame answering an
// OpBatch request: one length prefix, then len(resps) packed 9-byte
// sub-responses. When w is a *bufio.Writer — the server's ack path —
// sub-responses are encoded in place in the writer's buffer: zero
// allocations per frame, pinned by BenchmarkWriteBatchResponses.
// Extra payloads are not representable in a batch (OpStats is refused
// inside one).
func WriteBatchResponses(w io.Writer, resps []Response) error {
	if len(resps) == 0 || len(resps) > MaxBatchOps {
		return fmt.Errorf("%w: batch of %d responses", ErrFrame, len(resps))
	}
	if bw, ok := w.(*bufio.Writer); ok {
		if bw.Available() < 4 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		b := bw.AvailableBuffer()
		b = binary.LittleEndian.AppendUint32(b, uint32(len(resps)*RespFixedLen))
		if _, err := bw.Write(b); err != nil {
			return err
		}
		for i := range resps {
			if bw.Available() < RespFixedLen {
				if err := bw.Flush(); err != nil {
					return err
				}
			}
			b = bw.AvailableBuffer()
			b = append(b, resps[i].Status)
			b = binary.LittleEndian.AppendUint64(b, resps[i].Value)
			if _, err := bw.Write(b); err != nil {
				return err
			}
		}
		return nil
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(resps)*RespFixedLen))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, resp := range resps {
		var b [RespFixedLen]byte
		b[0] = resp.Status
		binary.LittleEndian.PutUint64(b[1:9], resp.Value)
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

// ReadBatchResponses reads the batch response frame answering an
// OpBatch request of len(dst) sub-operations, decoding into dst (which
// the caller sizes — pipelining means it knows exactly how many
// sub-responses the frame holds). When r is a *bufio.Reader — every
// real client — sub-responses decode in place from the reader's buffer:
// zero allocations per batch, whatever its size.
func ReadBatchResponses(r io.Reader, dst []Response) error {
	wantBody := uint32(len(dst) * RespFixedLen)
	if br, ok := r.(*bufio.Reader); ok {
		hdr, err := br.Peek(4)
		if err != nil {
			if err == io.EOF && len(hdr) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if n := binary.LittleEndian.Uint32(hdr); n != wantBody {
			return fmt.Errorf("%w: batch response body %d bytes, want %d sub-responses", ErrFrame, n, len(dst))
		}
		br.Discard(4)
		for i := range dst {
			b, err := br.Peek(RespFixedLen)
			if err != nil {
				return noEOF(err)
			}
			dst[i] = Response{Status: b[0], Value: binary.LittleEndian.Uint64(b[1:9])}
			br.Discard(RespFixedLen)
		}
		return nil
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	if n := binary.LittleEndian.Uint32(hdr[:]); n != wantBody {
		return fmt.Errorf("%w: batch response body %d bytes, want %d sub-responses", ErrFrame, n, len(dst))
	}
	b := make([]byte, wantBody)
	if _, err := io.ReadFull(r, b); err != nil {
		return noEOF(err)
	}
	for i := range dst {
		off := i * RespFixedLen
		dst[i] = Response{Status: b[off], Value: binary.LittleEndian.Uint64(b[off+1 : off+9])}
	}
	return nil
}

// RequestReader decodes request frames from a stream — single requests
// and OpBatch frames — reusing one body buffer and one sub-request
// slice across calls, so a serving loop pays zero steady-state
// allocations per frame. Not safe for concurrent use.
type RequestReader struct {
	r io.Reader
	// scratch holds the 4-byte length prefix and single-request bodies;
	// it lives in the (heap-allocated) reader so reads never push a
	// stack buffer through the io.Reader interface, which would escape
	// and cost an allocation per frame.
	scratch [4 + ReqBodyLen]byte
	body    []byte // batch bodies, grown on demand and reused
	subs    []Request
}

// NewRequestReader wraps r (typically a *bufio.Reader).
func NewRequestReader(r io.Reader) *RequestReader {
	return &RequestReader{r: r}
}

// Next reads one frame. A single request returns (req, nil, nil); an
// OpBatch frame returns (Request{Op: OpBatch}, subs, nil) where subs
// holds the decoded sub-requests and is valid only until the next call.
// A clean close between frames is io.EOF, a mid-frame close
// io.ErrUnexpectedEOF.
func (rr *RequestReader) Next() (Request, []Request, error) {
	if _, err := io.ReadFull(rr.r, rr.scratch[:4]); err != nil {
		return Request{}, nil, err
	}
	n := binary.LittleEndian.Uint32(rr.scratch[:4])
	if n == ReqBodyLen {
		b := rr.scratch[4 : 4+ReqBodyLen]
		if _, err := io.ReadFull(rr.r, b); err != nil {
			return Request{}, nil, noEOF(err)
		}
		req := decodeRequestBody(b)
		if req.Op == OpBatch {
			// A batch frame must carry at least one sub-op; a 25-byte
			// OpBatch body would decode as zero sub-ops plus garbage.
			return Request{}, nil, fmt.Errorf("%w: OpBatch frame with single-request body", ErrFrame)
		}
		return req, nil, nil
	}
	// Anything that is not a single request must be a well-formed batch:
	// the OpBatch byte plus a whole number of packed sub-requests.
	if n > MaxFrame || n < 1+ReqBodyLen || (n-1)%ReqBodyLen != 0 {
		return Request{}, nil, fmt.Errorf("%w: request body %d bytes", ErrFrame, n)
	}
	if cap(rr.body) < int(n) {
		rr.body = make([]byte, n)
	}
	body := rr.body[:n]
	if _, err := io.ReadFull(rr.r, body); err != nil {
		return Request{}, nil, noEOF(err)
	}
	if body[0] != OpBatch {
		return Request{}, nil, fmt.Errorf("%w: %d-byte body with opcode %d", ErrFrame, n, body[0])
	}
	count := int(n-1) / ReqBodyLen
	if cap(rr.subs) < count {
		rr.subs = make([]Request, count)
	}
	subs := rr.subs[:count]
	for i := 0; i < count; i++ {
		off := 1 + i*ReqBodyLen
		subs[i] = decodeRequestBody(body[off : off+ReqBodyLen])
	}
	return Request{Op: OpBatch}, subs, nil
}
