// Package client is the Go client for the grouphash network server
// (internal/server): a single TCP connection speaking the wire
// protocol (internal/wire), with typed errors and pipelined batches.
//
// A Client is safe for concurrent use, but every call holds the
// connection for its full round trip — for parallel load, open one
// Client per worker (connections are cheap; the server runs one
// goroutine per connection). Throughput comes from pipelining: Do
// writes a whole batch of requests in one flush and then reads the
// batch's responses, amortising the network round trip over the batch.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"grouphash/internal/layout"
	"grouphash/internal/wire"
)

// Typed errors mapped from wire status codes. Status "not found" is
// not an error — Get and Delete report it in their boolean result.
var (
	// ErrFull reports the server's table cannot place the item.
	ErrFull = errors.New("client: server table full")
	// ErrInvalidKey reports a key the store's layout reserves (the
	// zero key under 8-byte keys).
	ErrInvalidKey = errors.New("client: invalid key")
	// ErrDraining reports the server is shutting down.
	ErrDraining = errors.New("client: server draining")
	// ErrBadRequest reports the server rejected the request as
	// malformed.
	ErrBadRequest = errors.New("client: bad request")
)

// Key is the fixed-size key type of the wire protocol.
type Key = layout.Key

// Client is one connection to a grouphash server.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  []byte // request frame staging for pipelined writes
}

// Dial connects to a server at addr, retrying for up to timeout (0
// means a single attempt) — load generators race server start-up, so
// a short retry window is part of the contract.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true) // pipelined batches flush in one segment anyway
			}
			return &Client{
				conn: conn,
				br:   bufio.NewReaderSize(conn, 64<<10),
				bw:   bufio.NewWriterSize(conn, 64<<10),
			}, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("client: dialing %s: %w", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Close hangs up.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends a pipelined batch: all requests are written in one flush,
// then exactly len(reqs) responses are read, in request order. The
// returned slice is parallel to reqs. A transport error invalidates
// the connection (responses already received are NOT returned — the
// caller cannot tell which writes were applied, only which were acked
// in earlier successful batches).
func (c *Client) Do(reqs []wire.Request) ([]wire.Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = c.buf[:0]
	for _, r := range reqs {
		c.buf = wire.AppendRequest(c.buf, r)
	}
	if _, err := c.bw.Write(c.buf); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	resps := make([]wire.Response, len(reqs))
	for i := range resps {
		var err error
		if resps[i], err = wire.ReadResponse(c.br); err != nil {
			return nil, err
		}
	}
	return resps, nil
}

// do runs one request synchronously.
func (c *Client) do(req wire.Request) (wire.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := wire.WriteRequest(c.bw, req); err != nil {
		return wire.Response{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return wire.Response{}, err
	}
	return wire.ReadResponse(c.br)
}

// StatusErr maps a wire status to the package's typed error; StatusOK
// and StatusNotFound map to nil (absence is data, not failure).
func StatusErr(status byte) error {
	switch status {
	case wire.StatusOK, wire.StatusNotFound:
		return nil
	case wire.StatusFull:
		return ErrFull
	case wire.StatusInvalidKey:
		return ErrInvalidKey
	case wire.StatusDraining:
		return ErrDraining
	case wire.StatusBadRequest:
		return ErrBadRequest
	default:
		return fmt.Errorf("client: unknown status %d", status)
	}
}

// Ping checks the server is alive.
func (c *Client) Ping() error {
	resp, err := c.do(wire.Request{Op: wire.OpPing})
	if err != nil {
		return err
	}
	return StatusErr(resp.Status)
}

// Get returns the value under k and whether it was present.
func (c *Client) Get(k Key) (uint64, bool, error) {
	resp, err := c.do(wire.Request{Op: wire.OpGet, Key: k})
	if err != nil {
		return 0, false, err
	}
	if resp.Status == wire.StatusNotFound {
		return 0, false, nil
	}
	if err := StatusErr(resp.Status); err != nil {
		return 0, false, err
	}
	return resp.Value, true, nil
}

// Put upserts (k, v).
func (c *Client) Put(k Key, v uint64) error {
	resp, err := c.do(wire.Request{Op: wire.OpPut, Key: k, Value: v})
	if err != nil {
		return err
	}
	return StatusErr(resp.Status)
}

// Insert stores (k, v) with Algorithm-1 semantics (duplicates
// allowed).
func (c *Client) Insert(k Key, v uint64) error {
	resp, err := c.do(wire.Request{Op: wire.OpInsert, Key: k, Value: v})
	if err != nil {
		return err
	}
	return StatusErr(resp.Status)
}

// Delete removes k, reporting whether it was present.
func (c *Client) Delete(k Key) (bool, error) {
	resp, err := c.do(wire.Request{Op: wire.OpDelete, Key: k})
	if err != nil {
		return false, err
	}
	if resp.Status == wire.StatusNotFound {
		return false, nil
	}
	if err := StatusErr(resp.Status); err != nil {
		return false, err
	}
	return true, nil
}

// Len returns the server's item count.
func (c *Client) Len() (uint64, error) {
	resp, err := c.do(wire.Request{Op: wire.OpLen})
	if err != nil {
		return 0, err
	}
	if err := StatusErr(resp.Status); err != nil {
		return 0, err
	}
	return resp.Value, nil
}

// ServerMetrics returns the server's metrics registry rendered as
// Prometheus text exposition — the same payload GET /metrics serves,
// fetched over the wire protocol (cut at a line boundary if it
// exceeds the frame limit).
func (c *Client) ServerMetrics() (string, error) {
	resp, err := c.do(wire.Request{Op: wire.OpStats})
	if err != nil {
		return "", err
	}
	if err := StatusErr(resp.Status); err != nil {
		return "", err
	}
	return string(resp.Extra), nil
}
