package client

import (
	"grouphash/internal/wire"
)

// DoBatch sends sub-ops as explicit OpBatch frames: one frame carries
// up to wire.MaxBatchOps packed sub-requests (larger slices split into
// consecutive frames, all pipelined in one flush) and comes back as
// one packed response frame per request frame — the server releases a
// frame's responses only once every logged sub-op in it is durable, so
// an answered batch frame is acked all-or-nothing. The returned slice
// is parallel to subs. Sub-ops may be Ping/Get/Put/Delete/Len;
// OpStats and nested OpBatch come back StatusBadRequest.
//
// Compared to Do (N single frames pipelined), DoBatch moves the
// batching decision to the server's stripe-grouped apply explicitly
// and cuts framing overhead; either path amortises the round trip.
func (c *Client) DoBatch(subs []wire.Request) ([]wire.Response, error) {
	return c.DoBatchN(subs, wire.MaxBatchOps)
}

// DoBatchN is DoBatch with an explicit frame size: subs travel as
// OpBatch frames of up to frameSize sub-ops each (clamped to
// [1, wire.MaxBatchOps]), all frames pipelined in one flush. Load
// generators use it to sweep batch size as an experiment axis.
func (c *Client) DoBatchN(subs []wire.Request, frameSize int) ([]wire.Response, error) {
	if len(subs) == 0 {
		return nil, nil
	}
	if frameSize < 1 {
		frameSize = 1
	}
	if frameSize > wire.MaxBatchOps {
		frameSize = wire.MaxBatchOps
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = c.buf[:0]
	var err error
	for off := 0; off < len(subs); off += frameSize {
		end := min(off+frameSize, len(subs))
		if c.buf, err = wire.AppendBatchRequest(c.buf, subs[off:end]); err != nil {
			return nil, err
		}
	}
	if _, err := c.bw.Write(c.buf); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	resps := make([]wire.Response, len(subs))
	for off := 0; off < len(subs); off += frameSize {
		end := min(off+frameSize, len(subs))
		if err := wire.ReadBatchResponses(c.br, resps[off:end]); err != nil {
			return nil, err
		}
	}
	return resps, nil
}

// MGet looks up many keys in one batch. The returned slices are
// parallel to keys: vals[i] is valid iff found[i]. A non-transport
// per-key failure (a malformed sub-op status) aborts with its typed
// error.
func (c *Client) MGet(keys []Key) (vals []uint64, found []bool, err error) {
	if len(keys) == 0 {
		return nil, nil, nil
	}
	subs := make([]wire.Request, len(keys))
	for i, k := range keys {
		subs[i] = wire.Request{Op: wire.OpGet, Key: k}
	}
	resps, err := c.DoBatch(subs)
	if err != nil {
		return nil, nil, err
	}
	vals = make([]uint64, len(keys))
	found = make([]bool, len(keys))
	for i := range resps {
		switch resps[i].Status {
		case wire.StatusOK:
			vals[i], found[i] = resps[i].Value, true
		case wire.StatusNotFound:
			// absent: zero value, found[i] stays false
		default:
			return nil, nil, StatusErr(resps[i].Status)
		}
	}
	return vals, found, nil
}

// PutBatch upserts keys[i] → vals[i] for all i in one batch (slices
// must be the same length) and returns the first per-op failure in
// submission order, nil if every put landed. All sub-ops are attempted
// regardless of individual failures.
func (c *Client) PutBatch(keys []Key, vals []uint64) error {
	if len(keys) != len(vals) {
		return ErrBadRequest
	}
	if len(keys) == 0 {
		return nil
	}
	subs := make([]wire.Request, len(keys))
	for i := range keys {
		subs[i] = wire.Request{Op: wire.OpPut, Key: keys[i], Value: vals[i]}
	}
	resps, err := c.DoBatch(subs)
	if err != nil {
		return err
	}
	for i := range resps {
		if err := StatusErr(resps[i].Status); err != nil {
			return err
		}
	}
	return nil
}
