package main

import (
	"testing"

	"grouphash/internal/oplog"
)

// TestCellAccounting runs small cells of every shape the serving
// experiments use and checks the accounting their rows are built from:
// ops are the whole bursts acked, items are the preload plus every put
// (warm-up included), a log-less cell counts no appends or fsyncs, the
// RTT histogram holds one observation per measured burst, and the
// measured phase of the allocation-free driver against the pooled
// serving loop stays below 0.01 heap allocations per op (outside race
// builds).
func TestCellAccounting(t *testing.T) {
	zeroWindow := oplog.Config{}
	base := cell{
		engine: "grouphash", capacity: 1 << 14, log: &adaptiveLog, preload: 256,
		workload: "put", conns: 2, burst: 64, inflight: 1,
		// Eight warm-up bursts per connection fill the serving loop's
		// pools; 4000 ops are 31 whole bursts per connection.
		warm: 2 * 64 * 8, ops: 4000,
	}
	for _, tc := range []struct {
		name string
		mut  func(*cell)
	}{
		{"single-frames", func(c *cell) {}},
		{"batch-8-mixed", func(c *cell) { c.frame, c.workload = 8, "mixed" }},
		{"pfht-batch-8", func(c *cell) { c.engine, c.frame = "pfht", 8 }},
		{"zero-window-4-in-flight", func(c *cell) { c.log, c.inflight = &zeroWindow, 4 }},
		{"no-log-untimed", func(c *cell) { c.log, c.untimed = nil, true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := base
			tc.mut(&c)
			r := c.run()

			bursts := c.ops / (c.conns * c.burst)
			if want := c.conns * bursts * c.burst; r.ops != want {
				t.Errorf("ops = %d, want %d (whole bursts)", r.ops, want)
			}
			puts := c.conns * (c.warm/(c.conns*c.burst) + bursts) * c.burst
			if c.workload == "mixed" {
				puts /= 2
			}
			if want := uint64(c.conns*c.preload + puts); r.items != want {
				t.Errorf("items = %d, want %d preloaded + %d puts", r.items, c.conns*c.preload, puts)
			}
			if c.log == nil && (r.appends != 0 || r.fsyncs != 0) {
				t.Errorf("no log, yet %d appends and %d fsyncs", r.appends, r.fsyncs)
			}
			if c.log != nil && (r.appends == 0 || r.fsyncs == 0) {
				t.Errorf("logged puts, yet %d appends and %d fsyncs", r.appends, r.fsyncs)
			}
			if want := uint64(c.conns * bursts); r.rtt.Count != want {
				t.Errorf("rtt count = %d, want %d bursts", r.rtt.Count, want)
			}
			// A race build's sync.Pool drops a quarter of its Puts on
			// purpose, so only a normal build can hold the pooled rate.
			if a := r.perOp(r.mallocs); a >= 0.01 && !raceBuild {
				t.Errorf("measured phase: %.4f allocs/op (%d mallocs), want < 0.01", a, r.mallocs)
			}
		})
	}
}
