package stats

import "sync/atomic"

// Live serving metrics — the expvar-style counters and gauges the
// network server publishes (its latency histograms are Histogram).
// Unlike Summary and Sample (single-goroutine, experiment-harness
// use), these types are safe for concurrent use on a request hot path.

// Counter is a concurrency-safe monotonically increasing event
// counter. The zero value is ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a concurrency-safe up/down level indicator (e.g. currently
// active connections). Unlike deriving a level from two independent
// counters — whose loads can interleave with a concurrent transition
// and underflow — a Gauge is one atomic, so a paired Inc/Dec history
// can never read negative. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Inc raises the level by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec lowers the level by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Load returns the current level, clamped at zero so that even a
// mispaired Dec cannot surface as a ~2^64 underflow to monitoring.
func (g *Gauge) Load() uint64 {
	v := g.v.Load()
	if v < 0 {
		return 0
	}
	return uint64(v)
}
