// Package obs is the observability core: cache-line-padded atomic
// counters and gauges, constant-memory log-linear latency histograms,
// and a ring-buffered structured event trace, all registered in a
// flat Registry exported as Prometheus text, JSON, or a terminal
// table (and served live by DebugMux behind -debug-addr).
//
// The package is dependency-free (stdlib only) and built for hot
// paths: every instrument method is nil-receiver safe, so a layer
// that was never instrumented pays one predictable-not-taken branch
// (benchmarked ≤2ns, see bench_test.go) and zero allocations. The
// enabled path is a single padded atomic op. Instruments follow the
// naming convention memento_<layer>_<name> (DESIGN.md §11).
package obs

import "sync/atomic"

// Counter is a monotonically increasing counter. The value is padded
// to a cache line so counters packed in a struct or registry never
// false-share. The zero value is ready to use; a nil *Counter is a
// valid disabled instrument.
type Counter struct {
	v atomic.Uint64
	_ [56]byte
}

// Inc adds one.
//
//memento:noalloc
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
//
//memento:noalloc
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value (0 when disabled).
//
//memento:noalloc
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value (signed: residencies,
// depths, temperatures). Padded like Counter; nil is disabled.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set stores v.
//
//memento:noalloc
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Load returns the current value (0 when disabled).
//
//memento:noalloc
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
