// Shard-plane observability: one shared core.Instruments set across
// all shards (block-granular, so sharing never contends), plus
// scrape-time funcs over the existing ingest ledgers — the hot paths
// pay nothing for registration.

package shard

import (
	"memento/internal/core"
	"memento/internal/obs"
)

// Instrument attaches a shared core instrument set (block slides,
// frame flushes, evictions, overflow residency, window-slide trace
// events) to every shard and registers the instance's update ledger
// and shard count in r. Nil-safe: with a nil registry the instruments
// are disabled. Call before ingest starts; returns the set for reuse.
// It also exports the query-plane SLO histogram, named by the hierarchy's
// dimensionality (memento_shard_query_1d_ns / memento_shard_query_2d_ns)
// so 1D scans and 2D glb-fallback scans stay separately observable,
// the share of each query spent capturing under the shard locks
// (memento_shard_query_capture_ns), and the read plane's filter
// selectivity (memento_shard_query_swept_keys_total / _admitted_total).
func (s *HHH) Instrument(r *obs.Registry, t *obs.Trace, actor string) *core.Instruments {
	ins := core.NewInstruments(r, t, actor)
	for i := range s.shards {
		sl := &s.shards[i]
		sl.mu.Lock()
		sl.hh.Instrument(ins)
		sl.mu.Unlock()
	}
	r.RegisterFunc("memento_shard_updates_total",
		func() float64 { return float64(s.Updates()) })
	r.RegisterFunc("memento_shard_count",
		func() float64 { return float64(len(s.shards)) })
	queryName := "memento_shard_query_1d_ns"
	if s.hier.Dims() == 2 {
		queryName = "memento_shard_query_2d_ns"
	}
	r.RegisterHistogram(queryName, &s.queryHist)
	r.RegisterHistogram("memento_shard_query_capture_ns", &s.captureHist)
	r.RegisterCounter("memento_shard_query_swept_keys_total", &s.swept)
	r.RegisterCounter("memento_shard_query_admitted_total", &s.admitted)
	return ins
}
