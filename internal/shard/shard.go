// Package shard is the concurrent front-end over the single-threaded
// Memento structures in internal/core: HHH, an array of
// independently-locked H-Memento sketches that makes the library
// usable from many goroutines at line rate.
//
// The design follows the paper's own scaling story. A Memento sketch
// is deliberately single-writer (constant-time updates, no atomics on
// the hot path); the network-wide setting (Section 4.3) already scales
// by splitting the stream across m measurement points and merging at
// query time. This package applies the same split inside one process:
// each of N shards maintains a sliding window of W/N of *its*
// substream — which, when every shard receives 1/N of the traffic,
// spans approximately the last W packets of the global stream — and
// queries merge across shards. Ingest deals whole batches, so it
// hashes nothing. Each producer's PacketBatcher deals first to its own
// allotment, a run of shards the instance re-derives once per epoch
// (every W packets dealt) from the producers' shares of the last one,
// laid along the shard ring so that every shard is owed 1/N of the
// traffic. A producer's shards thus stay in its own core's cache, the
// way each measurement point of Section 4.3 keeps its own sketch. A
// lone producer's allotment is every shard, dealt in turn. When all
// its shards are busy, a batch goes to the first shard whose lock is
// free, so producers do not queue behind each other. Queries read
// every shard anyway (a prefix aggregates many flows), so a flow may
// span all of them.
//
// The split is not always exactly even: a flush that skipped a busy
// shard, or a producer whose rate changed since the last epoch, gives
// one shard more than 1/N of the stream, and its fixed-size window
// then spans *fewer* global packets, deflating raw estimates. Queries
// therefore apply a skew correction (scaleFrom): each shard's estimate
// is rescaled by the share of traffic that shard received, which is
// exactly 1 for equal shares and restores the global-window
// interpretation otherwise, assuming the shard's mix is stationary
// across its window. DESIGN.md §4 bounds what it does not absorb.
//
// Two mechanisms amortize synchronization:
//
//   - Batched ingestion. core.HHH.UpdateBatch draws the geometric
//     "packets until the next Full update" count once per Full update
//     instead of flipping a coin per packet, and slides the window in
//     bulk between them. The shard layer takes a shard lock once per
//     batch, not once per packet.
//   - Per-goroutine PacketBatchers. A PacketBatcher accumulates a
//     goroutine's stream locally (no synchronization at all) and
//     flushes it a batch at a time, the intended high-rate ingestion
//     path.
//
// Lock-per-flush is the only ingest engine. The common packet is a
// few-nanosecond Window update, so a cross-core hand-off has no
// per-packet work to offload; DESIGN.md §9 records the measurement
// and the rule a second engine would have to meet.
//
// The total counter budget is divided across shards, so a sharded
// sketch costs the same memory as the single-threaded configuration
// it replaces and keeps the same εa·W algorithmic error band: each
// shard has k/N counters over a W/N window.
package shard

const defaultSeed = 0x73686172645f6d65 // "shard_me"

// minShardCounters floors the per-shard counter budget, in counters
// per hierarchy level, so extreme Shards/Counters ratios cannot
// degenerate the Space Saving stage.
const minShardCounters = 8

// DefaultBatchSize amortizes lock acquisition and sampler draws well
// in practice while keeping per-goroutine buffers small.
const DefaultBatchSize = 256

// scaleFrom returns the skew correction for one shard: the ratio
// between the substream packets that fall inside the global window
// (share·W, capped at what the shard has seen) and the span the
// shard's own window covers. When every shard's share is 1/N — a
// lone producer deals exactly that — the scale is exactly 1; a shard
// that received more (a flush that skipped a busy shard) gets
// scale > 1 (its window spans less global time than W), a cold shard
// gets scale < 1. updates and effWindow come either from a locked
// live shard (point queries) or from a captured snapshot (multi-shard
// reads); total is the global packet count the share is measured
// against.
func scaleFrom(updates uint64, effWindow int, total uint64, globalWindow int) float64 {
	if total == 0 || updates == 0 {
		return 1
	}
	span := float64(updates) / float64(total) * float64(globalWindow)
	if span > float64(updates) {
		span = float64(updates)
	}
	winLen := float64(effWindow)
	if float64(updates) < winLen {
		winLen = float64(updates)
	}
	if winLen <= 0 || span <= 0 {
		return 1
	}
	return span / winLen
}
