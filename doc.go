// Package memento is a Go implementation of the Memento family of
// sliding-window heavy-hitter algorithms from "Memento: Making Sliding
// Windows Efficient for Heavy Hitters" (Ben Basat, Einziger, Keslassy,
// Orda, Vargaftik, Waisbard — CoNEXT 2018), together with every
// substrate and baseline its evaluation depends on.
//
// The library lives under internal/ and is organized as:
//
//   - internal/core — Memento (windowed heavy hitters with sampled Full
//     updates) and H-Memento (hierarchical heavy hitters in constant
//     time per packet): the paper's contribution. H-Memento's batched
//     hot path (HHH.UpdateBatch, over Sketch.WindowAdvance) draws the
//     geometric skip count once per sampled packet and slides the
//     window in bulk.
//   - internal/shard — the concurrent ingestion layer: shard.HHH over
//     independently-locked core.HHH instances, fed by per-goroutine
//     PacketBatchers that deal whole batches, each to its own
//     allotment of shards (re-derived once per window from the
//     producers' rates) and to whichever shard is free when those are
//     busy, with skew-corrected merged queries. This is the entry
//     point for multi-goroutine, line-rate use.
//   - internal/keyidx — the flat, pointer-free key tables under the
//     hot paths: slab-backed open addressing with a caller-supplied
//     hasher, shared so that a sketch hashes each key once for all its
//     indexes. The Memento overflow table runs on its Counts, which
//     journals its mutations so a query's capture replays only what
//     changed; the query scratch sets run on its Index, with O(1)
//     generation-stamp Flush. Together with Space Saving's own packed
//     position index, they make the per-packet Update path
//     allocation-free end to end (CI gates on 0 allocs/op).
//   - internal/codec — the durable plane: a versioned, fuzz-hardened
//     binary format for full sketch state. H-Memento snapshots encode
//     (AppendTo, 0 allocs/op) and decode (strict validation, typed
//     errors) as self-contained records; shard instances checkpoint
//     to and restore from io.Writer/io.Reader with answer-identical
//     rehydration; cmd/mementoctl saves, inspects, merges and diffs
//     the files offline.
//   - internal/delta — the incremental replication plane on top of the
//     codec: epoch-stamped base+delta chains that ship only the
//     counters that changed (core marks touched counter slots, not keys),
//     with strict ErrEpochGap resync, a fidelity floor for sub-noise
//     churn, and an atomic on-disk Checkpointer for warm restarts
//     (cmd/lbproxy and cmd/controller wire it to -checkpoint-dir).
//   - internal/spacesaving, internal/hierarchy, internal/hhhset,
//     internal/exact, internal/rng, internal/stats — substrates.
//   - internal/baseline — MST, RHHH and the WCSS-based window Baseline.
//   - internal/netsim, internal/netwide — the network-wide setting:
//     a deterministic simulator for the quantitative figures and a real
//     TCP controller/agent implementation with three report modes:
//     τ-sampled batches under a byte budget, full-fidelity snapshot
//     shipping (the paper's "send everything" baseline as a live
//     accuracy-vs-bandwidth operating point, merged with the shard
//     layer's estimate math), or delta chains that hold snapshot
//     fidelity at a fraction of the bytes.
//   - internal/lb, internal/floodgen — the testbed: a measurement-
//     enabled HTTP load balancer with subnet ACLs, batched measurement
//     observers, and an HTTP flood generator.
//   - internal/experiments, internal/analysis, internal/detect — the
//     drivers that regenerate every figure of the paper's evaluation.
//   - internal/analyzers, cmd/mementovet — the static-invariant suite:
//     three //memento:-annotation-driven analyzers (noalloc, lockguard,
//     nodet) that enforce the allocation-free hot path, the per-shard
//     lock discipline and deterministic encoders at type-check time.
//   - internal/obs — the observability core (mementoscope): stdlib-only
//     padded atomic counters/gauges, constant-memory log-linear
//     histograms with mergeable snapshots, a ring-buffered lifecycle
//     event trace, and the /debug/metrics//debug/events//debug/pprof
//     endpoints served behind -debug-addr on lbproxy and controller
//     (browse live with mementoctl top). Every instrument is
//     nil-receiver-safe, so the disabled plane costs one branch on
//     block-granular paths and nothing per packet.
//
// The benchmarks in bench_test.go map one-to-one onto the paper's
// tables and figures; DESIGN.md §5 documents the persistence/wire
// format, §6 is the experiment-to-benchmark index, §7 describes
// how performance is tracked (the repository benchmark under
// benchmark/, its result sets and pair tables), §8 the
// //memento: annotation grammar and waiver policy, and §11 the
// instrument catalog, metric naming convention and event schema.
package memento
