package main

// The metric and workload catalogue. BENCHMARK.json at the repository root
// repeats the names, units, directions and bounds listed here (a test keeps
// the two in step); the extra columns — which layer a metric belongs to and
// which end-to-end metric it should move on which workload — are the
// interaction notes later issues cite, and are rendered into README.md.

// metricDef describes one metric of the contract.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median by which it may worsen; end-to-end only
	Moves  string  // per-layer only: the end-to-end metric this one should move
	Where  string  // per-layer only: the workloads on which it should (and should not)
}

// endToEnd lists the metrics a user of the system would see. Every workload
// reports every one with -trace 0.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ingest_mpps", Unit: "Mpkt/s", Better: "higher", Bound: 0.25},
	{Name: "query_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "enforce_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "detect_delay_pkts", Unit: "packets", Better: "lower", Bound: 0.25},
	{Name: "flood_missed_frac", Unit: "fraction", Better: "lower", Bound: 0.25},
	{Name: "hhh_f1", Unit: "ratio", Better: "higher", Bound: 0.15},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer lists the traced run's metrics; layer = package name = the part
// of the metric name before the first dot. A metric that does not apply to a
// workload (codec.* on the sampled fleet, say) is reported as 0: no work was
// done in that layer.
var perLayer = []metricDef{
	{Name: "hierarchy.hash_ns", Unit: "ns/pkt", Better: "lower", Moves: "ingest_mpps", Where: "dev1d-ingest; not dev2d-query"},
	{Name: "hierarchy.prefix_ns", Unit: "ns/call", Better: "lower", Moves: "ingest_mpps", Where: "fleets (tau = 1)"},
	{Name: "rng.geometric_ns", Unit: "ns/draw", Better: "lower", Moves: "ingest_mpps", Where: "dev1d-ingest, fleet-sampled-flood"},
	{Name: "keyidx.get_ns", Unit: "ns/op", Better: "lower", Moves: "ingest_mpps", Where: "fleet-delta-flood; at most 1/32 weight on dev1d-ingest"},
	{Name: "keyidx.inc_dec_ns", Unit: "ns/op", Better: "lower", Moves: "ingest_mpps", Where: "fleet-delta-flood; at most 1/32 weight on dev1d-ingest"},
	{Name: "spacesaving.add_ns", Unit: "ns/op", Better: "lower", Moves: "ingest_mpps", Where: "fleet-delta-flood, dev2d-query"},
	{Name: "spacesaving.evict_frac", Unit: "ratio", Better: "lower", Moves: "ingest_mpps", Where: "fleet-delta-flood, dev2d-query"},
	{Name: "core.update_ns", Unit: "ns/pkt", Better: "lower", Moves: "ingest_mpps", Where: "all; dominant on fleet-delta-flood"},
	{Name: "core.update_batch_ns", Unit: "ns/pkt", Better: "lower", Moves: "ingest_mpps", Where: "all; dominant on fleet-delta-flood"},
	{Name: "core.full_update_frac", Unit: "ratio", Better: "lower", Moves: "ingest_mpps, est_nrmse", Where: "must equal H/V everywhere"},
	{Name: "core.window_advance_ns", Unit: "ns/pkt", Better: "lower", Moves: "ingest_mpps", Where: "dev1d-ingest"},
	{Name: "core.est_nrmse", Unit: "fraction", Better: "lower", Moves: "hhh_f1", Where: "all; moves only with sampling, counters or floors, never with speed"},
	{Name: "core.snapshot_us", Unit: "us", Better: "lower", Moves: "query_ms_p50, bench.gen_late_ms_p90", Where: "dev2d-query"},
	{Name: "shard.batcher_add_ns", Unit: "ns/pkt", Better: "lower", Moves: "ingest_mpps", Where: "dev1d-ingest"},
	{Name: "shard.update_batch_ns", Unit: "ns/pkt", Better: "lower", Moves: "ingest_mpps", Where: "dev1d-ingest"},
	{Name: "shard.imbalance", Unit: "max/mean", Better: "lower", Moves: "ingest_mpps", Where: "dev1d-ingest (the flood skews /8s)"},
	{Name: "shard.output_us", Unit: "us", Better: "lower", Moves: "query_ms_p50", Where: "dev2d-query; small on dev1d-ingest"},
	{Name: "shard.output_ms_p90", Unit: "ms", Better: "lower", Moves: "query_ms_p50, enforce_ms_p50", Where: "dev workloads: steady-phase OutputTo tail"},
	{Name: "shard.output_cold_ms", Unit: "ms", Better: "lower", Moves: "none gated", Where: "dev1d-ingest: p50 of the untimed first tick of each firing, caches as the producers left them; 0 on dev2d-query, which queries back to back"},
	{Name: "shard.merger_output_us", Unit: "us", Better: "lower", Moves: "query_ms_p50, enforce_ms_p50", Where: "dev2d-query, fleet-delta-flood; 0 on sampled"},
	{Name: "shard.checkpoint_ms", Unit: "ms", Better: "lower", Moves: "none timed", Where: "dev workloads; informational"},
	{Name: "shard.checkpoint_bytes", Unit: "B", Better: "lower", Moves: "heap_mb", Where: "dev workloads; informational"},
	{Name: "hhhset.compute_us", Unit: "us", Better: "lower", Moves: "query_ms_p50", Where: "dev2d-query (quadratic Closest); flat on 1D"},
	{Name: "hhhset.candidates", Unit: "count", Better: "lower", Moves: "query_ms_p50", Where: "dev2d-query"},
	{Name: "hhhset.output_len", Unit: "count", Better: "lower", Moves: "query_ms_p50", Where: "dev2d-query"},
	{Name: "codec.snapshot_encode_us", Unit: "us", Better: "lower", Moves: "enforce_ms_p50", Where: "fleet-delta-flood only"},
	{Name: "codec.snapshot_decode_us", Unit: "us", Better: "lower", Moves: "enforce_ms_p50", Where: "fleet-delta-flood only"},
	{Name: "codec.snapshot_bytes", Unit: "B", Better: "lower", Moves: "netwide.wire_bytes_per_pkt", Where: "fleet-delta-flood only"},
	{Name: "delta.capture_us", Unit: "us", Better: "lower", Moves: "enforce_ms_p50", Where: "fleet-delta-flood; 0 on sampled"},
	{Name: "delta.append_us", Unit: "us", Better: "lower", Moves: "enforce_ms_p50", Where: "fleet-delta-flood; 0 on sampled"},
	{Name: "delta.apply_us", Unit: "us", Better: "lower", Moves: "enforce_ms_p50", Where: "fleet-delta-flood; 0 on sampled"},
	{Name: "delta.materialize_us", Unit: "us", Better: "lower", Moves: "enforce_ms_p50", Where: "fleet-delta-flood; 0 on sampled"},
	{Name: "delta.bytes_per_record", Unit: "B", Better: "lower", Moves: "netwide.wire_bytes_per_pkt", Where: "fleet-delta-flood"},
	{Name: "delta.base_frac", Unit: "ratio", Better: "lower", Moves: "netwide.wire_bytes_per_pkt", Where: "fleet-delta-flood"},
	{Name: "netwide.observe_ns", Unit: "ns/pkt", Better: "lower", Moves: "ingest_mpps", Where: "both fleets"},
	{Name: "netwide.flush_to_covered_ms", Unit: "ms", Better: "lower", Moves: "enforce_ms_p50", Where: "both fleets"},
	{Name: "netwide.output_ms", Unit: "ms", Better: "lower", Moves: "query_ms_p50", Where: "both fleets"},
	{Name: "netwide.output_ms_p90", Unit: "ms", Better: "lower", Moves: "query_ms_p50", Where: "both fleets: steady-phase query tail"},
	{Name: "netwide.enforce_ms_p90", Unit: "ms", Better: "lower", Moves: "enforce_ms_p50", Where: "both fleets: steady-phase capture-to-enforce tail"},
	{Name: "netwide.mitigate_ms", Unit: "ms", Better: "lower", Moves: "enforce_ms_p50", Where: "fleet-sampled-flood: Mitigate = Output + Broadcast, inside the tick"},
	{Name: "netwide.broadcast_to_verdict_ms", Unit: "ms", Better: "lower", Moves: "enforce_ms_p50", Where: "both fleets"},
	{Name: "netwide.wire_bytes_per_pkt", Unit: "B/pkt", Better: "lower", Moves: "itself (end-to-end on fleets)", Where: "both fleets; 0 on dev workloads"},
	{Name: "netwide.reports", Unit: "count", Better: "lower", Moves: "netwide.wire_bytes_per_pkt", Where: "both fleets"},
	{Name: "netwide.bytes_in", Unit: "B", Better: "lower", Moves: "netwide.wire_bytes_per_pkt", Where: "both fleets"},
	{Name: "netwide.dropped", Unit: "count", Better: "lower", Moves: "bench.failed_frac", Where: "both fleets"},
	{Name: "netwide.resyncs", Unit: "count", Better: "lower", Moves: "bench.failed_frac", Where: "both fleets"},
	{Name: "lb.acl_lookup_ns", Unit: "ns", Better: "lower", Moves: "enforce_ms_p50", Where: "all (tiny; a guard)"},
	{Name: "lb.acl_apply_us", Unit: "us", Better: "lower", Moves: "enforce_ms_p50", Where: "all (tiny; a guard)"},
	{Name: "lb.observer_ns", Unit: "ns/event", Better: "lower", Moves: "ingest_mpps", Where: "dev1d-ingest"},
	{Name: "lb.http_rps", Unit: "req/s", Better: "higher", Moves: "none gated", Where: "fleet-sampled-flood only; informational"},
	{Name: "lb.http_ms_p50", Unit: "ms", Better: "lower", Moves: "none gated", Where: "fleet-sampled-flood only; informational"},
	{Name: "lb.http_denied_frac", Unit: "ratio", Better: "higher", Moves: "none gated", Where: "fleet-sampled-flood only; informational"},
	{Name: "ledger.ingest_coverage", Unit: "ratio", Better: "higher", Moves: "-", Where: "all; printed, not gated"},
	{Name: "ledger.enforce_coverage", Unit: "ratio", Better: "higher", Moves: "-", Where: "all; at least 0.9 on the fleets"},
	{Name: "bench.gen_late_ms_p90", Unit: "ms", Better: "lower", Moves: "bench.failed_frac", Where: "dev2d-query"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower", Moves: "-", Where: "all"},
	{Name: "bench.trace_overhead_enforce_frac", Unit: "ratio", Better: "lower", Moves: "-", Where: "all"},
	{Name: "bench.failed_frac", Unit: "fraction", Better: "lower", Moves: "-", Where: "all; must be 0"},
}
