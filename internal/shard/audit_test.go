// Accuracy-plane integration: the shadow oracle teed off a
// PacketBatcher must never observe the sketch outside its guaranteed
// (ε,δ) band — the bound_violations_total == 0 acceptance invariant —
// and its exact counts must agree with a brute-force sliding window
// driven through the same batcher.

package shard

import (
	"testing"

	"memento/internal/audit"
	"memento/internal/core"
	"memento/internal/hierarchy"
	"memento/internal/obs"
	"memento/internal/rng"
)

// auditStream yields the skewed packet stream the audit tests drive:
// a handful of heavy sources over a long uniform tail.
func auditStream(seed uint64, n int) []hierarchy.Packet {
	src := rng.New(seed)
	ps := make([]hierarchy.Packet, n)
	for i := range ps {
		a := uint32(src.Intn(1 << 20))
		if src.Intn(3) > 0 {
			a = uint32(src.Intn(64))
		}
		ps[i] = hierarchy.Packet{Src: a}
	}
	return ps
}

// TestAuditedIngestNoViolations runs the full loop — batcher tee,
// window slide, eviction, Audit against the live sharded estimator —
// and requires zero bound violations, single- and multi-shard. The
// seeds are fixed, so the (1−δ) guarantee is a deterministic check
// here.
func TestAuditedIngestNoViolations(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := mustNewHHH(HHHConfig{
			Core: core.HHHConfig{
				Hierarchy: hierarchy.OneD{}, Window: 1 << 14, Counters: 512 * 5, V: 20, Seed: 11,
			},
			Shards: shards,
		})
		// SampleShift 0 audits every key: the window holds a few
		// thousand distinct sources, so size the oracle for all of
		// them and the test is deterministic whatever the shard salt.
		a, err := audit.New(audit.Config{
			Hier:           hierarchy.OneD{},
			Window:         s.EffectiveWindow(),
			MaxKeys:        1 << 13,
			MaxOccurrences: 1 << 15,
			Seed:           13,
		})
		if err != nil {
			t.Fatal(err)
		}
		reg := newTestRegistry(t, s, a)
		bt := s.NewBatcher(256)
		bt.Audit(a)
		for _, p := range auditStream(17, 3<<14) {
			bt.Add(p)
		}
		bt.Flush()
		a.Flush()
		res := a.Audit(s)
		if res.Keys == 0 || res.Checks == 0 {
			t.Fatalf("shards=%d: audit vacuous: %+v", shards, res)
		}
		if res.Violations != 0 || a.Violations() != 0 {
			t.Fatalf("shards=%d: bound violations: %+v", shards, res)
		}
		if res.Tainted {
			t.Fatalf("shards=%d: oracle overflowed; grow its capacity", shards)
		}
		if res.Bound <= 0 || res.MaxAbsErr > res.Bound {
			t.Fatalf("shards=%d: observed error %v outside reported bound %v",
				shards, res.MaxAbsErr, res.Bound)
		}
		if got := reg.Counter("memento_audit_bound_violations_total").Load(); got != 0 {
			t.Fatalf("shards=%d: exported violation counter = %d", shards, got)
		}
	}
}

// newTestRegistry wires the audit catalog and shard instruments into
// a fresh registry, exercising the registration path.
func newTestRegistry(t *testing.T, s *HHH, a *audit.Auditor) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	s.Instrument(reg, nil, "test")
	a.Register(reg)
	return reg
}

// TestAuditedBatcherCounts checks the tee's exactness through the
// batcher: every key the oracle tracks must carry the brute-force
// sliding-window count of the stream fed to Add.
func TestAuditedBatcherCounts(t *testing.T) {
	const window = 1 << 12
	s := mustNewHHH(HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hierarchy.OneD{}, Window: window, Counters: 512 * 5, V: 20, Seed: 3,
		},
		Shards: 4,
	})
	a, err := audit.New(audit.Config{
		Hier:           hierarchy.OneD{},
		Window:         s.EffectiveWindow(),
		MaxKeys:        1 << 12,
		MaxOccurrences: 1 << 14,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	bt := s.NewBatcher(128)
	bt.Audit(a)
	stream := auditStream(23, 3*window)
	for _, p := range stream {
		bt.Add(p)
	}
	bt.Flush()
	a.Flush()

	w := s.EffectiveWindow()
	exact := map[uint32]uint64{}
	for _, p := range stream[len(stream)-w:] {
		exact[p.Src]++
	}
	checked := 0
	for src, want := range exact {
		key := hierarchy.Prefix{Src: src, SrcLen: hierarchy.AddrBytes}
		got := a.Count(key)
		if got == 0 {
			continue // not in the sampled set
		}
		checked++
		if got != want {
			t.Fatalf("Count(%d) = %d, want %d", src, got, want)
		}
	}
	if checked == 0 {
		t.Fatal("no sampled keys to check")
	}
	if a.Overflows() != 0 {
		t.Fatalf("oracle overflowed %d times", a.Overflows())
	}
}

// TestQueryLatencyHistogram pins the query-plane SLO instrumentation:
// OutputTo observes its wall time, and Instrument exports the
// histogram under the dimensionality-split name.
func TestQueryLatencyHistogram(t *testing.T) {
	s := mustNewHHH(HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hierarchy.OneD{}, Window: 1 << 12, Counters: 512 * 5, V: 20, Seed: 7,
		},
		Shards: 2,
	})
	reg := obs.NewRegistry()
	s.Instrument(reg, nil, "test")
	bt := s.NewBatcher(128)
	for _, p := range auditStream(29, 1<<13) {
		bt.Add(p)
	}
	bt.Flush()
	var out []core.HeavyPrefix
	for i := 0; i < 4; i++ {
		out = s.OutputTo(0.05, out[:0])
	}
	var hs obs.HistSnapshot
	reg.Histogram("memento_shard_query_1d_ns").Snapshot(&hs)
	if hs.Count != 4 {
		t.Fatalf("query histogram count = %d, want 4", hs.Count)
	}
	if hs.Max() == 0 {
		t.Fatal("query histogram recorded zero max latency")
	}
	// The capture share is observed once per query and is part of it.
	var capture obs.HistSnapshot
	reg.Histogram("memento_shard_query_capture_ns").Snapshot(&capture)
	if capture.Count != 4 || capture.Max() == 0 || capture.Max() > hs.Max() {
		t.Fatalf("capture histogram: count %d max %d (query max %d), want 4 nonzero captures inside their queries",
			capture.Count, capture.Max(), hs.Max())
	}
	// Filter selectivity rides the same registry: every query sweeps
	// the tracked keys and admits no more than it swept.
	swept := reg.Counter("memento_shard_query_swept_keys_total").Load()
	admitted := reg.Counter("memento_shard_query_admitted_total").Load()
	if swept == 0 || swept%4 != 0 || admitted > swept {
		t.Fatalf("selectivity counters: swept %d admitted %d over 4 identical queries", swept, admitted)
	}

	// 2D instances export under the 2D name.
	s2 := mustNewHHH(HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hierarchy.TwoD{}, Window: 1 << 12, Counters: 512 * 25, V: 50, Seed: 7,
		},
		Shards: 1,
	})
	reg2 := obs.NewRegistry()
	s2.Instrument(reg2, nil, "test")
	s2.OutputTo(0.5, nil)
	var hs2 obs.HistSnapshot
	reg2.Histogram("memento_shard_query_2d_ns").Snapshot(&hs2)
	if hs2.Count != 1 {
		t.Fatalf("2D exported histogram count = %d, want 1", hs2.Count)
	}
}
