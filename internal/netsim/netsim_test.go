package netsim

import (
	"math"
	"testing"

	"memento/internal/exact"
	"memento/internal/hierarchy"
	"memento/internal/netwide"
	"memento/internal/trace"
)

// mustNew is New for configurations the test knows are valid.
func mustNew(cfg Config) *Sim {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	base := Config{
		Method: Sample, Points: 10, Hier: hierarchy.OneD{}, Counters: 100,
		Params: netwide.Params{Budget: 1, Window: 1000},
	}
	bad := []func(Config) Config{
		func(c Config) Config { c.Hier = nil; return c },
		func(c Config) Config { c.Points = 0; return c },
		func(c Config) Config { c.Params.Budget = 0; return c },
		func(c Config) Config { c.Params.Window = 0; return c },
		func(c Config) Config { c.Method = Batch; c.Params.BatchSize = 0; return c },
		func(c Config) Config { c.Method = Method(9); return c },
		func(c Config) Config { c.Counters = 0; return c },
	}
	for i, mod := range bad {
		if _, err := New(mod(base)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if _, err := New(base); err != nil {
		t.Fatalf("valid config failed: %v", err)
	}
}

func TestTauFromBudget(t *testing.T) {
	s := mustNew(Config{
		Method: Sample, Points: 10, Hier: hierarchy.OneD{}, Counters: 100,
		Params: netwide.Params{Budget: 1, Window: 1000},
	})
	// τ = B/(O+E) = 1/68.
	if math.Abs(s.tau-1.0/68) > 1e-12 {
		t.Fatalf("Sample tau = %v, want 1/68", s.tau)
	}
	s = mustNew(Config{
		Method: Batch, Points: 10, Hier: hierarchy.OneD{}, Counters: 100,
		Params: netwide.Params{Budget: 1, BatchSize: 100, Window: 1000},
	})
	// τ = B·b/(O+E·b) = 100/464.
	if math.Abs(s.tau-100.0/464) > 1e-12 {
		t.Fatalf("Batch tau = %v, want 100/464", s.tau)
	}
	// 2D defaults E to 8.
	s = mustNew(Config{
		Method: Sample, Points: 10, Hier: hierarchy.TwoD{}, Counters: 100,
		Params: netwide.Params{Budget: 1, Window: 1000},
	})
	if math.Abs(s.tau-1.0/72) > 1e-12 {
		t.Fatalf("2D Sample tau = %v, want 1/72", s.tau)
	}
}

func TestBandwidthBudgetRespected(t *testing.T) {
	// All three methods must stay at or under B bytes/packet once
	// warmed up.
	gen := trace.MustNewGenerator(trace.Backbone, 5)
	for _, m := range []Method{Aggregation, Sample, Batch} {
		s := mustNew(Config{
			Method: m, Points: 10, Hier: hierarchy.OneD{}, Counters: 1000, Seed: 3,
			Params: netwide.Params{Budget: 1, BatchSize: 44, Window: 1 << 15},
		})
		for i := 0; i < 1<<17; i++ {
			s.Feed(gen.Next())
		}
		bpp := s.BytesPerPacket()
		if bpp > 1.05 {
			t.Errorf("%v: %v bytes/packet exceeds budget", m, bpp)
		}
		if s.reports == 0 {
			t.Errorf("%v: no reports sent", m)
		}
		// The sampling methods should also *use* the budget (±20%),
		// otherwise accuracy is being thrown away.
		if m != Aggregation && bpp < 0.8 {
			t.Errorf("%v: only %v bytes/packet of budget 1 used", m, bpp)
		}
	}
}

func TestReportCadence(t *testing.T) {
	// Sample sends ≈ τ·N messages; Batch ≈ τ·N/b; Aggregation far
	// fewer (its messages are huge).
	gen := trace.MustNewGenerator(trace.Backbone, 6)
	const n = 1 << 17
	counts := map[Method]uint64{}
	for _, m := range []Method{Aggregation, Sample, Batch} {
		s := mustNew(Config{
			Method: m, Points: 10, Hier: hierarchy.OneD{}, Counters: 1000, Seed: 4,
			Params: netwide.Params{Budget: 1, BatchSize: 44, Window: 1 << 15},
		})
		for i := 0; i < n; i++ {
			s.Feed(gen.Next())
		}
		counts[m] = s.reports
	}
	wantSample := float64(n) / 68
	if math.Abs(float64(counts[Sample])-wantSample) > 0.1*wantSample {
		t.Fatalf("Sample reports = %d, want ≈ %v", counts[Sample], wantSample)
	}
	// Sample reports once per (O+E)/B packets, Batch once per
	// (O+E·b)/B packets → ratio (O+E·b)/(O+E) = 240/68.
	ratio := float64(counts[Sample]) / float64(counts[Batch])
	want := 240.0 / 68
	if math.Abs(ratio-want) > 0.5 {
		t.Fatalf("Sample/Batch report ratio = %v, want ≈ %v", ratio, want)
	}
	if counts[Aggregation] >= counts[Batch] {
		t.Fatalf("Aggregation sent %d reports, must be rarest (batch %d)",
			counts[Aggregation], counts[Batch])
	}
}

// subnetShareWorkload mixes a heavy /8 with noise for estimate checks.
func subnetShareWorkload(s *Sim, oracle *exact.SlidingWindow[hierarchy.Prefix], n int) {
	gen := trace.MustNewGenerator(trace.Backbone, 7)
	heavy := hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, 0), SrcLen: 1}
	r := trace.MustNewGenerator(trace.Edge, 8) // second stream as randomness source
	_ = r
	i := 0
	for i < n {
		p := gen.Next()
		if i%3 == 0 { // ~33% of traffic from the heavy /8
			p.Src = hierarchy.IPv4(10, byte(p.Src>>16), byte(p.Src>>8), byte(p.Src))
		}
		s.Feed(p)
		if oracle != nil {
			oracle.Add(hierarchy.Prefix{Src: hierarchy.MaskBytes(p.Src, 1), SrcLen: 1})
		}
		_ = heavy
		i++
	}
}

func TestEstimatesTrackTruth(t *testing.T) {
	// All three methods must estimate a heavy /8's window share within
	// a broad envelope at B = 1 byte/packet.
	const window = 1 << 15
	const n = 4 * window
	heavy := hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, 0), SrcLen: 1}
	for _, m := range []Method{Aggregation, Sample, Batch} {
		s := mustNew(Config{
			Method: m, Points: 10, Hier: hierarchy.OneD{}, Counters: 2000, Seed: 9,
			Params: netwide.Params{Budget: 1, BatchSize: 44, Window: window},
		})
		oracle := exact.MustNewSlidingWindow[hierarchy.Prefix](window)
		subnetShareWorkload(s, oracle, n)
		truth := float64(oracle.Count(heavy))
		got := s.Estimate(heavy)
		if truth < float64(window)/4 {
			t.Fatalf("fixture broken: heavy subnet truth = %v", truth)
		}
		// Loose 50% envelope: delay + sampling at B=1 is substantial
		// but must not lose the subnet entirely.
		if got < 0.5*truth || got > 1.8*truth {
			t.Errorf("%v: estimate %v vs truth %v outside envelope", m, got, truth)
		}
	}
}

// TestEstimateFindsHeavySubnet: under every method the controller's
// estimate of a subnet carrying a third of the traffic clears a 0.2·W
// threshold.
func TestEstimateFindsHeavySubnet(t *testing.T) {
	const window = 1 << 15
	heavy := hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, 0), SrcLen: 1}
	for _, m := range []Method{Aggregation, Sample, Batch} {
		s := mustNew(Config{
			Method: m, Points: 10, Hier: hierarchy.OneD{}, Counters: 2000, Seed: 10,
			Params: netwide.Params{Budget: 1, BatchSize: 44, Window: window},
		})
		subnetShareWorkload(s, nil, 4*window)
		if est := s.Estimate(heavy); est < 0.2*window {
			t.Errorf("%v: 33%% subnet estimated at %v, below 0.2·W = %v", m, est, 0.2*window)
		}
	}
}

func TestFlowsHierarchyDMemento(t *testing.T) {
	// D-Memento = the Flows degenerate hierarchy. A single heavy flow
	// must be tracked.
	const window = 1 << 14
	s := mustNew(Config{
		Method: Batch, Points: 5, Hier: hierarchy.Flows{}, Counters: 512, Seed: 11,
		Params: netwide.Params{Budget: 1, BatchSize: 44, Window: window},
	})
	gen := trace.MustNewGenerator(trace.Edge, 12)
	heavySrc := hierarchy.IPv4(99, 1, 2, 3)
	for i := 0; i < 4*window; i++ {
		p := gen.Next()
		if i%4 == 0 {
			p.Src = heavySrc
		}
		s.Feed(p)
	}
	est := s.Estimate(hierarchy.Prefix{Src: heavySrc, SrcLen: 4})
	want := float64(window) / 4
	if est < 0.4*want || est > 2.5*want {
		t.Fatalf("D-Memento estimate %v for 25%% flow, want ≈ %v", est, want)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() float64 {
		s := mustNew(Config{
			Method: Batch, Points: 4, Hier: hierarchy.OneD{}, Counters: 500, Seed: 13,
			Params: netwide.Params{Budget: 1, BatchSize: 20, Window: 1 << 13},
		})
		gen := trace.MustNewGenerator(trace.Datacenter, 14)
		for i := 0; i < 1<<15; i++ {
			s.Feed(gen.Next())
		}
		return s.Estimate(hierarchy.Prefix{}) + float64(s.reports)
	}
	if mk() != mk() {
		t.Fatal("simulation not deterministic")
	}
}

func TestAggregationViewsReplaceNotAccumulate(t *testing.T) {
	// Stale per-agent views must be replaced wholesale on each report,
	// not summed forever.
	const window = 1 << 12
	s := mustNew(Config{
		Method: Aggregation, Points: 2, Hier: hierarchy.Flows{}, Seed: 15,
		Params: netwide.Params{Budget: 4, Window: window},
	})
	key := hierarchy.Prefix{Src: hierarchy.IPv4(1, 2, 3, 4), SrcLen: 4}
	// Saturate with one flow, then flush it out with another and give
	// the agents time to re-report.
	for i := 0; i < 4*window; i++ {
		s.Feed(hierarchy.Packet{Src: hierarchy.IPv4(1, 2, 3, 4)})
	}
	mid := s.Estimate(key)
	if mid < float64(window)/4 {
		t.Fatalf("estimate %v after saturation too small", mid)
	}
	for i := 0; i < 8*window; i++ {
		s.Feed(hierarchy.Packet{Src: hierarchy.IPv4(9, 9, 9, 9)})
	}
	if got := s.Estimate(key); got > mid/4 {
		t.Fatalf("stale flow estimate %v did not decay (was %v)", got, mid)
	}
}
