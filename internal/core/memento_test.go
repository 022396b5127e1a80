package core

import (
	"math"
	"testing"
	"testing/quick"

	"memento/internal/exact"
	"memento/internal/rng"
)

// mustNew is New for configurations the test knows are valid.
func mustNew[K comparable](cfg Config) *Sketch[K] {
	s, err := New[K](cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// position returns m, the number of packets into the current frame
// [0, window).
func (s *Sketch[K]) position() uint64 {
	m := (uint64(s.k-s.blocksLeft)+1)*s.blockPackets - s.untilBlock
	if m == s.window {
		return 0
	}
	return m
}

// pending returns the total number of undrained queued entries,
// recomputed from the slices so tests can cross-check the maintained
// queued counter.
func (r *blockRing[K]) pending() int {
	total := 0
	for i := range r.queues {
		total += len(r.queues[i]) - r.heads[i]
	}
	if total != r.queued {
		panic("core: blockRing queued counter out of sync")
	}
	return total
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{},                                   // no window
		{Window: -1, Counters: 4},            // bad window
		{Window: 100},                        // no counters
		{Window: 100, Counters: -8},          // bad counters
		{Window: 100, Counters: 8, Tau: 1.5}, // bad tau
		{Window: 100, Counters: 8, Tau: -1},  // bad tau
		{Window: 100, Counters: 8, Tau: 0.5, Scale: 0.1}, // bad scale
	}
	for i, cfg := range cases {
		if _, err := New[int](cfg); err == nil {
			t.Errorf("case %d (%+v) should fail", i, cfg)
		}
	}
	if _, err := New[int](Config{Window: 100, Counters: 40}); err != nil {
		t.Errorf("valid config failed: %v", err)
	}
}

func TestCounterSizing(t *testing.T) {
	s := mustNew[int](Config{Window: 1000, Counters: 64})
	if s.Counters() != 64 {
		t.Fatalf("k = %d, want Counters = 64", s.Counters())
	}
}

func TestEffectiveWindowRounding(t *testing.T) {
	s := mustNew[int](Config{Window: 100, Counters: 7})
	// blockPackets = ceil(100/7) = 15, window = 105.
	if s.EffectiveWindow() != 105 {
		t.Fatalf("EffectiveWindow = %d, want 105", s.EffectiveWindow())
	}
	s = mustNew[int](Config{Window: 1024, Counters: 4})
	if s.EffectiveWindow() != 1024 {
		t.Fatalf("EffectiveWindow = %d, want 1024", s.EffectiveWindow())
	}
}

func TestBlockUnits(t *testing.T) {
	// τ = 0.5 halves the overflow threshold but not the block timing.
	s := mustNew[int](Config{Window: 1024, Counters: 4, Tau: 0.5})
	if s.blockPackets != 256 {
		t.Fatalf("blockPackets = %d, want 256", s.blockPackets)
	}
	if s.blockCounts != 128 {
		t.Fatalf("blockCounts = %d, want 128", s.blockCounts)
	}
	if s.Scale() != 2 {
		t.Fatalf("scale = %v, want 2", s.Scale())
	}
	// Extreme sampling clamps the threshold at one count.
	s = mustNew[int](Config{Window: 1024, Counters: 64, Tau: 1.0 / 1024})
	if s.blockCounts != 1 {
		t.Fatalf("blockCounts = %d, want clamp to 1", s.blockCounts)
	}
}

// zipfStream produces a deterministic skewed key stream for tests.
func zipfStream(seed uint64, n, universe int) []uint64 {
	r := rng.New(seed)
	out := make([]uint64, n)
	for i := range out {
		// Simple discrete power-law: rank = floor(u^{-1.2}) bounded.
		u := r.Float64()
		if u < 1e-9 {
			u = 1e-9
		}
		rank := int(math.Pow(u, -0.8)) % universe
		out[i] = uint64(rank)
	}
	return out
}

func TestWCSSBoundsAgainstOracle(t *testing.T) {
	// With τ = 1 Memento is WCSS; its estimates must satisfy
	// f ≤ f̂ ≤ f + εa·W with εa·W = 4·W/k (one-sided error like MST).
	const window = 1000
	const k = 20
	s := mustNew[uint64](Config{Window: window, Counters: k})
	oracle := exact.MustNewSlidingWindow[uint64](s.EffectiveWindow())
	stream := zipfStream(42, 8*window, 64)
	slack := 4.0 * float64(s.EffectiveWindow()) / float64(k)

	for i, key := range stream {
		s.Update(key)
		oracle.Add(key)
		if i < s.EffectiveWindow() || i%37 != 0 {
			continue
		}
		for q := uint64(0); q < 64; q++ {
			f := float64(oracle.Count(q))
			est := s.Query(q)
			if est < f {
				t.Fatalf("packet %d key %d: estimate %v below truth %v", i, q, est, f)
			}
			if est > f+slack {
				t.Fatalf("packet %d key %d: estimate %v exceeds truth %v + slack %v", i, q, est, f, slack)
			}
		}
	}
}

func TestWCSSBoundsProperty(t *testing.T) {
	// Property-based variant over random streams and geometries.
	f := func(keys []uint8, kRaw uint8, wRaw uint16) bool {
		k := int(kRaw%12) + 4
		window := int(wRaw%400) + k
		s := mustNew[uint8](Config{Window: window, Counters: k})
		oracle := exact.MustNewSlidingWindow[uint8](s.EffectiveWindow())
		slack := 4.0 * float64(s.EffectiveWindow()) / float64(k)
		for _, key := range keys {
			s.Update(key)
			oracle.Add(key)
		}
		for q := 0; q < 256; q += 5 {
			f := float64(oracle.Count(uint8(q)))
			est := s.Query(uint8(q))
			if est < f || est > f+slack {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowSlides(t *testing.T) {
	// A flow that stops sending must be forgotten within one window.
	const window = 500
	const k = 10
	s := mustNew[uint64](Config{Window: window, Counters: k})
	for i := 0; i < window; i++ {
		s.Update(1)
	}
	if est := s.Query(1); est < float64(window) {
		t.Fatalf("saturated flow estimate %v below window %d", est, window)
	}
	for i := 0; i < s.EffectiveWindow(); i++ {
		s.Update(2)
	}
	est := s.Query(1)
	slack := 4.0 * float64(s.EffectiveWindow()) / float64(k)
	if est > slack {
		t.Fatalf("expired flow still estimated at %v (> slack %v)", est, slack)
	}
	if est2 := s.Query(2); est2 < float64(window) {
		t.Fatalf("current flow underestimated: %v", est2)
	}
}

func TestDeamortizedDrainInvariant(t *testing.T) {
	// Under Algorithm 1's update pattern the oldest queue is always
	// empty by rotation time.
	for _, tau := range []float64{1, 0.25, 1.0 / 64} {
		s := mustNew[uint64](Config{Window: 512, Counters: 16, Tau: tau, Seed: 9})
		r := rng.New(3)
		for i := 0; i < 20000; i++ {
			s.Update(r.Uint64() % 8) // few keys → maximal overflow pressure
		}
		if s.ForcedDrains() != 0 {
			t.Fatalf("τ=%v: %d forced drains; de-amortization broke", tau, s.ForcedDrains())
		}
	}
}

func TestOverflowAccounting(t *testing.T) {
	// ΣB equals the number of queued (undrained) overflow entries.
	s := mustNew[uint64](Config{Window: 512, Counters: 16})
	r := rng.New(4)
	for i := 0; i < 5000; i++ {
		s.Update(r.Uint64() % 4)
	}
	total := 0
	s.Overflowed(func(_ uint64, n int32) bool {
		total += int(n)
		return true
	})
	if total != s.ring.pending() {
		t.Fatalf("ΣB = %d, queued = %d", total, s.ring.pending())
	}
}

func TestHeavyHitters(t *testing.T) {
	const window = 2000
	s := mustNew[uint64](Config{Window: window, Counters: 50})
	r := rng.New(8)
	// Key 1: 30%, key 2: 15%, the rest uniform noise over 1000 keys.
	for i := 0; i < 3*window; i++ {
		u := r.Float64()
		switch {
		case u < 0.30:
			s.Update(1)
		case u < 0.45:
			s.Update(2)
		default:
			s.Update(100 + r.Uint64()%1000)
		}
	}
	hh := s.HeavyHitters(0.25, nil)
	found := map[uint64]bool{}
	for _, item := range hh {
		found[item.Key] = true
	}
	if !found[1] {
		t.Fatalf("30%% flow missed at θ=0.25: %v", hh)
	}
	if found[2] {
		t.Fatalf("15%% flow reported at θ=0.25 despite error budget: %v", hh)
	}
	hh = s.HeavyHitters(0.10, nil)
	found = map[uint64]bool{}
	for _, item := range hh {
		found[item.Key] = true
		if q := s.Query(item.Key); item.Estimate != q {
			t.Fatalf("HeavyHitters estimates %d at %v, Query says %v", item.Key, item.Estimate, q)
		}
	}
	if !found[1] || !found[2] {
		t.Fatalf("θ=0.10 must report both heavy flows: %v", hh)
	}
}

func TestSampledEstimatesUnbiasedEnough(t *testing.T) {
	// τ = 1/16: per-key error should stay within the εa + εs envelope
	// of Theorem 5.2 at ~5σ, checked against an exact oracle.
	const window = 1 << 14
	const k = 64
	const tau = 1.0 / 16
	s := mustNew[uint64](Config{Window: window, Counters: k, Tau: tau, Seed: 77})
	oracle := exact.MustNewSlidingWindow[uint64](s.EffectiveWindow())
	r := rng.New(5)
	violations, checks := 0, 0
	for i := 0; i < 6*window; i++ {
		var key uint64
		u := r.Float64()
		switch {
		case u < 0.25:
			key = 1
		case u < 0.40:
			key = 2
		case u < 0.50:
			key = 3
		default:
			key = 10 + r.Uint64()%2000
		}
		s.Update(key)
		oracle.Add(key)
		if i > window && i%503 == 0 {
			for q := uint64(1); q <= 3; q++ {
				f := float64(oracle.Count(q))
				est := s.Query(q)
				// Sampling std dev of the estimate is ≈ sqrt(f/τ);
				// allow 5σ plus the algorithmic band.
				band := 4*float64(window)/k + 4*2*float64(s.blockCounts)*s.Scale() + 5*math.Sqrt(f/tau)
				if math.Abs(est-f) > band {
					violations++
				}
				checks++
			}
		}
	}
	if checks == 0 {
		t.Fatal("no checks performed")
	}
	if violations > checks/50 {
		t.Fatalf("%d/%d sampled estimates outside the 5σ envelope", violations, checks)
	}
}

func TestSpeedupMechanism(t *testing.T) {
	// The whole point of Memento: Full updates happen for ≈ τ of the
	// packets.
	s := mustNew[uint64](Config{Window: 4096, Counters: 64, Tau: 1.0 / 32, Seed: 11})
	const n = 200000
	r := rng.New(12)
	for i := 0; i < n; i++ {
		s.Update(r.Uint64() % 100)
	}
	got := float64(s.FullUpdates()) / float64(s.Updates())
	if math.Abs(got-1.0/32) > 0.005 {
		t.Fatalf("full update fraction %v, want ≈ 1/32", got)
	}
	if s.Updates() != n {
		t.Fatalf("Updates = %d, want %d", s.Updates(), n)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Sketch[uint64] {
		return mustNew[uint64](Config{Window: 1024, Counters: 32, Tau: 0.25, Seed: 1234})
	}
	a, b := mk(), mk()
	r := rng.New(6)
	keys := make([]uint64, 50000)
	for i := range keys {
		keys[i] = r.Uint64() % 500
	}
	for _, k := range keys {
		a.Update(k)
		b.Update(k)
	}
	for q := uint64(0); q < 500; q += 13 {
		if a.Query(q) != b.Query(q) {
			t.Fatalf("same seed, different estimates for key %d", q)
		}
	}
}

func TestReset(t *testing.T) {
	s := mustNew[uint64](Config{Window: 256, Counters: 8, Tau: 0.5, Seed: 2})
	for i := uint64(0); i < 10000; i++ {
		s.Update(i % 5)
	}
	s.Reset()
	if s.Updates() != 0 || s.FullUpdates() != 0 || s.OverflowEntries() != 0 {
		t.Fatal("Reset left residual state")
	}
	if s.ring.pending() != 0 {
		t.Fatal("Reset left queued overflow entries")
	}
	// Identical behaviour after reset.
	for i := uint64(0); i < 256; i++ {
		s.Update(1)
	}
	if est := s.Query(1); est < 200 {
		t.Fatalf("post-reset estimate %v too small", est)
	}
}

func TestQueryBoundsOrdering(t *testing.T) {
	s := mustNew[uint64](Config{Window: 512, Counters: 16})
	for i := uint64(0); i < 2000; i++ {
		s.Update(i % 20)
	}
	for q := uint64(0); q < 20; q++ {
		up, lo := s.QueryBounds(q)
		if lo < 0 || lo > up {
			t.Fatalf("bounds inverted for key %d: [%v, %v]", q, lo, up)
		}
	}
}

func TestBlockRing(t *testing.T) {
	var r blockRing[int]
	r.init(3)
	r.push(1)
	r.push(2)
	if _, ok := r.popOldest(); ok {
		t.Fatal("oldest queue should start empty")
	}
	r.rotate() // cur moves; old queue 0 holds {1,2}
	r.rotate() // queue 0 now one step from oldest
	if v, ok := r.popOldest(); !ok || v != 1 {
		t.Fatalf("pop = %v, %v; want 1", v, ok)
	}
	if v, ok := r.popOldest(); !ok || v != 2 {
		t.Fatalf("pop = %v, %v; want 2", v, ok)
	}
	if _, ok := r.popOldest(); ok {
		t.Fatal("queue should be drained")
	}
	if r.pending() != 0 {
		t.Fatalf("pending = %d", r.pending())
	}
}
