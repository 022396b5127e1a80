package core

import (
	"math"
	"testing"

	"memento/internal/exact"
	"memento/internal/hierarchy"
	"memento/internal/rng"
	"memento/internal/spacesaving"
)

func TestHHHConfigValidation(t *testing.T) {
	if _, err := NewHHH(HHHConfig{Window: 100, Counters: 10}); err == nil {
		t.Error("missing hierarchy should fail")
	}
	if _, err := NewHHH(HHHConfig{Hierarchy: hierarchy.OneD{}, Window: 100, Counters: 10, V: 3}); err == nil {
		t.Error("V < H should fail")
	}
	if _, err := NewHHH(HHHConfig{Hierarchy: hierarchy.OneD{}, Window: 100}); err == nil {
		t.Error("missing counters should fail")
	}
	if _, err := NewHHH(HHHConfig{Hierarchy: hierarchy.OneD{}, Window: 100, Counters: 10, Delta: 2}); err == nil {
		t.Error("bad delta should fail")
	}
	h, err := NewHHH(HHHConfig{Hierarchy: hierarchy.OneD{}, Window: 100, Counters: 200})
	if err != nil {
		t.Fatalf("valid config failed: %v", err)
	}
	if h.v != 5 {
		t.Fatalf("default V = %d, want H = 5", h.v)
	}
	if h.Sketch().Counters() != 200 {
		t.Fatalf("k = %d, want Counters = 200", h.Sketch().Counters())
	}
}

func TestHHHUpdateSamplingRate(t *testing.T) {
	// A packet triggers a Full update with probability H/V.
	h := MustNewHHH(HHHConfig{
		Hierarchy: hierarchy.OneD{}, Window: 4096, Counters: 160, V: 40, Seed: 5,
	})
	const n = 200000
	r := rng.New(2)
	for i := 0; i < n; i++ {
		h.Update(hierarchy.Packet{Src: uint32(r.Uint64())})
	}
	got := float64(h.Sketch().FullUpdates()) / float64(n)
	want := 5.0 / 40
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("full update rate %v, want ≈ %v", got, want)
	}
	if h.Sketch().Updates() != n {
		t.Fatalf("window advanced %d times, want one per packet", h.Sketch().Updates())
	}
}

// TestSamplePrefixDistribution: Update samples each of a packet's H
// prefix patterns with probability 1/V. One packet repeated n times
// inside one frame of a large sketch leaves each pattern's monitored
// count equal to the times Update sampled it, binomial(n, 1/V).
func TestSamplePrefixDistribution(t *testing.T) {
	const n = 100000
	h := MustNewHHH(HHHConfig{
		Hierarchy: hierarchy.OneD{}, Window: 1 << 20, Counters: 1 << 10, V: 10, Seed: 6,
	})
	pkt := hierarchy.Packet{Src: hierarchy.IPv4(10, 20, 30, 40)}
	for i := 0; i < n; i++ {
		h.Update(pkt)
	}
	counts := map[hierarchy.Prefix]uint64{}
	h.mem.Monitored(func(c spacesaving.Counter[hierarchy.Prefix]) bool {
		counts[c.Key] = c.Count
		return true
	})
	if len(counts) != 5 {
		t.Fatalf("sampled %d distinct patterns, want 5", len(counts))
	}
	for i := 0; i < h.hier.H(); i++ {
		p := h.hier.Prefix(pkt, i)
		if c := float64(counts[p]); math.Abs(c-n/10) > 6*math.Sqrt(n/10.0) {
			t.Fatalf("pattern %v sampled %v times, want ≈ %d", p, c, n/10)
		}
	}
}

// hhhWorkload1D generates the test traffic mix: a heavy subnet
// (distinct sources within 10.0.0.0/8), one heavy single flow, and
// uniform noise, returning the packets.
func hhhWorkload1D(seed uint64, n int, subnetFrac, flowFrac float64) []hierarchy.Packet {
	r := rng.New(seed)
	pkts := make([]hierarchy.Packet, n)
	for i := range pkts {
		u := r.Float64()
		switch {
		case u < subnetFrac:
			// Random host within 10.0.0.0/8.
			pkts[i] = hierarchy.Packet{Src: hierarchy.IPv4(10, byte(r.Uint32()), byte(r.Uint32()), byte(r.Uint32()))}
		case u < subnetFrac+flowFrac:
			pkts[i] = hierarchy.Packet{Src: hierarchy.IPv4(99, 1, 2, 3)}
		default:
			// Noise outside both: first octet ≥ 128.
			pkts[i] = hierarchy.Packet{Src: 0x80000000 | (uint32(r.Uint64()) >> 1)}
		}
	}
	return pkts
}

func TestHHH1DFindsSubnetAndFlow(t *testing.T) {
	const window = 100000
	h := MustNewHHH(HHHConfig{
		Hierarchy: hierarchy.OneD{}, Window: window, Counters: 512 * 5, V: 5, Seed: 31,
	})
	for _, p := range hhhWorkload1D(1, 2*window, 0.40, 0.20) {
		h.Update(p)
	}
	out := h.Output(0.15)
	got := map[hierarchy.Prefix]bool{}
	for _, hp := range out {
		got[hp.Prefix] = true
	}
	subnet := hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, 0), SrcLen: 1}
	flow := hierarchy.Prefix{Src: hierarchy.IPv4(99, 1, 2, 3), SrcLen: 4}
	if !got[subnet] {
		t.Fatalf("40%% subnet missing from HHH set: %v", out)
	}
	if !got[flow] {
		t.Fatalf("20%% flow missing from HHH set: %v", out)
	}
	// The flow's ancestors carry (almost) nothing beyond the flow
	// itself and must be excluded by the conditioned frequency.
	for _, keep := range []uint8{1, 2, 3} {
		anc := hierarchy.Prefix{Src: hierarchy.MaskBytes(flow.Src, keep), SrcLen: keep}
		if got[anc] {
			t.Fatalf("ancestor %v selected despite conditioning on %v", anc, flow)
		}
	}
	// Coverage semantics allow a few false positives but the set must
	// stay small.
	if len(out) > 8 {
		t.Fatalf("HHH set suspiciously large (%d): %v", len(out), out)
	}
}

func TestHHH1DRootConditioning(t *testing.T) {
	// With 40% in one subnet and 60% diffuse noise, the root's
	// conditioned frequency (total − subnet) stays above a 30%
	// threshold, so the root itself is a legitimate HHH.
	const window = 100000
	h := MustNewHHH(HHHConfig{
		Hierarchy: hierarchy.OneD{}, Window: window, Counters: 512 * 5, V: 5, Seed: 32,
	})
	for _, p := range hhhWorkload1D(2, 2*window, 0.40, 0) {
		h.Update(p)
	}
	out := h.Output(0.30)
	var hasRoot, hasSubnet bool
	for _, hp := range out {
		if hp.Prefix == (hierarchy.Prefix{}) {
			hasRoot = true
		}
		if hp.Prefix == (hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, 0), SrcLen: 1}) {
			hasSubnet = true
		}
	}
	if !hasSubnet {
		t.Fatalf("subnet missing: %v", out)
	}
	if !hasRoot {
		t.Fatalf("root (60%% residual) missing: %v", out)
	}
}

func TestHHHCoverageAgainstExactReference(t *testing.T) {
	// Coverage (Definition 4.2): every prefix whose exact conditioned
	// frequency meets θW must be in the returned set. Verified against
	// a brute-force exact HHH computation in one dimension.
	const window = 50000
	const theta = 0.25
	h := MustNewHHH(HHHConfig{
		Hierarchy: hierarchy.OneD{}, Window: window, Counters: 1000, V: 5, Seed: 33,
	})
	oracle := exact.MustNewSlidingWindow[hierarchy.Prefix](h.EffectiveWindow())
	var hier hierarchy.OneD
	pkts := hhhWorkload1D(3, 2*window, 0.45, 0.30)
	for _, p := range pkts {
		h.Update(p)
		oracle.Add(hier.Fully(p))
	}
	// Brute-force exact HHH set over the final window.
	counts := map[hierarchy.Prefix]int{}
	oracle.Each(func(full hierarchy.Prefix, c int) bool {
		pkt := hierarchy.Packet{Src: full.Src}
		for i := 0; i < hier.H(); i++ {
			counts[hier.Prefix(pkt, i)] += c
		}
		return true
	})
	var exactSet []hierarchy.Prefix
	threshold := theta * float64(oracle.Len())
	for level := 0; level < hier.Levels(); level++ {
		for p, c := range counts {
			if hier.Depth(p) != level {
				continue
			}
			cond := float64(c)
			for _, g := range hierarchy.Closest(p, exactSet, nil) {
				cond -= float64(counts[g])
			}
			if cond >= threshold {
				exactSet = append(exactSet, p)
			}
		}
	}
	out := h.Output(theta)
	got := map[hierarchy.Prefix]bool{}
	for _, hp := range out {
		got[hp.Prefix] = true
	}
	for _, p := range exactSet {
		if !got[p] {
			t.Fatalf("coverage violated: exact HHH %v (count %d) missing from %v",
				p, counts[p], out)
		}
	}
}

func TestHHHEstimatesUpperBoundTruth(t *testing.T) {
	// Accuracy: reported estimates must upper-bound the exact prefix
	// frequencies (one-sided error) within the sampling envelope.
	const window = 50000
	h := MustNewHHH(HHHConfig{
		Hierarchy: hierarchy.OneD{}, Window: window, Counters: 1000, V: 10, Seed: 34,
	})
	oracle := exact.MustNewSlidingWindow[uint32](h.EffectiveWindow())
	for _, p := range hhhWorkload1D(4, 2*window, 0.5, 0.2) {
		h.Update(p)
		oracle.Add(p.Src)
	}
	subnet := hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, 0), SrcLen: 1}
	trueSubnet := 0
	oracle.Each(func(src uint32, c int) bool {
		if hierarchy.MaskBytes(src, 1) == subnet.Src {
			trueSubnet += c
		}
		return true
	})
	est := h.Query(subnet)
	// 5σ sampling envelope below truth is a bug (one-sided estimates).
	sigma := math.Sqrt(float64(trueSubnet) * float64(int(h.v)))
	if est < float64(trueSubnet)-5*sigma {
		t.Fatalf("estimate %v more than 5σ below truth %d", est, trueSubnet)
	}
	slack := 4.0*float64(h.EffectiveWindow())/float64(h.Sketch().Counters()) + 5*sigma + 4*2*float64(h.Sketch().blockCounts)*float64(int(h.v))
	if est > float64(trueSubnet)+slack {
		t.Fatalf("estimate %v exceeds truth %d + slack %v", est, trueSubnet, slack)
	}
}

func TestHHH2DFindsHeavyPair(t *testing.T) {
	const window = 80000
	h := MustNewHHH(HHHConfig{
		Hierarchy: hierarchy.TwoD{}, Window: window, Counters: 512 * 25, V: 25, Seed: 35,
	})
	r := rng.New(9)
	for i := 0; i < 2*window; i++ {
		u := r.Float64()
		var p hierarchy.Packet
		switch {
		case u < 0.35:
			// Heavy (src/8, dst/16) aggregate with churn inside.
			p = hierarchy.Packet{
				Src: hierarchy.IPv4(10, byte(r.Uint32()), byte(r.Uint32()), byte(r.Uint32())),
				Dst: hierarchy.IPv4(20, 30, byte(r.Uint32()), byte(r.Uint32())),
			}
		default:
			p = hierarchy.Packet{Src: 0x80000000 | (uint32(r.Uint64()) >> 1), Dst: uint32(r.Uint64())}
		}
		h.Update(p)
	}
	out := h.Output(0.25)
	want := hierarchy.Prefix{
		Src: hierarchy.IPv4(10, 0, 0, 0), SrcLen: 1,
		Dst: hierarchy.IPv4(20, 30, 0, 0), DstLen: 2,
	}
	found := false
	for _, hp := range out {
		if hp.Prefix == want {
			found = true
		}
		// Any reported prefix must carry a plausible estimate.
		if hp.Estimate < 0 || hp.Estimate > 3*float64(h.EffectiveWindow()) {
			t.Fatalf("implausible estimate %v for %v", hp.Estimate, hp.Prefix)
		}
	}
	if !found {
		t.Fatalf("heavy (10/8, 20.30/16) pair missing: %v", out)
	}
}

func TestHHH2DGLBCorrection(t *testing.T) {
	// Craft two incomparable heavy descendants whose glb carries most
	// of the traffic: src-anchored and dst-anchored patterns overlap on
	// packets that have both. Without the inclusion-exclusion add-back
	// (Algorithm 4) the root's conditioned frequency would go negative
	// and the residual noise (45%) would be lost.
	const window = 60000
	h := MustNewHHH(HHHConfig{
		Hierarchy: hierarchy.TwoD{}, Window: window, Counters: 512 * 25, V: 25, Seed: 36,
	})
	r := rng.New(10)
	srcA := hierarchy.IPv4(10, 1, 2, 3)
	dstB := hierarchy.IPv4(20, 1, 2, 3)
	for i := 0; i < 2*window; i++ {
		u := r.Float64()
		var p hierarchy.Packet
		switch {
		case u < 0.30:
			// Both heavy endpoints at once: contributes to both
			// patterns and to their glb.
			p = hierarchy.Packet{Src: srcA, Dst: dstB}
		case u < 0.40:
			p = hierarchy.Packet{Src: srcA, Dst: uint32(r.Uint64())}
		case u < 0.50:
			p = hierarchy.Packet{Src: 0x80000000 | (uint32(r.Uint64()) >> 1), Dst: dstB}
		default:
			p = hierarchy.Packet{Src: 0x80000000 | (uint32(r.Uint64()) >> 1), Dst: uint32(r.Uint64())}
		}
		h.Update(p)
	}
	out := h.Output(0.3)
	got := map[hierarchy.Prefix]bool{}
	for _, hp := range out {
		got[hp.Prefix] = true
	}
	glb := hierarchy.Prefix{Src: srcA, SrcLen: 4, Dst: dstB, DstLen: 4}
	if !got[glb] {
		t.Fatalf("30%% exact pair missing: %v", out)
	}
	// Root residual: 100 − 40(srcA row) − 40(dstB column) + 30(glb,
	// double-subtracted) = 50% ≥ 30%: must be present, and would be
	// absent if the glb add-back were missing.
	if !got[(hierarchy.Prefix{})] {
		t.Fatalf("root missing — glb inclusion-exclusion broken: %v", out)
	}
}

func TestHHHOutputDeterministic(t *testing.T) {
	mk := func() []HeavyPrefix {
		h := MustNewHHH(HHHConfig{
			Hierarchy: hierarchy.OneD{}, Window: 20000, Counters: 500, V: 10, Seed: 37,
		})
		for _, p := range hhhWorkload1D(11, 40000, 0.4, 0.2) {
			h.Update(p)
		}
		return h.Output(0.2)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic output size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Prefix != b[i].Prefix || a[i].Estimate != b[i].Estimate {
			t.Fatalf("output diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestHHHReset(t *testing.T) {
	h := MustNewHHH(HHHConfig{
		Hierarchy: hierarchy.OneD{}, Window: 10000, Counters: 200, V: 5, Seed: 38,
	})
	for _, p := range hhhWorkload1D(12, 20000, 0.5, 0.2) {
		h.Update(p)
	}
	h.Reset()
	if h.Sketch().Updates() != 0 || h.Sketch().OverflowEntries() != 0 {
		t.Fatal("Reset left state")
	}
	if out := h.Output(0.01); len(out) != 0 {
		t.Fatalf("post-reset output non-empty: %v", out)
	}
}
