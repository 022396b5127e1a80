package baseline

import (
	"math"
	"testing"

	"memento/internal/exact"
	"memento/internal/hhhset"
	"memento/internal/hierarchy"
	"memento/internal/rng"
)

// mustNewMST, mustNewRHHH and mustNewWindow are the constructors for
// configurations the tests know are valid.
func mustNewMST(h hierarchy.Hierarchy, countersPerInstance int) *MST {
	m, err := NewMST(h, countersPerInstance)
	if err != nil {
		panic(err)
	}
	return m
}

func mustNewRHHH(cfg RHHHConfig) *RHHH {
	r, err := NewRHHH(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

func mustNewWindow(h hierarchy.Hierarchy, w, countersPerInstance int) *Window {
	b, err := NewWindow(h, w, countersPerInstance)
	if err != nil {
		panic(err)
	}
	return b
}

// mix generates the shared test traffic: 40% of packets from hosts
// inside 10.0.0.0/8, 20% from the single flow 99.1.2.3, the rest noise.
func mix(seed uint64, n int) []hierarchy.Packet {
	r := rng.New(seed)
	pkts := make([]hierarchy.Packet, n)
	for i := range pkts {
		u := r.Float64()
		switch {
		case u < 0.4:
			pkts[i] = hierarchy.Packet{Src: hierarchy.IPv4(10, byte(r.Uint32()), byte(r.Uint32()), byte(r.Uint32()))}
		case u < 0.6:
			pkts[i] = hierarchy.Packet{Src: hierarchy.IPv4(99, 1, 2, 3)}
		default:
			pkts[i] = hierarchy.Packet{Src: 0x80000000 | (uint32(r.Uint64()) >> 1)}
		}
	}
	return pkts
}

func findPrefix(entries []hhhset.Entry, p hierarchy.Prefix) bool {
	for _, e := range entries {
		if e.Prefix == p {
			return true
		}
	}
	return false
}

var (
	subnet10 = hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, 0), SrcLen: 1}
	flow99   = hierarchy.Prefix{Src: hierarchy.IPv4(99, 1, 2, 3), SrcLen: 4}
)

func TestMSTValidation(t *testing.T) {
	if _, err := NewMST(nil, 10); err == nil {
		t.Error("nil hierarchy should fail")
	}
	if _, err := NewMST(hierarchy.OneD{}, 0); err == nil {
		t.Error("zero counters should fail")
	}
}

func TestMSTFindsHHH(t *testing.T) {
	m := mustNewMST(hierarchy.OneD{}, 512)
	for _, p := range mix(1, 100000) {
		m.Update(p)
	}
	if m.Items() != 100000 {
		t.Fatalf("Items = %d", m.Items())
	}
	out := m.Output(0.15)
	if !findPrefix(out, subnet10) || !findPrefix(out, flow99) {
		t.Fatalf("MST missed a heavy prefix: %v", out)
	}
	// The flow's /24 parent must be conditioned away.
	parent := hierarchy.Prefix{Src: hierarchy.IPv4(99, 1, 2, 0), SrcLen: 3}
	if findPrefix(out, parent) {
		t.Fatalf("ancestor %v not conditioned away: %v", parent, out)
	}
}

func TestMSTEstimatesUpperBound(t *testing.T) {
	m := mustNewMST(hierarchy.OneD{}, 256)
	oracle := map[hierarchy.Prefix]int{}
	var hier hierarchy.OneD
	for _, p := range mix(2, 50000) {
		m.Update(p)
		for i := 0; i < hier.H(); i++ {
			oracle[hier.Prefix(p, i)]++
		}
	}
	for _, p := range []hierarchy.Prefix{subnet10, flow99, {}} {
		est := m.Query(p)
		truth := float64(oracle[p])
		if est < truth {
			t.Fatalf("MST underestimated %v: %v < %v", p, est, truth)
		}
		if est > truth+float64(m.Items())/256 {
			t.Fatalf("MST estimate for %v beyond error bound: %v vs %v", p, est, truth)
		}
	}
}

func TestMSTReset(t *testing.T) {
	m := mustNewMST(hierarchy.OneD{}, 64)
	for _, p := range mix(3, 1000) {
		m.Update(p)
	}
	m.Reset()
	if m.Items() != 0 {
		t.Fatal("Reset left items")
	}
	if out := m.Output(0.01); len(out) != 0 {
		t.Fatalf("post-reset output: %v", out)
	}
}

func TestRHHHValidation(t *testing.T) {
	if _, err := NewRHHH(RHHHConfig{CountersPerInstance: 10}); err == nil {
		t.Error("missing hierarchy should fail")
	}
	if _, err := NewRHHH(RHHHConfig{Hierarchy: hierarchy.OneD{}, CountersPerInstance: 10, V: 2}); err == nil {
		t.Error("V < H should fail")
	}
	r := mustNewRHHH(RHHHConfig{Hierarchy: hierarchy.OneD{}, CountersPerInstance: 10})
	if r.v != 5 {
		t.Fatalf("default V = %d, want H", r.v)
	}
}

func TestRHHHSamplingRate(t *testing.T) {
	r := mustNewRHHH(RHHHConfig{
		Hierarchy: hierarchy.OneD{}, CountersPerInstance: 64, V: 50, Seed: 4,
	})
	const n = 300000
	for _, p := range mix(5, n) {
		r.Update(p)
	}
	var updates uint64 // Space Saving updates performed
	for _, s := range r.sketches {
		updates += s.Items()
	}
	got := float64(updates) / float64(n)
	want := 5.0 / 50
	if math.Abs(got-want) > 0.005 {
		t.Fatalf("update rate %v, want ≈ %v", got, want)
	}
}

func TestRHHHFindsHHH(t *testing.T) {
	r := mustNewRHHH(RHHHConfig{
		Hierarchy: hierarchy.OneD{}, CountersPerInstance: 512, V: 10, Seed: 6,
	})
	for _, p := range mix(7, 200000) {
		r.Update(p)
	}
	out := r.Output(0.15)
	if !findPrefix(out, subnet10) || !findPrefix(out, flow99) {
		t.Fatalf("RHHH missed a heavy prefix: %v", out)
	}
}

func TestRHHHBoundsBracketTruth(t *testing.T) {
	r := mustNewRHHH(RHHHConfig{
		Hierarchy: hierarchy.OneD{}, CountersPerInstance: 256, V: 20, Seed: 8,
	})
	truth := map[hierarchy.Prefix]int{}
	var hier hierarchy.OneD
	for _, p := range mix(9, 150000) {
		r.Update(p)
		for i := 0; i < hier.H(); i++ {
			truth[hier.Prefix(p, i)]++
		}
	}
	for _, p := range []hierarchy.Prefix{subnet10, flow99} {
		up, lo := r.Bounds(p)
		f := float64(truth[p])
		if lo > f {
			t.Fatalf("RHHH lower bound above truth for %v: %v > %v", p, lo, f)
		}
		if up < f {
			t.Fatalf("RHHH upper bound below truth for %v: %v < %v", p, up, f)
		}
	}
}

func TestRHHH2D(t *testing.T) {
	r := mustNewRHHH(RHHHConfig{
		Hierarchy: hierarchy.TwoD{}, CountersPerInstance: 256, V: 25, Seed: 10,
	})
	src := rng.New(11)
	for i := 0; i < 200000; i++ {
		var p hierarchy.Packet
		if src.Float64() < 0.35 {
			p = hierarchy.Packet{
				Src: hierarchy.IPv4(10, byte(src.Uint32()), 0, 0),
				Dst: hierarchy.IPv4(20, 30, byte(src.Uint32()), 0),
			}
		} else {
			p = hierarchy.Packet{Src: 0x80000000 | (uint32(src.Uint64()) >> 1), Dst: uint32(src.Uint64())}
		}
		r.Update(p)
	}
	want := hierarchy.Prefix{
		Src: hierarchy.IPv4(10, 0, 0, 0), SrcLen: 1,
		Dst: hierarchy.IPv4(20, 30, 0, 0), DstLen: 2,
	}
	out := r.Output(0.25)
	if !findPrefix(out, want) {
		t.Fatalf("RHHH 2D missed %v: %v", want, out)
	}
}

func TestWindowBaselineSlides(t *testing.T) {
	// The defining property versus MST: a flow that stops sending
	// disappears from the window baseline but persists in MST.
	const w = 20000
	b := mustNewWindow(hierarchy.OneD{}, w, 128)
	m := mustNewMST(hierarchy.OneD{}, 128)
	heavy := hierarchy.Packet{Src: hierarchy.IPv4(99, 1, 2, 3)}
	r := rng.New(12)
	for i := 0; i < w; i++ {
		b.Update(heavy)
		m.Update(heavy)
	}
	for i := 0; i < 2*w; i++ {
		p := hierarchy.Packet{Src: 0x80000000 | (uint32(r.Uint64()) >> 1)}
		b.Update(p)
		m.Update(p)
	}
	bEst := b.Query(flow99)
	mEst := m.Query(flow99)
	if bEst > 0.1*float64(w) {
		t.Fatalf("window baseline still sees expired flow: %v", bEst)
	}
	if mEst < float64(w) {
		t.Fatalf("MST (interval) should still count the flow: %v", mEst)
	}
}

func TestWindowBaselineFindsHHH(t *testing.T) {
	const w = 50000
	b := mustNewWindow(hierarchy.OneD{}, w, 512)
	for _, p := range mix(13, 2*w) {
		b.Update(p)
	}
	out := b.Output(0.15)
	if !findPrefix(out, subnet10) || !findPrefix(out, flow99) {
		t.Fatalf("window baseline missed a heavy prefix: %v", out)
	}
}

func TestWindowBaselineBounds(t *testing.T) {
	const w = 10000
	b := mustNewWindow(hierarchy.OneD{}, w, 64)
	oracle := exact.MustNewSlidingWindow[hierarchy.Prefix](b.window)
	var hier hierarchy.OneD
	for _, p := range mix(14, 3*w) {
		b.Update(p)
		oracle.Add(hier.Prefix(p, 1)) // track the /24 pattern exactly
	}
	// Spot-check the /24 containing the heavy flow.
	p24 := hierarchy.Prefix{Src: hierarchy.IPv4(99, 1, 2, 0), SrcLen: 3}
	truth := float64(oracle.Count(p24))
	est := b.Query(p24)
	if est < truth {
		t.Fatalf("window baseline underestimated %v: %v < %v", p24, est, truth)
	}
	slack := 4 * float64(b.window) / 64
	if est > truth+slack {
		t.Fatalf("window baseline estimate beyond bound: %v vs %v (+%v)", est, truth, slack)
	}
}
