package hierarchy

import "testing"

func TestFlowsDegenerateHierarchy(t *testing.T) {
	var h Flows
	if h.Dims() != 1 || h.H() != 1 || h.Levels() != 1 {
		t.Fatalf("Flows dims/H/levels = %d/%d/%d", h.Dims(), h.H(), h.Levels())
	}
	pkt := Packet{Src: IPv4(1, 2, 3, 4), Dst: IPv4(5, 6, 7, 8)}
	p := h.Prefix(pkt, 0)
	if p != h.Fully(pkt) {
		t.Fatal("the single pattern must be the fully specified source")
	}
	if p.SrcLen != AddrBytes || p.Src != pkt.Src || p.Dst != 0 {
		t.Fatalf("Flows prefix = %+v", p)
	}
	if h.Depth(p) != 0 || h.PatternIndex(p) != 0 {
		t.Fatalf("depth/index = %d/%d", h.Depth(p), h.PatternIndex(p))
	}
	// Prefixes from other hierarchies are rejected.
	foreign := Prefix{Src: IPv4(1, 0, 0, 0), SrcLen: 1}
	if h.PatternIndex(foreign) != -1 || h.Depth(foreign) != -1 {
		t.Fatal("aggregated prefixes must not belong to Flows")
	}
	twoD := Prefix{Src: pkt.Src, SrcLen: 4, Dst: pkt.Dst, DstLen: 4}
	if h.PatternIndex(twoD) != -1 {
		t.Fatal("2D prefixes must not belong to Flows")
	}
	if h.Prefix(pkt, h.H()-1).SrcLen != AddrBytes {
		t.Fatal("Flows' most general pattern must be at full specification")
	}
	if h.String() == "" {
		t.Fatal("empty name")
	}
}

func TestPatternIndexRoundTrip(t *testing.T) {
	pkt := Packet{Src: IPv4(9, 9, 9, 9), Dst: IPv4(8, 8, 8, 8)}
	for _, h := range []Hierarchy{OneD{}, TwoD{}, Flows{}} {
		for i := 0; i < h.H(); i++ {
			p := h.Prefix(pkt, i)
			if got := h.PatternIndex(p); got != i {
				t.Fatalf("%s: PatternIndex(Prefix(pkt, %d)) = %d", h, i, got)
			}
		}
	}
	// Out-of-domain prefixes.
	if (OneD{}).PatternIndex(Prefix{Dst: 1, DstLen: 1}) != -1 {
		t.Fatal("1D must reject dst-bearing prefixes")
	}
	if (OneD{}).PatternIndex(Prefix{SrcLen: 9}) != -1 {
		t.Fatal("over-long prefix must be rejected")
	}
	if (TwoD{}).PatternIndex(Prefix{SrcLen: 9}) != -1 {
		t.Fatal("2D over-long prefix must be rejected")
	}
}
