package hierarchy

import (
	"testing"
	"testing/quick"
)

func TestMaskBytes(t *testing.T) {
	addr := IPv4(181, 7, 20, 6)
	cases := []struct {
		keep uint8
		want uint32
	}{
		{0, 0},
		{1, IPv4(181, 0, 0, 0)},
		{2, IPv4(181, 7, 0, 0)},
		{3, IPv4(181, 7, 20, 0)},
		{4, addr},
		{9, addr}, // over-long keeps everything
	}
	for _, c := range cases {
		if got := MaskBytes(addr, c.keep); got != c.want {
			t.Errorf("MaskBytes(addr, %d) = %08x, want %08x", c.keep, got, c.want)
		}
	}
}

func TestGeneralizesPaperExamples(t *testing.T) {
	// "181.7.20.∗ and 181.7.∗ generalize the (fully specified)
	// 181.7.20.6" (Section 4.2).
	full := Prefix{Src: IPv4(181, 7, 20, 6), SrcLen: 4}
	p24 := Prefix{Src: IPv4(181, 7, 20, 0), SrcLen: 3}
	p16 := Prefix{Src: IPv4(181, 7, 0, 0), SrcLen: 2}
	other := Prefix{Src: IPv4(182, 0, 0, 0), SrcLen: 1}

	if !p24.Generalizes(full) || !p16.Generalizes(full) {
		t.Fatal("ancestors must generalize the full prefix")
	}
	if !p16.Generalizes(p24) {
		t.Fatal("181.7.* must generalize 181.7.20.*")
	}
	if p24.Generalizes(p16) {
		t.Fatal("more specific prefix cannot generalize its parent")
	}
	if other.Generalizes(full) {
		t.Fatal("disjoint prefix cannot generalize")
	}
	if !full.Generalizes(full) {
		t.Fatal("generalization must be reflexive")
	}
	if full.StrictlyGeneralizes(full) {
		t.Fatal("strict generalization must be irreflexive")
	}
}

func TestGeneralizesPartialOrder(t *testing.T) {
	// Antisymmetry and transitivity over random canonical prefixes.
	gen := func(seed uint32, slen, dlen uint8) Prefix {
		sl, dl := slen%5, dlen%5
		return Prefix{
			Src:    MaskBytes(seed*2654435761, sl),
			Dst:    MaskBytes(seed*40503+12345, dl),
			SrcLen: sl,
			DstLen: dl,
		}
	}
	f := func(s1, s2, s3 uint32, l1, l2, l3 uint8) bool {
		a, b, c := gen(s1, l1, l1>>4), gen(s2, l2, l2>>4), gen(s3, l3, l3>>4)
		// Antisymmetry.
		if a.Generalizes(b) && b.Generalizes(a) && a != b {
			return false
		}
		// Transitivity.
		if a.Generalizes(b) && b.Generalizes(c) && !a.Generalizes(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestGLB(t *testing.T) {
	// From Definition 4.3: glb is the unique most-general common
	// descendant.
	a := Prefix{Src: IPv4(142, 14, 0, 0), SrcLen: 2, Dst: IPv4(10, 0, 0, 0), DstLen: 1}
	b := Prefix{Src: IPv4(142, 0, 0, 0), SrcLen: 1, Dst: IPv4(10, 20, 0, 0), DstLen: 2}
	g, ok := GLB(a, b)
	if !ok {
		t.Fatal("compatible prefixes must have a glb")
	}
	want := Prefix{Src: IPv4(142, 14, 0, 0), SrcLen: 2, Dst: IPv4(10, 20, 0, 0), DstLen: 2}
	if g != want {
		t.Fatalf("glb = %v, want %v", g, want)
	}
	// Incompatible on src: no common descendant.
	c := Prefix{Src: IPv4(143, 99, 0, 0), SrcLen: 2, Dst: IPv4(10, 20, 0, 0), DstLen: 2}
	if _, ok := GLB(a, c); ok {
		t.Fatal("disjoint prefixes must have no glb")
	}
}

func TestGLBProperties(t *testing.T) {
	mk := func(s uint32, sl uint8, d uint32, dl uint8) Prefix {
		sl, dl = sl%5, dl%5
		return Prefix{Src: MaskBytes(s, sl), Dst: MaskBytes(d, dl), SrcLen: sl, DstLen: dl}
	}
	f := func(s1, d1, s2, d2 uint32, sl1, dl1, sl2, dl2 uint8) bool {
		a, b := mk(s1, sl1, d1, dl1), mk(s2, sl2, d2, dl2)
		g, ok := GLB(a, b)
		ga, gb := GLB(b, a)
		if ok != gb || (ok && g != ga) {
			return false // must be commutative
		}
		if !ok {
			return true
		}
		// Both inputs generalize the glb, and the glb is canonical.
		return a.Generalizes(g) && b.Generalizes(g) && g.Canonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestGLBIsGreatest(t *testing.T) {
	// Any common descendant must be generalized by the glb.
	a := Prefix{Src: IPv4(142, 14, 0, 0), SrcLen: 2}
	b := Prefix{Src: IPv4(142, 0, 0, 0), SrcLen: 1, Dst: IPv4(9, 0, 0, 0), DstLen: 1}
	g, ok := GLB(a, b)
	if !ok {
		t.Fatal("expected glb")
	}
	common := Prefix{Src: IPv4(142, 14, 3, 0), SrcLen: 3, Dst: IPv4(9, 1, 0, 0), DstLen: 2}
	if !a.Generalizes(common) || !b.Generalizes(common) {
		t.Fatal("test fixture: common must descend from both")
	}
	if !g.Generalizes(common) {
		t.Fatal("glb must generalize every common descendant")
	}
}

func TestClosestPaperExample(t *testing.T) {
	// Section 4.2: p = <142.14.*>, P = {<142.14.13.*>, <142.14.13.14>}
	// → G(p|P) = {<142.14.13.*>}.
	p := Prefix{Src: IPv4(142, 14, 0, 0), SrcLen: 2}
	p3 := Prefix{Src: IPv4(142, 14, 13, 0), SrcLen: 3}
	p4 := Prefix{Src: IPv4(142, 14, 13, 14), SrcLen: 4}
	got := Closest(p, []Prefix{p3, p4}, nil)
	if len(got) != 1 || got[0] != p3 {
		t.Fatalf("G(p|P) = %v, want [%v]", got, p3)
	}
}

func TestClosestFiltersAndExcludesSelf(t *testing.T) {
	p := Prefix{Src: IPv4(10, 0, 0, 0), SrcLen: 1}
	in := []Prefix{
		p, // equal: excluded (strict generalization only)
		{Src: IPv4(10, 1, 0, 0), SrcLen: 2},
		{Src: IPv4(10, 2, 0, 0), SrcLen: 2},
		{Src: IPv4(10, 1, 5, 0), SrcLen: 3}, // shadowed by 10.1.*
		{Src: IPv4(11, 0, 0, 0), SrcLen: 1}, // unrelated
		{Src: IPv4(0, 0, 0, 0), SrcLen: 0},  // ancestor, not descendant
		{Src: IPv4(10, 3, 7, 9), SrcLen: 4}, // maximal descendant
	}
	got := Closest(p, in, nil)
	want := map[Prefix]bool{
		{Src: IPv4(10, 1, 0, 0), SrcLen: 2}: true,
		{Src: IPv4(10, 2, 0, 0), SrcLen: 2}: true,
		{Src: IPv4(10, 3, 7, 9), SrcLen: 4}: true,
	}
	if len(got) != len(want) {
		t.Fatalf("G = %v, want keys %v", got, want)
	}
	for _, g := range got {
		if !want[g] {
			t.Fatalf("unexpected member %v", g)
		}
	}
}

func TestClosestReusesBuffer(t *testing.T) {
	p := Prefix{Src: IPv4(10, 0, 0, 0), SrcLen: 1}
	in := []Prefix{{Src: IPv4(10, 1, 0, 0), SrcLen: 2}}
	buf := make([]Prefix, 0, 8)
	got := Closest(p, in, buf)
	if cap(got) != cap(buf) {
		t.Fatal("Closest should reuse the provided buffer")
	}
}

func TestOneDPatterns(t *testing.T) {
	var h OneD
	if h.H() != 5 || h.Levels() != 5 || h.Dims() != 1 {
		t.Fatalf("OneD dimensions wrong: H=%d levels=%d", h.H(), h.Levels())
	}
	pkt := Packet{Src: IPv4(181, 7, 20, 6)}
	if h.Prefix(pkt, 0) != h.Fully(pkt) {
		t.Fatal("pattern 0 must be the fully specified item")
	}
	prevDepth := -1
	for i := 0; i < h.H(); i++ {
		p := h.Prefix(pkt, i)
		if !p.Canonical() {
			t.Fatalf("pattern %d not canonical: %v", i, p)
		}
		d := h.Depth(p)
		if d != i {
			t.Fatalf("1D pattern %d depth %d", i, d)
		}
		if d < prevDepth {
			t.Fatal("patterns must be ordered by non-decreasing depth")
		}
		prevDepth = d
		if !p.Generalizes(h.Fully(pkt)) {
			t.Fatalf("pattern %d must generalize the full item", i)
		}
	}
	if h.Depth(h.Prefix(pkt, h.H()-1)) != h.Levels()-1 {
		t.Fatal("root depth mismatch")
	}
}

func TestTwoDPatterns(t *testing.T) {
	var h TwoD
	if h.H() != 25 || h.Levels() != 9 || h.Dims() != 2 {
		t.Fatalf("TwoD dimensions wrong: H=%d levels=%d", h.H(), h.Levels())
	}
	pkt := Packet{Src: IPv4(181, 7, 20, 6), Dst: IPv4(208, 67, 222, 222)}
	seen := make(map[Prefix]bool)
	prevDepth := -1
	for i := 0; i < h.H(); i++ {
		p := h.Prefix(pkt, i)
		if seen[p] {
			t.Fatalf("duplicate pattern %v", p)
		}
		seen[p] = true
		if !p.Canonical() {
			t.Fatalf("pattern %d not canonical", i)
		}
		d := h.Depth(p)
		if d < prevDepth {
			t.Fatalf("pattern %d depth %d < previous %d", i, d, prevDepth)
		}
		prevDepth = d
		if !p.Generalizes(h.Fully(pkt)) {
			t.Fatalf("pattern %d must generalize the full item", i)
		}
	}
	if h.Prefix(pkt, 0) != h.Fully(pkt) {
		t.Fatal("pattern 0 must be fully specified")
	}
	if h.Depth(Prefix{}) != 8 {
		t.Fatal("2D root depth must be 8")
	}
	// Every (srcLen, dstLen) combination appears exactly once.
	var lens [5][5]bool
	for p := range seen {
		lens[p.SrcLen][p.DstLen] = true
	}
	for s := 0; s <= 4; s++ {
		for d := 0; d <= 4; d++ {
			if !lens[s][d] {
				t.Fatalf("missing pattern (%d, %d)", s, d)
			}
		}
	}
}

func TestTwoDParentsExample(t *testing.T) {
	// Section 4.2: a fully specified 2D item has two parents.
	var h TwoD
	pkt := Packet{Src: IPv4(181, 7, 20, 6), Dst: IPv4(208, 67, 222, 222)}
	full := h.Fully(pkt)
	parentA := Prefix{Src: MaskBytes(pkt.Src, 3), SrcLen: 3, Dst: pkt.Dst, DstLen: 4}
	parentB := Prefix{Src: pkt.Src, SrcLen: 4, Dst: MaskBytes(pkt.Dst, 3), DstLen: 3}
	for _, p := range []Prefix{parentA, parentB} {
		if !p.StrictlyGeneralizes(full) || h.Depth(p) != 1 {
			t.Fatalf("%v should be a depth-1 parent of %v", p, full)
		}
	}
}

func TestFormat(t *testing.T) {
	p := Prefix{Src: IPv4(181, 7, 0, 0), SrcLen: 2}
	if got := p.String(); got != "181.7.*.*" {
		t.Fatalf("String() = %q", got)
	}
	p2 := Prefix{Src: IPv4(181, 7, 20, 6), SrcLen: 4, Dst: IPv4(208, 0, 0, 0), DstLen: 1}
	if got := p2.String(); got != "(181.7.20.6, 208.*.*.*)" {
		t.Fatalf("String() = %q", got)
	}
	root := Prefix{}
	if got := root.String(); got != "*.*.*.*" {
		t.Fatalf("root String() = %q", got)
	}
}

func TestIPv4(t *testing.T) {
	if IPv4(1, 2, 3, 4) != 0x01020304 {
		t.Fatal("IPv4 packing wrong")
	}
}

// TestAncestors checks the enumeration against the definition: exactly
// the canonical prefixes that strictly generalize p, each once.
func TestAncestors(t *testing.T) {
	for _, p := range []Prefix{
		TwoD{}.Fully(Packet{Src: IPv4(181, 7, 20, 6), Dst: IPv4(208, 67, 222, 222)}),
		{Src: IPv4(181, 7, 0, 0), SrcLen: 2, Dst: IPv4(208, 0, 0, 0), DstLen: 1},
		OneD{}.Fully(Packet{Src: IPv4(181, 7, 20, 6)}),
		{},
	} {
		got := p.Ancestors(nil)
		if want := (int(p.SrcLen)+1)*(int(p.DstLen)+1) - 1; len(got) != want {
			t.Fatalf("%v has %d ancestors, want %d: %v", p, len(got), want, got)
		}
		seen := map[Prefix]bool{}
		for _, a := range got {
			if !a.Canonical() || !a.StrictlyGeneralizes(p) || seen[a] {
				t.Fatalf("%v: bad or repeated ancestor %v in %v", p, a, got)
			}
			seen[a] = true
		}
	}
}
