package hhhset

import (
	"fmt"
	"slices"
	"testing"

	"memento/internal/hierarchy"
	"memento/internal/rng"
)

// mapEstimator serves exact bounds from a table; missing prefixes are
// zero.
type mapEstimator map[hierarchy.Prefix]float64

func (m mapEstimator) Bounds(p hierarchy.Prefix) (float64, float64) {
	v := m[p]
	return v, v
}

func pfx(a, b, c, d byte, keep uint8) hierarchy.Prefix {
	return hierarchy.Prefix{Src: hierarchy.MaskBytes(hierarchy.IPv4(a, b, c, d), keep), SrcLen: keep}
}

func TestComputeConditionsOutAncestors(t *testing.T) {
	// One flow carries all its ancestors' weight: only the flow (and
	// the root via residual) should be selected.
	flow := pfx(9, 8, 7, 6, 4)
	est := mapEstimator{
		flow:               500,
		pfx(9, 8, 7, 0, 3): 505,
		pfx(9, 8, 0, 0, 2): 510,
		pfx(9, 0, 0, 0, 1): 515,
		{}:                 1000,
	}
	cands := []hierarchy.Prefix{flow, pfx(9, 8, 7, 0, 3), pfx(9, 8, 0, 0, 2), pfx(9, 0, 0, 0, 1), {}}
	got := Compute(hierarchy.OneD{}, est, cands, 400, 0)
	want := map[hierarchy.Prefix]bool{flow: true, {}: true}
	if len(got) != len(want) {
		t.Fatalf("Compute = %v, want flow and root only", got)
	}
	for _, e := range got {
		if !want[e.Prefix] {
			t.Fatalf("unexpected member %v", e.Prefix)
		}
	}
	// Root's conditioned frequency subtracts only its closest selected
	// descendant (the flow): 1000 − 500.
	for _, e := range got {
		if e.Prefix == (hierarchy.Prefix{}) && e.Conditioned != 500 {
			t.Fatalf("root conditioned = %v, want 500", e.Conditioned)
		}
	}
}

func TestComputeLevelsScannedBottomUp(t *testing.T) {
	// A /24 and its /16 parent both above threshold on their own
	// weight: both selected, parent conditioned on child.
	child := pfx(1, 2, 3, 0, 3)
	parent := pfx(1, 2, 0, 0, 2)
	est := mapEstimator{child: 300, parent: 700}
	got := Compute(hierarchy.OneD{}, est, []hierarchy.Prefix{parent, child}, 250, 0)
	if len(got) != 2 {
		t.Fatalf("Compute = %v", got)
	}
	if got[0].Prefix != child {
		t.Fatal("child level must be scanned first")
	}
	if got[1].Conditioned != 400 {
		t.Fatalf("parent conditioned = %v, want 700-300", got[1].Conditioned)
	}
}

func TestComputeCompensationAdmitsBorderline(t *testing.T) {
	p := pfx(4, 0, 0, 0, 1)
	est := mapEstimator{p: 90}
	if got := Compute(hierarchy.OneD{}, est, []hierarchy.Prefix{p}, 100, 0); len(got) != 0 {
		t.Fatalf("without compensation: %v", got)
	}
	got := Compute(hierarchy.OneD{}, est, []hierarchy.Prefix{p}, 100, 15)
	if len(got) != 1 || got[0].Conditioned != 105 {
		t.Fatalf("with compensation: %v", got)
	}
}

func TestComputeDeduplicatesCandidates(t *testing.T) {
	p := pfx(4, 0, 0, 0, 1)
	est := mapEstimator{p: 200}
	got := Compute(hierarchy.OneD{}, est, []hierarchy.Prefix{p, p, p}, 100, 0)
	if len(got) != 1 {
		t.Fatalf("duplicates not removed: %v", got)
	}
}

func TestCompute2DGLBAddBack(t *testing.T) {
	// Row (src fixed) and column (dst fixed) overlap on one cell. The
	// root must add back the glb's weight after subtracting both.
	var h hierarchy.TwoD
	row := hierarchy.Prefix{Src: hierarchy.IPv4(1, 1, 1, 1), SrcLen: 4}
	col := hierarchy.Prefix{Dst: hierarchy.IPv4(2, 2, 2, 2), DstLen: 4}
	cell := hierarchy.Prefix{
		Src: hierarchy.IPv4(1, 1, 1, 1), SrcLen: 4,
		Dst: hierarchy.IPv4(2, 2, 2, 2), DstLen: 4,
	}
	est := mapEstimator{
		row:  400, // includes the cell's 300
		col:  400, // includes the cell's 300
		cell: 300,
		{}:   1000,
	}
	// Threshold 100: the cell passes at level 0 (300), row and col pass
	// at their level conditioned on the cell (400 − 300 = 100), and the
	// root's conditioned frequency exercises the glb add-back:
	// 1000 − 400 − 400 + 300 = 500 (without the add-back it would be
	// 200 — the assertion pins the exact value).
	got := Compute(h, est, []hierarchy.Prefix{row, col, cell, {}}, 100, 0)
	byPrefix := map[hierarchy.Prefix]Entry{}
	for _, e := range got {
		byPrefix[e.Prefix] = e
	}
	for _, want := range []hierarchy.Prefix{cell, row, col, {}} {
		if _, ok := byPrefix[want]; !ok {
			t.Fatalf("%v missing from %v", want, got)
		}
	}
	if c := byPrefix[row].Conditioned; c != 100 {
		t.Fatalf("row conditioned = %v, want 400-300", c)
	}
	if c := byPrefix[hierarchy.Prefix{}].Conditioned; c != 500 {
		t.Fatalf("root conditioned = %v, want 1000-400-400+300", c)
	}
}

func TestCompute2DGLBShadowedByThird(t *testing.T) {
	// Three mutually incomparable members of G(root|P):
	//   A = (1.1/16, *), B = (*, 2.2/16), C = (1/8, 2/8).
	// glb(A, B) = (1.1/16, 2.2/16) lies entirely inside C, so its
	// add-back must be skipped; the (A, C) and (B, C) pairs restore
	// the overlap exactly once each (Algorithm 4's ∄h3 condition).
	var h hierarchy.TwoD
	A := hierarchy.Prefix{Src: hierarchy.IPv4(1, 1, 0, 0), SrcLen: 2}
	B := hierarchy.Prefix{Dst: hierarchy.IPv4(2, 2, 0, 0), DstLen: 2}
	C := hierarchy.Prefix{Src: hierarchy.IPv4(1, 0, 0, 0), SrcLen: 1, Dst: hierarchy.IPv4(2, 0, 0, 0), DstLen: 1}
	glbAB, ok := hierarchy.GLB(A, B)
	if !ok || !C.Generalizes(glbAB) {
		t.Fatal("fixture: C must generalize glb(A, B)")
	}
	glbAC, _ := hierarchy.GLB(A, C) // (1.1/16, 2/8)
	glbBC, _ := hierarchy.GLB(B, C) // (1/8, 2.2/16)
	est := mapEstimator{
		A: 800, B: 800, C: 900,
		glbAB: 700, glbAC: 750, glbBC: 760,
		{}: 5000,
	}
	// Depths: A and B are at depth 6, C at depth 6 as well
	// ((4-2)+(4-0) = (4-1)+(4-1) = 6), so all three are candidates of
	// the same level and mutually incomparable — all selected at
	// threshold 500.
	got := Compute(h, est, []hierarchy.Prefix{A, B, C, {}}, 500, 0)
	byPrefix := map[hierarchy.Prefix]Entry{}
	for _, e := range got {
		byPrefix[e.Prefix] = e
	}
	for _, want := range []hierarchy.Prefix{A, B, C} {
		if _, ok := byPrefix[want]; !ok {
			t.Fatalf("%v missing from %v", want, got)
		}
	}
	root, ok := byPrefix[hierarchy.Prefix{}]
	if !ok {
		t.Fatalf("root missing: %v", got)
	}
	// calcPred(root): −800 −800 −900, pairs: (A,B) shadowed by C
	// (skipped), (A,C) +750, (B,C) +760. With the vacuous literal
	// reading of the paper's condition the skipped 700 would be added
	// and this pin would catch it.
	want := 5000.0 - 800 - 800 - 900 + 750 + 760
	if root.Conditioned != want {
		t.Fatalf("root conditioned = %v, want %v", root.Conditioned, want)
	}
}

func TestComputeDeterministicOrder(t *testing.T) {
	est := mapEstimator{}
	var cands []hierarchy.Prefix
	for i := 0; i < 20; i++ {
		p := pfx(byte(i), 0, 0, 0, 1)
		est[p] = 500
		cands = append(cands, p)
	}
	a := Compute(hierarchy.OneD{}, est, cands, 100, 0)
	// Shuffle candidate order; output must not change.
	for i := range cands {
		j := (i * 7) % len(cands)
		cands[i], cands[j] = cands[j], cands[i]
	}
	b := Compute(hierarchy.OneD{}, est, cands, 100, 0)
	if len(a) != len(b) {
		t.Fatal("length depends on candidate order")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order-dependent output at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// countingEstimator wraps mapEstimator and counts Bounds calls per
// prefix.
type countingEstimator struct {
	m     mapEstimator
	calls map[hierarchy.Prefix]int
}

func (c *countingEstimator) Bounds(p hierarchy.Prefix) (float64, float64) {
	c.calls[p]++
	return c.m.Bounds(p)
}

// TestComputeBoundsCalledOncePerCandidate pins the bounds cache:
// however many selected descendants a candidate has, Compute consults
// the estimator exactly once per unique candidate.
func TestComputeBoundsCalledOncePerCandidate(t *testing.T) {
	h := hierarchy.OneD{}
	// A deep chain: /32 under /24 under /16 under /8, all heavy, so
	// every level's calcPred walks multiple selected descendants.
	full := hierarchy.Prefix{Src: hierarchy.IPv4(10, 1, 2, 3), SrcLen: 4}
	cands := []hierarchy.Prefix{
		full,
		{Src: hierarchy.MaskBytes(full.Src, 3), SrcLen: 3},
		{Src: hierarchy.MaskBytes(full.Src, 2), SrcLen: 2},
		{Src: hierarchy.MaskBytes(full.Src, 1), SrcLen: 1},
		{},
		full, // duplicate: must not trigger a second Bounds call
	}
	est := &countingEstimator{
		m:     mapEstimator{},
		calls: map[hierarchy.Prefix]int{},
	}
	for _, p := range cands {
		est.m[p] = 1000
	}
	got := Compute(h, est, cands, 100, 0)
	if len(got) == 0 {
		t.Fatal("test vacuous: nothing selected")
	}
	for p, n := range est.calls {
		if n != 1 {
			t.Errorf("Bounds(%v) called %d times, want 1", p, n)
		}
	}
	// The cached run must equal the uncached reference computation.
	sameEntries(t, "cached run", got, referenceCompute(h, est.m, cands, 100, 0))
}

// sameEntries fails t unless got equals the reference want entry for
// entry, bit for bit.
func sameEntries(t *testing.T, what string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s selected %d entries, reference %d\n%v\n%v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s entry %d: %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// referenceCompute is the textbook Algorithm 2 scan, sharing no code
// with the one under test: each level's candidates in prefix order,
// then referenceScan.
func referenceCompute(h hierarchy.Hierarchy, est Estimator, candidates []hierarchy.Prefix, threshold, compensation float64) []Entry {
	var unique []hierarchy.Prefix
	seen := map[hierarchy.Prefix]bool{}
	for _, p := range candidates {
		if !seen[p] {
			seen[p] = true
			unique = append(unique, p)
		}
	}
	slices.SortFunc(unique, prefixCompare)
	return referenceScan(h, est, unique, threshold, compensation, nil)
}

// refStats counts what referenceCalcPred met: the pairs whose glb a
// third member of G generalizes, and the largest G.
type refStats struct {
	shadowed, maxG int
}

// referenceScan is Algorithm 2 over distinct candidates, scanned
// level by level in the order given within each level, with
// referenceCalcPred's correction and every bound read from est. Its
// entries are sorted like scan's.
func referenceScan(h hierarchy.Hierarchy, est Estimator, candidates []hierarchy.Prefix, threshold, compensation float64, stats *refStats) []Entry {
	levels := h.Levels()
	byLevel := make([][]hierarchy.Prefix, levels)
	for _, p := range candidates {
		if d := h.Depth(p); d >= 0 && d < levels {
			byLevel[d] = append(byLevel[d], p)
		}
	}
	var selected []hierarchy.Prefix
	var out []Entry
	for _, level := range byLevel {
		for _, p := range level {
			upper, _ := est.Bounds(p)
			cond := upper + referenceCalcPred(est, p, selected, stats) + compensation
			if cond >= threshold {
				selected = append(selected, p)
				out = append(out, Entry{Prefix: p, Estimate: upper, Conditioned: cond})
			}
		}
	}
	slices.SortStableFunc(out, func(a, b Entry) int {
		if da, db := h.Depth(a.Prefix), h.Depth(b.Prefix); da != db {
			return da - db
		}
		return prefixCompare(a.Prefix, b.Prefix)
	})
	return out
}

// referenceCalcPred is calcPred as Algorithms 3 and 4 state it: G from
// the generic hierarchy.Closest over every selected prefix, each
// member's lower bound subtracted in G's order, then each pair's glb
// upper bound added back unless a third member of G generalizes it
// (the cubic ∄h3 guard; in 1D no two members of G have a glb). Every
// bound is read from est, nothing cached. stats, if not nil, counts
// what the guard met.
func referenceCalcPred(est Estimator, p hierarchy.Prefix, selected []hierarchy.Prefix, stats *refStats) float64 {
	G := hierarchy.Closest(p, selected, nil)
	r := 0.0
	for _, g := range G {
		_, lower := est.Bounds(g)
		r -= lower
	}
	if stats != nil {
		stats.maxG = max(stats.maxG, len(G))
	}
	for i, g := range G {
		for _, g2 := range G[i+1:] {
			q, ok := hierarchy.GLB(g, g2)
			if !ok {
				continue
			}
			if slices.ContainsFunc(G, func(h3 hierarchy.Prefix) bool {
				return h3 != g && h3 != g2 && h3.Generalizes(q)
			}) {
				if stats != nil {
					stats.shadowed++
				}
				continue
			}
			upper, _ := est.Bounds(q)
			r += upper
		}
	}
	return r
}

// TestCompute1DFastPathMatchesReference drives random 1D candidate
// sets through Compute and the reference scan; the cover-bit fast
// path must agree entry for entry.
func TestCompute1DFastPathMatchesReference(t *testing.T) {
	h := hierarchy.OneD{}
	src := rng.New(91)
	for trial := 0; trial < 200; trial++ {
		est := mapEstimator{}
		var cands []hierarchy.Prefix
		n := 5 + src.Intn(60)
		for i := 0; i < n; i++ {
			// Small address pool so chains and duplicates are common.
			addr := uint32(src.Intn(4))<<24 | uint32(src.Intn(3))<<16 |
				uint32(src.Intn(3))<<8 | uint32(src.Intn(3))
			keep := uint8(src.Intn(5))
			p := hierarchy.Prefix{Src: hierarchy.MaskBytes(addr, keep), SrcLen: keep}
			cands = append(cands, p)
			if _, ok := est[p]; !ok {
				est[p] = float64(src.Intn(2000))
			}
		}
		threshold := float64(100 + src.Intn(1000))
		comp := float64(src.Intn(200))
		got := Compute(h, est, cands, threshold, comp)
		sameEntries(t, fmt.Sprintf("trial %d: fast path", trial), got, referenceCompute(h, est, cands, threshold, comp))
	}
}

// boundsTable serves per-prefix bounds from a table; a prefix outside
// it gets the table's default pair, like a sketch's absent-key bounds.
type boundsTable struct {
	m            map[hierarchy.Prefix][2]float64
	upper, lower float64
}

func (b boundsTable) Bounds(p hierarchy.Prefix) (float64, float64) {
	if v, ok := b.m[p]; ok {
		return v[0], v[1]
	}
	return b.upper, b.lower
}

// Tracked makes the table a Tracker: its members are the candidates.
func (b boundsTable) Tracked(p hierarchy.Prefix) (float64, float64, bool) {
	v, ok := b.m[p]
	return v[0], v[1], ok
}

// TestComputeTrackedMatchesFullScan is the soundness property of
// ComputeTracked's lookups: over random candidate sets with random
// bounds — not monotone along the hierarchy, lower anywhere in
// [0, upper] — and thresholds down to admit-everything (threshold ≤
// compensation), ComputeTracked over the high candidates alone,
// Compute and ComputeCandidates over the full list must all return
// exactly what the reference scan returns. In two dimensions the
// fixture must exercise the case the lookups exist for: a candidate
// below threshold − compensation selected through a glb add-back, in
// a trial where ComputeTracked retained fewer candidates than the
// full list holds.
func TestComputeTrackedMatchesFullScan(t *testing.T) {
	src := rng.New(17)
	var sc Scratch // one scratch across all trials: reuse must not leak state
	for _, h := range []hierarchy.Hierarchy{hierarchy.OneD{}, hierarchy.TwoD{}} {
		twoD := h.Dims() == 2
		lifted, admitAll := 0, 0
		for trial := 0; trial < 400; trial++ {
			// A small address pool makes ancestors, descendants and glbs
			// of candidates likely to be candidates themselves.
			addr := func() uint32 {
				return hierarchy.IPv4(byte(1+src.Intn(2)), byte(src.Intn(2)), byte(src.Intn(2)), byte(src.Intn(2)))
			}
			est := boundsTable{m: map[hierarchy.Prefix][2]float64{}, upper: float64(src.Intn(300))}
			var prefixes []hierarchy.Prefix
			var cands []Candidate
			for i, n := 0, 5+src.Intn(120); i < n; i++ {
				p := hierarchy.Prefix{SrcLen: uint8(src.Intn(5))}
				p.Src = hierarchy.MaskBytes(addr(), p.SrcLen)
				if twoD {
					p.DstLen = uint8(src.Intn(5))
					p.Dst = hierarchy.MaskBytes(addr(), p.DstLen)
				}
				if _, dup := est.m[p]; dup {
					continue
				}
				upper := float64(src.Intn(2000))
				lower := upper * float64(src.Intn(5)) / 4
				est.m[p] = [2]float64{upper, lower}
				prefixes = append(prefixes, p)
				cands = append(cands, Candidate{Prefix: p, Upper: upper, Lower: lower})
			}
			comp := float64(src.Intn(400))
			threshold := float64(src.Intn(2500))
			if trial%8 == 0 {
				threshold = float64(src.Intn(int(comp) + 1))
			}
			if threshold <= comp {
				admitAll++
			}

			want := referenceCompute(h, est, prefixes, threshold, comp)
			what := fmt.Sprintf("%v trial %d:", h, trial)
			sameEntries(t, what+" Compute", Compute(h, est, prefixes, threshold, comp), want)
			sameEntries(t, what+" ComputeCandidates", ComputeCandidates(h, est, cands, threshold, comp, &sc, nil), want)
			var high []Candidate
			for _, c := range cands {
				if c.Upper+comp >= threshold {
					high = append(high, c)
				}
			}
			sameEntries(t, what+" ComputeTracked", ComputeTracked(h, est, high, threshold, comp, &sc, nil), want)
			retained := 0
			for _, level := range sc.byLevel {
				retained += len(level)
			}
			for _, e := range want {
				if retained < len(cands) && e.Estimate+comp < threshold {
					lifted++
				}
			}
		}
		if admitAll == 0 {
			t.Fatalf("%v: test vacuous: no trial had threshold ≤ compensation", h)
		}
		if twoD && lifted == 0 {
			t.Fatal("test vacuous: no below-threshold candidate was selected through a glb add-back while ComputeTracked skipped candidates")
		}
		if !twoD && lifted != 0 {
			t.Fatal("a 1D candidate below threshold − compensation was selected: calcPred1D must only subtract")
		}
	}
}

// randomSketch2D is a random two-dimensional sketch's view of a
// window: the exact counts of a random stream for every prefix of
// every packet, read through one-sided error — upper = scale·(count +
// e) with e ∈ [0, slack), lower = max(0, upper − scale·slack) — so
// the bounds are not integers and float sums depend on their order.
// The sketch tracks every prefix counted at least twice and a quarter
// of the others; the rest get the absent default. The stream mixes a
// few heavy flows, rows and columns over small /16 pools (overlaps
// whose glbs a third member can generalize), and a tail whose first
// bytes span wide values, so G(root) can pass 64 members. It returns
// the bounds, the tracked prefixes in a random order with their
// bounds, and the window in packets.
func randomSketch2D(src *rng.Source, packets, wide int) (boundsTable, []Candidate, float64) {
	scale := 1 + src.Float64()
	slack := float64(1 + src.Intn(4))
	counts := map[hierarchy.Prefix]int{}
	var order []hierarchy.Prefix
	var h hierarchy.TwoD
	for i := 0; i < packets; i++ {
		var p hierarchy.Packet
		switch src.Intn(4) {
		case 0: // heavy flows
			p = hierarchy.Packet{Src: hierarchy.IPv4(1, 1, 1, byte(src.Intn(3))), Dst: hierarchy.IPv4(2, 2, 2, byte(src.Intn(3)))}
		case 1: // rows and columns over /16 pools
			p = hierarchy.Packet{
				Src: hierarchy.IPv4(1, byte(src.Intn(3)), byte(src.Intn(256)), byte(src.Intn(256))),
				Dst: hierarchy.IPv4(2, byte(src.Intn(3)), byte(src.Intn(256)), byte(src.Intn(256))),
			}
		default: // wide tail
			p = hierarchy.Packet{
				Src: hierarchy.IPv4(byte(10+src.Intn(wide)), byte(src.Intn(2)), 0, byte(src.Intn(2))),
				Dst: hierarchy.IPv4(byte(10+src.Intn(wide)), 0, byte(src.Intn(2)), 0),
			}
		}
		for pat := 0; pat < h.H(); pat++ {
			q := h.Prefix(p, pat)
			if counts[q] == 0 {
				order = append(order, q)
			}
			counts[q]++
		}
	}
	est := boundsTable{m: map[hierarchy.Prefix][2]float64{}, upper: scale * slack}
	var cands []Candidate
	for i := len(order) - 1; i > 0; i-- { // shuffle
		j := src.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for _, q := range order {
		if counts[q] < 2 && src.Intn(4) != 0 {
			continue
		}
		upper := scale * (float64(counts[q]) + slack*src.Float64())
		lower := max(0, upper-scale*slack)
		est.m[q] = [2]float64{upper, lower}
		cands = append(cands, Candidate{Prefix: q, Upper: upper, Lower: lower})
	}
	return est, cands, scale * float64(packets)
}

// TestScan2DMatchesClosestReference holds the two-dimensional scan —
// closest-descendant lists kept by ancestry, the glb guard on column
// masks — to referenceCalcPred's generic Closest and cubic guard, entry
// for entry and bit for bit (Conditioned included: the candidates go
// to both in the same order, so every float sum must run in the same
// order), on random sketches from θ = 0.3 down to admit-everything
// (threshold ≤ compensation). The trials must reach a G of more than
// 64 members (more than one mask word) and a pair whose glb a third
// member generalizes, which steady traffic never exercises.
func TestScan2DMatchesClosestReference(t *testing.T) {
	var h hierarchy.TwoD
	src := rng.New(44)
	var sc Scratch // one scratch across all trials: reuse must not leak state
	var stats refStats
	admitAll := 0
	for trial := 0; trial < 8; trial++ {
		est, cands, window := randomSketch2D(src, 150+src.Intn(400), 40+src.Intn(120))
		prefixes := make([]hierarchy.Prefix, len(cands))
		for i, c := range cands {
			prefixes[i] = c.Prefix
		}
		comp := est.upper * float64(src.Intn(8))
		for _, theta := range []float64{0.3, 0.1, 0.03, 0.01, 0.003, 0} {
			threshold := theta * window
			if theta == 0 {
				threshold = comp * src.Float64()
			}
			if threshold <= comp {
				admitAll++
			}
			want := referenceScan(h, est, prefixes, threshold, comp, &stats)
			got := ComputeCandidates(h, est, cands, threshold, comp, &sc, nil)
			sameEntries(t, fmt.Sprintf("trial %d θ %v threshold %v:", trial, theta, threshold), got, want)
		}
	}
	if admitAll == 0 || stats.maxG <= 64 || stats.shadowed == 0 {
		t.Fatalf("test vacuous: %d admit-everything queries, largest G %d, %d shadowed pairs",
			admitAll, stats.maxG, stats.shadowed)
	}
	t.Logf("largest G %d, %d shadowed pairs", stats.maxG, stats.shadowed)
}

// TestScratchTrim pins the pool hygiene hook on the two-dimensional
// scan's buffers: after a wide query, a generous limit keeps them and
// a small one drops every retained candidate slab, closest-descendant
// list (the backing array's spare ones included) and guard mask above
// it.
func TestScratchTrim(t *testing.T) {
	var h hierarchy.TwoD
	est, cands, _ := randomSketch2D(rng.New(46), 400, 150)
	var sc Scratch
	if got := ComputeCandidates(h, est, cands, 0, est.upper, &sc, nil); len(got) == 0 {
		t.Fatal("test vacuous: nothing selected")
	}
	longest := 0
	for _, l := range sc.gLists {
		longest = max(longest, cap(l))
	}
	if longest <= 64 || cap(sc.srcCol) <= 64 {
		t.Fatalf("test vacuous: longest list cap %d, mask cap %d", longest, cap(sc.srcCol))
	}
	sc.Trim(1 << 30)
	if sc.cands == nil || sc.gLists == nil || sc.srcCol == nil || sc.dstCol == nil {
		t.Fatal("buffers under the limit dropped")
	}
	sc.Trim(64)
	if cap(sc.cands) > 64 || sc.gLists != nil || sc.srcCol != nil || sc.dstCol != nil {
		t.Fatalf("oversized buffers kept: candidates cap %d, lists cap %d, masks cap %d and %d",
			cap(sc.cands), cap(sc.gLists), cap(sc.srcCol), cap(sc.dstCol))
	}
	// Under a kept slab, each long list goes, the spare ones past len
	// included.
	sc.gLists = make([][]int32, 2, 8)
	sc.gLists[0] = make([]int32, 0, 100)
	sc.gLists[1] = make([]int32, 0, 10)
	sc.gLists[:8][5] = make([]int32, 0, 100)
	sc.Trim(64)
	if spare := sc.gLists[:8][5]; sc.gLists[0] != nil || sc.gLists[1] == nil || spare != nil {
		t.Fatalf("list caps after trim: %d, %d, spare %d", cap(sc.gLists[0]), cap(sc.gLists[1]), cap(spare))
	}
}
