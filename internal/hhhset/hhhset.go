// Package hhhset implements the hierarchical-heavy-hitter set
// computation shared by every HHH algorithm in this repository
// (H-Memento, MST, RHHH and the window Baseline): the level-by-level
// scan with conservative conditioned frequencies of paper Algorithm 2
// (lines 3-10), using calcPred from Algorithm 3 in one dimension and
// Algorithm 4 (glb inclusion-exclusion) in two.
//
// The algorithms differ only in how they estimate prefix frequencies
// and which additive compensation accounts for their sampling; both are
// abstracted behind the Estimator interface. The scan has two intakes:
// the full scan over a candidate list (Compute, or ComputeCandidates
// when the caller already holds each candidate's bounds), and
// ComputeTracked, which takes only the candidates that can reach the
// threshold on their own and looks up the few others the scan can
// still select. Both return the same set.
//
// Neither calcPred searches the selected set per candidate. In one
// dimension a cover bit per selected prefix marks those a selected
// ancestor already shadows (calcPred1D). In two, each candidate keeps
// the list of its closest selected descendants G, updated as the scan
// selects each prefix (adopt), and Algorithm 4's guard reads two
// column masks per member of G instead of testing every third member
// against every pair (calcPred). The answers are those of the literal
// algorithms to the bit: G keeps the order the generic
// hierarchy.Closest returns, so every float sum runs in the same order.
//
//memento:deterministic
package hhhset

import (
	"slices"

	"memento/internal/hierarchy"
	"memento/internal/keyidx"
)

// Estimator supplies conservative frequency bounds for prefixes.
// Upper must be a (high-probability) upper bound for the prefix's true
// frequency and Lower a matching lower bound; both in packets.
type Estimator interface {
	Bounds(p hierarchy.Prefix) (upper, lower float64)
}

// Entry is one member of a computed HHH set.
type Entry struct {
	Prefix hierarchy.Prefix
	// Estimate is the upper-bound frequency estimate f̂+.
	Estimate float64
	// Conditioned is the conservative conditioned frequency that
	// crossed the threshold (compensation included).
	Conditioned float64
}

// Candidate is one input prefix with its conservative bounds already
// computed, for ComputeCandidates and ComputeTracked.
type Candidate struct {
	Prefix       hierarchy.Prefix
	Upper, Lower float64
}

// Scratch holds the working state of the HHH-set computation so
// repeated queries reuse it instead of allocating per call: the
// retained candidates and their per-level buckets, the
// two-dimensional prefix→candidate index, the selected-walk buffers,
// the closest-descendant lists and guard masks, and ComputeTracked's
// ancestor counts. The zero value is ready; a caller that queries
// repeatedly keeps one and passes it to ComputeCandidates or
// ComputeTracked. A Scratch must not be shared between concurrent
// queries.
type Scratch struct {
	// cands holds the retained candidates; byLevel[d] lists the
	// indices of those at depth d, and in two dimensions seen maps a
	// candidate's prefix to its index.
	cands    []Candidate
	byLevel  [][]int32
	seen     *keyidx.Index[hierarchy.Prefix]
	selected []hierarchy.Prefix

	// ComputeTracked's lookups: below maps a prefix to the number of
	// retained candidates it strictly generalizes, co lists the
	// prefixes that reached two, ancestors is the enumeration buffer.
	below     *keyidx.Index[hierarchy.Prefix]
	co        []hierarchy.Prefix
	ancestors []hierarchy.Prefix

	// selLower[j] is selected[j]'s lower bound. One-dimensional fast
	// path (see calcPred1D): covered[j] records that selected[j]
	// already has a selected strict ancestor, and gIdx is the
	// per-candidate scratch of closest-descendant indices.
	covered  []bool
	selLower []float64
	gIdx     []int32

	// Two-dimensional calcPred (see adopt and calcPred): gLists[k] is
	// cands[k]'s closest-descendant list so far, as indices into
	// selected; srcCol and dstCol are the guard's column masks over
	// one candidate's G; patterns has a bit for each (source,
	// destination) length pair some retained candidate has.
	gLists         [][]int32
	srcCol, dstCol []uint64
	patterns       uint32
}

// Compute scans the candidate prefixes level by level (fully specified
// first) and returns every prefix whose conservative conditioned
// frequency, plus compensation, reaches threshold (in packets).
// Candidates may contain duplicates and prefixes of any level; order
// does not matter. The estimator is consulted once per unique
// candidate, and again only for glbs outside the candidate set. The
// returned set is deterministic for a given input.
func Compute(h hierarchy.Hierarchy, est Estimator, candidates []hierarchy.Prefix, threshold, compensation float64) []Entry {
	seen := make(map[hierarchy.Prefix]struct{}, len(candidates))
	cands := make([]Candidate, 0, len(candidates))
	for _, p := range candidates {
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		upper, lower := est.Bounds(p)
		cands = append(cands, Candidate{Prefix: p, Upper: upper, Lower: lower})
	}
	var sc Scratch
	return ComputeCandidates(h, est, cands, threshold, compensation, &sc, nil)
}

// ComputeCandidates is the full scan over candidates whose bounds the
// caller already computed, through caller-owned scratch, appending the
// result to dst. Candidates must be pairwise distinct; order does not
// matter. est must agree with the carried bounds on the candidates; it
// is consulted only for the two-dimensional glb add-back, and only for
// prefixes outside the candidate set.
func ComputeCandidates(h hierarchy.Hierarchy, est Estimator, candidates []Candidate, threshold, compensation float64, sc *Scratch, dst []Entry) []Entry {
	sc.bucket(h, candidates)
	return scan(h, est, threshold, compensation, sc, dst)
}

// Tracker is an Estimator that also knows which prefixes are
// candidates: the read plane's snapshots, which hold their candidates
// in hash tables rather than a list.
type Tracker interface {
	Estimator
	// Tracked returns p's bounds and whether p is a candidate.
	Tracked(p hierarchy.Prefix) (upper, lower float64, ok bool)
}

// ComputeTracked is ComputeCandidates for a caller that cannot afford
// to list its candidates: high holds at least every candidate with
// Upper + compensation ≥ threshold, pairwise distinct, and the other
// candidates the scan can select are looked up in t. The output
// matches ComputeCandidates over the full candidate list.
//
// A "low" candidate, Upper + compensation < threshold, needs a
// positive calcPred to be selected. One-dimensional calcPred only
// subtracts, so no low candidate is selected. Two-dimensional calcPred
// is positive only through a glb add-back, which takes two selected
// strict descendants; every selected prefix is high or, by induction
// on depth, sits above two high ones, so the low candidates the scan
// can select are among the prefixes that strictly generalize two
// members of high, a few dozen per member at most. Low candidates
// that are never selected never influence another prefix's
// conditioned frequency.
func ComputeTracked(h hierarchy.Hierarchy, t Tracker, high []Candidate, threshold, compensation float64, sc *Scratch, dst []Entry) []Entry {
	if sc.bucket(h, high) {
		for _, p := range sc.coAncestors() {
			if _, ok := sc.seen.Get(p); ok {
				continue
			}
			if upper, lower, ok := t.Tracked(p); ok {
				sc.retain(Candidate{Prefix: p, Upper: upper, Lower: lower}, h.Depth(p), true)
			}
		}
	}
	return scan(h, t, threshold, compensation, sc, dst)
}

// bucket clears sc and retains every in-domain candidate of cands. In
// two dimensions it also rebuilds the prefix→candidate index that
// the closest-descendant lists and the glb lookups resolve through (1D
// never consults it and skips the index maintenance entirely); it
// reports whether h is two-dimensional.
func (sc *Scratch) bucket(h hierarchy.Hierarchy, cands []Candidate) (twoD bool) {
	levels := h.Levels()
	if cap(sc.byLevel) < levels {
		sc.byLevel = make([][]int32, levels)
	}
	sc.byLevel = sc.byLevel[:levels]
	for i := range sc.byLevel {
		sc.byLevel[i] = sc.byLevel[i][:0]
	}
	sc.cands = sc.cands[:0]
	twoD = h.Dims() == 2
	if twoD {
		if sc.seen == nil {
			sc.seen = keyidx.MustNew(64, hierarchy.PrefixHasher(0))
		} else {
			sc.seen.Flush()
		}
		sc.patterns = 0
	}
	for _, c := range cands {
		if d := h.Depth(c.Prefix); d >= 0 && d < levels {
			sc.retain(c, d, twoD)
		}
	}
	return twoD
}

// coAncestors fills below with, for every strict ancestor of a
// retained candidate, the number of retained candidates under it, and
// co with the ancestors that have two or more (each once; they may be
// retained themselves), and returns co.
func (sc *Scratch) coAncestors() []hierarchy.Prefix {
	if sc.below == nil {
		sc.below = keyidx.MustNew(256, hierarchy.PrefixHasher(0))
	} else {
		sc.below.Flush()
	}
	sc.co = sc.co[:0]
	for _, c := range sc.cands {
		sc.ancestors = c.Prefix.Ancestors(sc.ancestors[:0])
		for _, a := range sc.ancestors {
			if sc.below.Inc(a, 1) == 2 {
				sc.co = append(sc.co, a)
			}
		}
	}
	return sc.co
}

// retain buckets c, a candidate of depth d, for the scan. In two
// dimensions it indexes c's prefix and starts c's empty
// closest-descendant list.
func (sc *Scratch) retain(c Candidate, d int, twoD bool) {
	k := int32(len(sc.cands))
	sc.cands = append(sc.cands, c)
	sc.byLevel[d] = append(sc.byLevel[d], k)
	if twoD {
		sc.seen.Put(c.Prefix, k)
		sc.patterns |= patternBit(c.Prefix.SrcLen, c.Prefix.DstLen)
		if int(k) < cap(sc.gLists) {
			sc.gLists = sc.gLists[:k+1]
			sc.gLists[k] = sc.gLists[k][:0]
		} else {
			sc.gLists = append(sc.gLists, nil)
		}
	}
}

// Trim drops any internal buffer whose capacity exceeds limit
// entries, so a pooled Scratch that served one pathologically wide
// query (an overflow-table blow-up) does not pin its high-water
// memory forever.
func (sc *Scratch) Trim(limit int) {
	if cap(sc.cands) > limit {
		sc.cands = nil
	}
	for i := range sc.byLevel {
		if cap(sc.byLevel[i]) > limit {
			sc.byLevel[i] = nil
		}
	}
	if sc.seen != nil && sc.seen.Cap() > limit {
		sc.seen = nil
	}
	if sc.below != nil && sc.below.Cap() > limit {
		sc.below = nil
	}
	if cap(sc.co) > limit {
		sc.co = nil
	}
	if cap(sc.selected) > limit {
		sc.selected = nil
	}
	if cap(sc.covered) > limit {
		sc.covered = nil
	}
	if cap(sc.selLower) > limit {
		sc.selLower = nil
	}
	if cap(sc.gIdx) > limit {
		sc.gIdx = nil
	}
	if cap(sc.gLists) > limit {
		sc.gLists = nil
	}
	lists := sc.gLists[:cap(sc.gLists)]
	for i := range lists {
		if cap(lists[i]) > limit {
			lists[i] = nil
		}
	}
	if cap(sc.srcCol) > limit {
		sc.srcCol, sc.dstCol = nil, nil
	}
}

// scan runs the bottom-up level scan over the bucketed candidates.
// Selection is independent of order within a level (same-depth
// prefixes never generalize each other, so a level's candidates
// cannot shadow one another); the appended entries are sorted once at
// the end for a deterministic result, instead of sorting every
// level's full candidate list up front.
func scan(h hierarchy.Hierarchy, est Estimator, threshold, compensation float64, sc *Scratch, dst []Entry) []Entry {
	start := len(dst)
	twoD := h.Dims() == 2
	selected := sc.selected[:0]
	sc.covered = sc.covered[:0]
	sc.selLower = sc.selLower[:0]
	for level := range sc.byLevel {
		for _, k := range sc.byLevel[level] {
			c := sc.cands[k]
			var pred float64
			var G []int32
			if twoD {
				G = sc.closestOf(k)
				pred = calcPred(est, sc, G, selected)
			} else {
				pred = calcPred1D(sc, c.Prefix, selected)
			}
			cond := c.Upper + pred + compensation
			if cond >= threshold {
				// c now shadows its closest descendants for every
				// later (more general) candidate.
				if twoD {
					sc.adopt(c.Prefix, int32(len(selected)), G)
				} else {
					for _, j := range sc.gIdx {
						sc.covered[j] = true
					}
				}
				selected = append(selected, c.Prefix)
				sc.covered = append(sc.covered, false)
				sc.selLower = append(sc.selLower, c.Lower)
				dst = append(dst, Entry{Prefix: c.Prefix, Estimate: c.Upper, Conditioned: cond})
			}
		}
	}
	sc.selected = selected[:0]
	out := dst[start:]
	slices.SortFunc(out, func(a, b Entry) int {
		if da, db := h.Depth(a.Prefix), h.Depth(b.Prefix); da != db {
			return da - db
		}
		return prefixCompare(a.Prefix, b.Prefix)
	})
	return dst
}

// calcPred1D is calcPred for one-dimensional hierarchies, where a
// prefix's ancestors form a chain so G(p|selected) needs no pairwise
// maximality filter: a selected descendant h of p is maximal iff no
// selected strict ancestor of h exists yet. Levels scan bottom-up, so
// the first selected strict ancestor of h is also its closest, and a
// cover bit per selected entry captures "has one". The scan is a
// single pass over selected with cached lower bounds — this is the
// hottest loop of the whole Output path (profiles showed the generic
// Closest at >80% of query time on wide candidate sets). Fills
// sc.gIdx with the indices of G's members so the caller can mark them
// covered if p is selected.
func calcPred1D(sc *Scratch, p hierarchy.Prefix, selected []hierarchy.Prefix) float64 {
	sc.gIdx = sc.gIdx[:0]
	r := 0.0
	for j := range selected {
		if sc.covered[j] {
			continue
		}
		if p.StrictlyGeneralizes(selected[j]) {
			sc.gIdx = append(sc.gIdx, int32(j))
			r -= sc.selLower[j]
		}
	}
	return r
}

// closestOf returns G(cands[k]|selected) when the scan reaches
// candidate k: its list with the members adopt struck out removed, so
// the list is G itself from then on.
func (sc *Scratch) closestOf(k int32) []int32 {
	live := sc.gLists[k][:0]
	for _, m := range sc.gLists[k] {
		if m >= 0 {
			live = append(live, m)
		}
	}
	sc.gLists[k] = live
	return live
}

// adopt records that c, just selected as selected[j] with closest
// selected descendants G, is a closest selected descendant of each of
// its strict ancestors a that is a candidate, and that the members of G
// no longer are. (A member of a's list that c generalizes is in G:
// anything selected strictly between it and c would also lie strictly
// between it and a.) Levels scan bottom-up, so no earlier member
// generalizes c, and a list only grows by appends in selection order:
// it stays sorted by selected index, in the order hierarchy.Closest
// returns, and a struck-out member keeps its place as ^m until
// closestOf drops it. Only the ancestors of a pattern some candidate
// has are looked up.
func (sc *Scratch) adopt(c hierarchy.Prefix, j int32, G []int32) {
	for sl := uint8(0); sl <= c.SrcLen; sl++ {
		src := hierarchy.MaskBytes(c.Src, sl)
		for dl := uint8(0); dl <= c.DstLen; dl++ {
			if sc.patterns&patternBit(sl, dl) == 0 || sl == c.SrcLen && dl == c.DstLen {
				continue
			}
			k, ok := sc.seen.Get(hierarchy.Prefix{Src: src, Dst: hierarchy.MaskBytes(c.Dst, dl), SrcLen: sl, DstLen: dl})
			if !ok {
				continue
			}
			list := sc.gLists[k]
			for _, m := range G {
				strike(list, m)
			}
			sc.gLists[k] = append(list, j)
		}
	}
}

// strike marks member m of list, which is sorted by member with
// struck-out members m stored as ^m, as struck out.
func strike(list []int32, m int32) {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		v := list[mid]
		if v < 0 {
			v = ^v
		}
		if v < m {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	list[lo] = ^m
}

// patternBit is the bit of Scratch.patterns for the prefixes that keep
// sl source and dl destination bytes.
func patternBit(sl, dl uint8) uint32 {
	return 1 << (uint(sl)*(hierarchy.AddrBytes+1) + uint(dl))
}

// calcPred returns the (negative) correction from already-selected
// descendants in two dimensions, given G, a candidate's closest
// selected descendants as indices into selected: Algorithm 3
// subtracts each member's lower bound; Algorithm 4 additionally adds
// back the upper bound of each pair's glb unless a third member of G
// generalizes it. Bounds of candidate glbs come from the retained
// candidates; only non-candidate glb prefixes query the estimator.
// (One-dimensional hierarchies use calcPred1D, which exploits the
// chain structure of 1D ancestry.)
//
// Algorithm 4's ∄h3 guard: the paper writes "q ⪯ h3" (q generalizes
// h3), which is vacuous — a descendant of glb(h, h') descends from h,
// so it can never be another *maximal* member of G. The
// inclusion-exclusion-correct reading, implemented here, skips the
// add-back when a third member of G generalizes the glb: the (h, h')
// overlap then lies entirely inside h3, and the (h, h3) and (h', h3)
// pairs already restore it exactly once.
//
// The guard runs on column masks: srcCol[a] holds the members whose
// source part generalizes member a's, dstCol[a] likewise for the
// destination. glb(h_i, h_j) takes its source from the member with the
// longer source (k1) and its destination from the one with the longer
// destination (k2), so the members that generalize it are exactly
// srcCol[k1] & dstCol[k2]. That set holds i and j iff the glb exists,
// and any other bit in it is an h3.
func calcPred(est Estimator, sc *Scratch, G []int32, selected []hierarchy.Prefix) float64 {
	r := 0.0
	for _, m := range G {
		r -= sc.selLower[m]
	}
	n := len(G)
	if n < 2 {
		return r
	}
	words := (n + 63) / 64
	sc.srcCol = resetMask(sc.srcCol, n*words)
	sc.dstCol = resetMask(sc.dstCol, n*words)
	for a, ma := range G {
		pa := selected[ma]
		srcRow := sc.srcCol[a*words : (a+1)*words]
		dstRow := sc.dstCol[a*words : (a+1)*words]
		for b, mb := range G {
			pb := selected[mb]
			bit := uint64(1) << (b & 63)
			if pb.SrcLen <= pa.SrcLen && hierarchy.MaskBytes(pa.Src, pb.SrcLen) == pb.Src {
				srcRow[b>>6] |= bit
			}
			if pb.DstLen <= pa.DstLen && hierarchy.MaskBytes(pa.Dst, pb.DstLen) == pb.Dst {
				dstRow[b>>6] |= bit
			}
		}
	}
	for i := 0; i < n; i++ {
		pi := selected[G[i]]
		for j := i + 1; j < n; j++ {
			pj := selected[G[j]]
			k1, k2 := i, i
			if pj.SrcLen > pi.SrcLen {
				k1 = j
			}
			if pj.DstLen > pi.DstLen {
				k2 = j
			}
			if !onlyPair(sc.srcCol[k1*words:(k1+1)*words], sc.dstCol[k2*words:(k2+1)*words], i, j) {
				continue
			}
			q := hierarchy.Prefix{
				Src: selected[G[k1]].Src, SrcLen: selected[G[k1]].SrcLen,
				Dst: selected[G[k2]].Dst, DstLen: selected[G[k2]].DstLen,
			}
			if slot, ok := sc.seen.Get(q); ok {
				r += sc.cands[slot].Upper
			} else {
				upper, _ := est.Bounds(q)
				r += upper
			}
		}
	}
	return r
}

// resetMask returns buf resized to n zeroed words, reusing its
// backing array when it is large enough.
func resetMask(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// onlyPair reports whether the intersection of the masks src and dst
// is exactly the bits i and j: the glb of members i and j exists and
// no third member generalizes it.
func onlyPair(src, dst []uint64, i, j int) bool {
	bi, bj := uint64(1)<<(i&63), uint64(1)<<(j&63)
	if src[i>>6]&dst[i>>6]&bi == 0 || src[j>>6]&dst[j>>6]&bj == 0 {
		return false
	}
	for w := range src {
		x := src[w] & dst[w]
		if w == i>>6 {
			x &^= bi
		}
		if w == j>>6 {
			x &^= bj
		}
		if x != 0 {
			return false
		}
	}
	return true
}

// prefixCompare orders prefixes deterministically.
func prefixCompare(a, b hierarchy.Prefix) int {
	switch {
	case a.Src != b.Src:
		if a.Src < b.Src {
			return -1
		}
		return 1
	case a.Dst != b.Dst:
		if a.Dst < b.Dst {
			return -1
		}
		return 1
	case a.SrcLen != b.SrcLen:
		if a.SrcLen < b.SrcLen {
			return -1
		}
		return 1
	case a.DstLen != b.DstLen:
		if a.DstLen < b.DstLen {
			return -1
		}
		return 1
	}
	return 0
}
