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
// per-level candidate buckets, the two-dimensional prefix→bounds
// index and cache, the selected-walk buffers, and ComputeTracked's
// ancestor counts. The zero value is ready; a caller that queries
// repeatedly keeps one and passes it to ComputeCandidates or
// ComputeTracked. A Scratch must not be shared between concurrent
// queries.
type Scratch struct {
	byLevel  [][]Candidate
	seen     *keyidx.Index[hierarchy.Prefix]
	bounds   []boundsPair
	selected []hierarchy.Prefix
	closest  []hierarchy.Prefix

	// ComputeTracked's lookups: below maps a prefix to the number of
	// retained candidates it strictly generalizes, co lists the
	// prefixes that reached two, ancestors is the enumeration buffer.
	below     *keyidx.Index[hierarchy.Prefix]
	co        []hierarchy.Prefix
	ancestors []hierarchy.Prefix

	// One-dimensional fast path (see calcPred1D): covered[j] records
	// that selected[j] already has a selected strict ancestor,
	// selLower[j] caches selected[j]'s lower bound, and gIdx is the
	// per-candidate scratch of closest-descendant indices.
	covered  []bool
	selLower []float64
	gIdx     []int32
}

// boundsPair caches one candidate's bounds for the two-dimensional
// calcPred, which needs them when the candidate later appears as a
// selected descendant or as a glb of two selected prefixes. (The 1D
// path keeps lower bounds inline with the selected set instead.)
type boundsPair struct {
	upper, lower float64
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
// two dimensions it also rebuilds the prefix→bounds index the glb
// cache resolves through (1D never consults it and skips the index
// maintenance entirely); it reports whether h is two-dimensional.
func (sc *Scratch) bucket(h hierarchy.Hierarchy, cands []Candidate) (twoD bool) {
	levels := h.Levels()
	if cap(sc.byLevel) < levels {
		sc.byLevel = make([][]Candidate, levels)
	}
	sc.byLevel = sc.byLevel[:levels]
	for i := range sc.byLevel {
		sc.byLevel[i] = sc.byLevel[i][:0]
	}
	twoD = h.Dims() == 2
	if twoD {
		if sc.seen == nil {
			sc.seen = keyidx.MustNew(64, hierarchy.PrefixHasher(0))
		} else {
			sc.seen.Flush()
		}
		sc.bounds = sc.bounds[:0]
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
	for _, level := range sc.byLevel {
		for _, c := range level {
			sc.ancestors = c.Prefix.Ancestors(sc.ancestors[:0])
			for _, a := range sc.ancestors {
				if sc.below.Inc(a, 1) == 2 {
					sc.co = append(sc.co, a)
				}
			}
		}
	}
	return sc.co
}

// retain buckets c, a candidate of depth d, for the scan; the
// two-dimensional calcPred also resolves its bounds through seen.
func (sc *Scratch) retain(c Candidate, d int, twoD bool) {
	if twoD {
		sc.seen.Put(c.Prefix, int32(len(sc.bounds)))
		sc.bounds = append(sc.bounds, boundsPair{upper: c.Upper, lower: c.Lower})
	}
	sc.byLevel[d] = append(sc.byLevel[d], c)
}

// Trim drops any internal buffer whose capacity exceeds limit
// entries, so a pooled Scratch that served one pathologically wide
// query (an overflow-table blow-up) does not pin its high-water
// memory forever.
func (sc *Scratch) Trim(limit int) {
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
	if cap(sc.bounds) > limit {
		sc.bounds = nil
	}
	if cap(sc.selected) > limit {
		sc.selected = nil
	}
	if cap(sc.closest) > limit {
		sc.closest = nil
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
		for _, c := range sc.byLevel[level] {
			var pred float64
			if twoD {
				pred = calcPred(est, sc, c.Prefix, selected)
			} else {
				pred = calcPred1D(sc, c.Prefix, selected)
			}
			cond := c.Upper + pred + compensation
			if cond >= threshold {
				if !twoD {
					// c now shadows its closest descendants for every
					// later (more general) candidate.
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

// cachedLower returns h's cached lower bound; every selected prefix
// was scanned (and cached) at an earlier point of the level scan, so
// the estimator is only consulted for prefixes outside the candidate
// set.
func cachedLower(est Estimator, sc *Scratch, h hierarchy.Prefix) float64 {
	if slot, ok := sc.seen.Get(h); ok && slot >= 0 {
		return sc.bounds[slot].lower
	}
	_, lower := est.Bounds(h)
	return lower
}

// calcPred returns the (negative) correction from already-selected
// descendants in two dimensions: Algorithm 3 subtracts each closest
// descendant's lower bound; Algorithm 4 additionally adds back
// unshadowed pairwise glbs. Bounds of candidate prefixes come from
// the Scratch cache; only non-candidate glb prefixes query the
// estimator. (One-dimensional hierarchies use calcPred1D, which
// exploits the chain structure of 1D ancestry.)
func calcPred(est Estimator, sc *Scratch, p hierarchy.Prefix, selected []hierarchy.Prefix) float64 {
	sc.closest = hierarchy.Closest(p, selected, sc.closest)
	G := sc.closest
	r := 0.0
	for _, h := range G {
		r -= cachedLower(est, sc, h)
	}
	if len(G) < 2 {
		return r
	}
	for i := 0; i < len(G); i++ {
		for j := i + 1; j < len(G); j++ {
			q, ok := hierarchy.GLB(G[i], G[j])
			if !ok {
				continue
			}
			// Algorithm 4's ∄h3 guard. Note: the paper writes "q ⪯ h3"
			// (q generalizes h3), which is vacuous — a descendant of
			// glb(h, h') descends from h, so it can never be another
			// *maximal* member of G. The inclusion-exclusion-correct
			// reading, implemented here, skips the add-back when a
			// third member of G generalizes the glb: the (h, h')
			// overlap then lies entirely inside h3, and the (h, h3)
			// and (h', h3) pairs already restore it exactly once.
			shadowed := false
			for t, h3 := range G {
				if t == i || t == j {
					continue
				}
				if h3.Generalizes(q) {
					shadowed = true
					break
				}
			}
			if !shadowed {
				if slot, ok := sc.seen.Get(q); ok && slot >= 0 {
					r += sc.bounds[slot].upper
				} else {
					upper, _ := est.Bounds(q)
					r += upper
				}
			}
		}
	}
	return r
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
