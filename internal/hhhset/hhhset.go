// Package hhhset implements the hierarchical-heavy-hitter set
// computation shared by every HHH algorithm in this repository
// (H-Memento, MST, RHHH and the window Baseline): the level-by-level
// scan with conservative conditioned frequencies of paper Algorithm 2
// (lines 3-10), using calcPred from Algorithm 3 in one dimension and
// Algorithm 4 (glb inclusion-exclusion) in two.
//
// The algorithms differ only in how they estimate prefix frequencies
// and which additive compensation accounts for their sampling; both are
// abstracted behind the Estimator interface. Callers that already hold
// per-candidate bounds (the snapshot query plane) skip the estimator on
// the scan via ComputeCandidates, which also scans only the candidates
// that can still be selected (see there).
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
// computed, for ComputeCandidates.
type Candidate struct {
	Prefix       hierarchy.Prefix
	Upper, Lower float64
}

// Scratch holds the working state of the HHH-set computation so
// repeated queries reuse it instead of allocating per call: the
// per-level candidate buckets, a flat dedup index, the per-candidate
// bounds cache, the selected-walk buffers, and the ancestor counts of
// the pre-filter. The zero value is ready; each Estimator-owning
// algorithm keeps one and passes it to ComputeInto/ComputeCandidates.
// A Scratch must not be shared between concurrent queries.
type Scratch struct {
	byLevel  [][]Candidate
	seen     *keyidx.Index[hierarchy.Prefix]
	bounds   []boundsPair
	selected []hierarchy.Prefix
	closest  []hierarchy.Prefix

	// Pre-filter (see ComputeCandidates): below maps a prefix to the
	// number of retained candidates it strictly generalizes, co lists
	// the prefixes that reached two, ancestors is the enumeration
	// buffer.
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
// does not matter. The returned set is deterministic for a given input.
func Compute(h hierarchy.Hierarchy, est Estimator, candidates []hierarchy.Prefix, threshold, compensation float64) []Entry {
	var sc Scratch
	return ComputeInto(h, est, candidates, threshold, compensation, &sc, nil)
}

// ComputeInto is Compute through caller-owned scratch: intermediate
// state lives in sc and the result is appended to dst. After the
// first call on a given sc, the query path performs no allocation
// beyond what dst needs. The estimator is consulted exactly once per
// unique in-domain candidate.
func ComputeInto(h hierarchy.Hierarchy, est Estimator, candidates []hierarchy.Prefix, threshold, compensation float64, sc *Scratch, dst []Entry) []Entry {
	levels := sc.resetLevels(h)
	if sc.seen == nil || sc.seen.Cap() < len(candidates) {
		sc.seen = keyidx.MustNew(max(len(candidates), 16), hierarchy.PrefixHasher(0))
	} else {
		sc.seen.Flush()
	}
	// Dedup candidates into their levels; each unique in-domain
	// candidate gets a slot in the bounds cache (seen stores the slot;
	// -1 marks out-of-domain prefixes that are deduped but never
	// scanned) and its bounds are computed exactly once, here.
	sc.bounds = sc.bounds[:0]
	for _, p := range candidates {
		if _, ok := sc.seen.Get(p); ok {
			continue
		}
		d := h.Depth(p)
		if d >= 0 && d < levels {
			upper, lower := est.Bounds(p)
			sc.retain(Candidate{Prefix: p, Upper: upper, Lower: lower}, d, true)
		} else {
			sc.seen.Put(p, -1)
		}
	}
	return scan(h, est, threshold, compensation, sc, dst)
}

// ComputeCandidates is the scan over candidates whose bounds the
// caller already computed. Candidates must be pairwise distinct; order
// does not matter and the output matches ComputeInto over the same
// set. est must agree with the carried bounds on the candidates; it is
// consulted only for the two-dimensional glb add-back, and only for
// prefixes the scan did not retain.
//
// Only candidates that can still be selected are bucketed and
// scanned. A "low" candidate, Upper + compensation < threshold, needs
// a positive calcPred to be selected. One-dimensional calcPred only
// subtracts, so low candidates are dropped. Two-dimensional calcPred
// is positive only through a glb add-back, which takes two selected
// strict descendants; every selected prefix is high or, by induction
// on depth, sits above two high ones, so a low candidate is retained
// exactly when it strictly generalizes two high candidates. Dropped
// candidates are never selected and so never influence another
// prefix's conditioned frequency: the result equals the scan over the
// full list.
func ComputeCandidates(h hierarchy.Hierarchy, est Estimator, candidates []Candidate, threshold, compensation float64, sc *Scratch, dst []Entry) []Entry {
	levels, twoD := sc.reset(h)
	cut := threshold - compensation
	low := 0
	for _, c := range candidates {
		d := h.Depth(c.Prefix)
		if d < 0 || d >= levels {
			continue
		}
		if c.Upper >= cut {
			sc.retain(c, d, twoD)
		} else {
			low++
		}
	}
	if twoD && low > 0 && sc.coAncestors() > 0 {
		for _, c := range candidates {
			if c.Upper >= cut {
				continue
			}
			if n, _ := sc.below.Get(c.Prefix); n >= 2 {
				if d := h.Depth(c.Prefix); d >= 0 && d < levels {
					sc.retain(c, d, twoD)
				}
			}
		}
	}
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
// candidates the scan can select — the prefixes that strictly
// generalize two members of high, a few dozen per member at most —
// are looked up in t. The output matches ComputeCandidates over the
// full candidate list.
func ComputeTracked(h hierarchy.Hierarchy, t Tracker, high []Candidate, threshold, compensation float64, sc *Scratch, dst []Entry) []Entry {
	levels, twoD := sc.reset(h)
	for _, c := range high {
		if d := h.Depth(c.Prefix); d >= 0 && d < levels {
			sc.retain(c, d, twoD)
		}
	}
	if twoD && sc.coAncestors() > 0 {
		for _, p := range sc.co {
			if _, ok := sc.seen.Get(p); ok {
				continue
			}
			if upper, lower, ok := t.Tracked(p); ok {
				sc.retain(Candidate{Prefix: p, Upper: upper, Lower: lower}, h.Depth(p), twoD)
			}
		}
	}
	return scan(h, t, threshold, compensation, sc, dst)
}

// reset clears the per-level buckets and, in two dimensions, the
// prefix→bounds index the glb cache resolves through (1D never
// consults it and skips the index maintenance entirely).
func (sc *Scratch) reset(h hierarchy.Hierarchy) (levels int, twoD bool) {
	levels = sc.resetLevels(h)
	twoD = h.Dims() == 2
	if twoD {
		if sc.seen == nil {
			sc.seen = keyidx.MustNew(64, hierarchy.PrefixHasher(0))
		} else {
			sc.seen.Flush()
		}
		sc.bounds = sc.bounds[:0]
	}
	return levels, twoD
}

// coAncestors fills below with, for every strict ancestor of a
// retained candidate, the number of retained candidates under it, and
// co with the ancestors that have two or more (each once; they may be
// retained themselves). It returns len(co).
func (sc *Scratch) coAncestors() int {
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
	return len(sc.co)
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

// resetLevels sizes and clears the per-level buckets.
func (sc *Scratch) resetLevels(h hierarchy.Hierarchy) int {
	levels := h.Levels()
	if cap(sc.byLevel) < levels {
		sc.byLevel = make([][]Candidate, levels)
	}
	sc.byLevel = sc.byLevel[:levels]
	for i := range sc.byLevel {
		sc.byLevel[i] = sc.byLevel[i][:0]
	}
	return levels
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
