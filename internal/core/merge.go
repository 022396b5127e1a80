// SnapshotSet: the merged read plane. Any collection of H-Memento
// snapshots whose update streams are disjoint slices of one stream —
// a process's shards, a fleet's agents, checkpoint files, or a single
// instance (n = 1) — is read as one estimator, and the HHH set is
// computed from it with work proportional to the heavy keys rather
// than the tracked ones.

package core

import (
	"math"

	"memento/internal/hhhset"
	"memento/internal/hierarchy"
	"memento/internal/keyidx"
)

// SnapshotSet reads weighted H-Memento snapshots as one estimator: a
// prefix's bounds are Σ weightᵢ·boundsᵢ(p), where a member that has no
// state for p contributes its absent-key default. The weights are the
// caller's (internal/shard derives skew corrections from the captured
// update counts; a lone snapshot weighs 1). All scratch is owned by
// the set and reused across calls, so steady-state queries allocate
// only what the caller's dst needs. Not safe for concurrent use.
type SnapshotSet struct {
	snaps   []*HHHSnapshot
	weights []float64

	// Per member, the weighted absent-key bounds, and their totals: a
	// prefix's merged bounds are the tracked members' contributions
	// plus the totals minus those same members' defaults.
	defU, defL           []float64 //memento:reused (one per member)
	totalDefU, totalDefL float64

	// One Output's working state: the heavy candidates handed to the
	// HHH-set scan with their merged bounds, and the index that keeps a
	// prefix several members admit from being resolved into it twice.
	cands []hhhset.Candidate //memento:reused (query scratch, Trim-capped)
	held  *keyidx.Index[hierarchy.Prefix]
	sc    hhhset.Scratch

	swept, admitted int
}

// Reset points the set at snaps with the given per-member weights
// (both retained, not copied). Reset(nil, nil) drops the references
// so the snapshots' slabs are not pinned between queries.
func (s *SnapshotSet) Reset(snaps []*HHHSnapshot, weights []float64) {
	s.snaps, s.weights = snaps, weights
	s.defU, s.defL = s.defU[:0], s.defL[:0]
	s.totalDefU, s.totalDefL = 0, 0
	for i, snap := range snaps {
		du, dl := snap.AbsentBounds()
		du *= weights[i]
		dl *= weights[i]
		s.defU = append(s.defU, du)
		s.defL = append(s.defL, dl)
		s.totalDefU += du
		s.totalDefL += dl
	}
}

// Bounds implements hhhset.Estimator over the set.
func (s *SnapshotSet) Bounds(p hierarchy.Prefix) (upper, lower float64) {
	upper, lower, _ = s.Tracked(p)
	return upper, lower
}

// Tracked implements hhhset.Tracker: it probes every member for p and
// returns the merged bounds and whether any member has state for p
// (only such prefixes are HHH candidates).
func (s *SnapshotSet) Tracked(p hierarchy.Prefix) (upper, lower float64, tracked bool) {
	var defU, defL float64
	for i, snap := range s.snaps {
		u, l, ok := snap.TrackedBounds(p)
		if !ok {
			continue
		}
		tracked = true
		upper += u * s.weights[i]
		lower += l * s.weights[i]
		defU += s.defU[i]
		defL += s.defL[i]
	}
	return upper + (s.totalDefU - defU), lower + (s.totalDefL - defL), tracked
}

// Output appends the HHH set of the merged estimator to dst: the
// prefixes whose conservative conditioned frequency plus compensation
// reaches threshold (both in packets), chosen among the prefixes some
// member tracks. It equals hhhset.ComputeCandidates over every tracked
// prefix with its merged bounds, but touches only the heavy ones:
//
// Phase 1 sweeps each member once and admits key p from member i when
// cᵢ(p) − dᵢ ≥ (T − Σd)/n, with cᵢ the weighted tracked upper bound,
// dᵢ that member's weighted absent default and T = threshold −
// compensation. Sound: merged upper(p) = Σd + Σ_{i tracks p}(cᵢ − dᵢ),
// so upper(p) ≥ T forces one of at most n terms to reach the n-th
// part of T − Σd. When T − Σd ≤ 0 every prefix is that heavy and
// everything is admitted.
//
// Phase 2 resolves each admitted prefix against all members and keeps
// those with upper ≥ T; hhhset.ComputeTracked scans them, looking up
// here the few lighter prefixes a two-dimensional scan can still
// select.
func (s *SnapshotSet) Output(hier hierarchy.Hierarchy, threshold, compensation float64, dst []HeavyPrefix) []HeavyPrefix {
	s.swept, s.admitted = 0, 0
	if len(s.snaps) == 0 {
		return dst
	}
	if s.held == nil {
		//memento:allow alloc "candidate index allocated on a set's first query, then reused"
		s.held = keyidx.MustNew(256, hierarchy.PrefixHasher(0))
	} else {
		s.held.Flush()
	}
	s.cands = s.cands[:0]
	cut := threshold - compensation
	share := math.Inf(-1)
	if spare := cut - s.totalDefU; spare > 0 {
		share = spare / float64(len(s.snaps))
	}
	for i, snap := range s.snaps {
		// In the member's own units, less a rounding margin: a key on
		// the boundary is admitted, never lost.
		floor := (s.defU[i] + share) / s.weights[i]
		floor -= 1e-9 * math.Abs(floor)
		//memento:allow alloc "closure does not escape: ForEachAbove only iterates (BenchmarkOutputSteadyState gates)"
		s.swept += snap.ForEachAbove(floor, func(p hierarchy.Prefix, _, _ float64) bool {
			s.admitted++
			s.hold(p, cut)
			return true
		})
	}
	//memento:allow alloc "HHH-set scratch growth amortized by Scratch reuse (BenchmarkOutputSteadyState gates)"
	return hhhset.ComputeTracked(hier, s, s.cands, threshold, compensation, &s.sc, dst)
}

// hold makes the admitted prefix p a scan candidate if its merged
// upper bound reaches cut and it is not one already.
func (s *SnapshotSet) hold(p hierarchy.Prefix, cut float64) {
	h := s.held.Hash(p)
	if _, ok := s.held.GetH(p, h); ok {
		return
	}
	upper, lower, _ := s.Tracked(p)
	if upper < cut {
		return
	}
	s.held.InsertH(p, h)
	s.cands = append(s.cands, hhhset.Candidate{Prefix: p, Upper: upper, Lower: lower})
}

// Selectivity reports the last Output's phase-1 counts: the members'
// table entries swept (a key in both B and y is two) and the
// (key, member) pairs admitted. A ratio near 1 means the sizing has
// pushed T − Σd to ≤ 0 and the filter admits everything.
func (s *SnapshotSet) Selectivity() (swept, admitted int) { return s.swept, s.admitted }

// Trim drops every retained scratch buffer whose capacity exceeds
// limit entries, so a pooled set that served one pathologically wide
// query does not pin its high-water memory.
func (s *SnapshotSet) Trim(limit int) {
	if cap(s.cands) > limit {
		s.cands = nil
	}
	if s.held != nil && s.held.Cap() > limit {
		s.held = nil
	}
	s.sc.Trim(limit)
}
