// Merger: the merged-estimate math behind every multi-partition HHH
// read, factored out of the shard front-end so that any collection of
// independent H-Memento snapshots can be combined the same way — this
// process's shards (HHH.OutputTo), chain states of remote agents
// (netwide's delta report mode), or checkpoint files
// saved by independent nodes (cmd/mementoctl merge).

package shard

import (
	"math"

	"memento/internal/core"
	"memento/internal/hierarchy"
)

// Merger combines point-in-time H-Memento snapshots from independent
// partitions of one stream into a global HHH set. The partitions may
// be this process's shards, remote measurement points, or saved
// checkpoints — anything whose update streams are disjoint slices of
// the same traffic. The Merger derives the merged window, the
// compensation and each partition's skew correction; the estimator
// and the HHH-set query over the weighted snapshots are
// core.SnapshotSet's, whose scratch is reused across calls, so
// steady-state merging allocates only what the caller's dst needs.
// A Merger is not safe for concurrent use; pool it like the shard
// front-end pools its query state.
type Merger struct {
	set    core.SnapshotSet
	scales []float64
	window int     // merged effective window: Σ per-snapshot windows
	comp   float64 // merged sampling compensation: √(Σ compᵢ²)
}

// Window returns the merged effective window of the last Output call.
func (m *Merger) Window() int { return m.window }

// Compensation returns the merged sampling compensation of the last
// Output call.
func (m *Merger) Compensation() float64 { return m.comp }

// Prepare derives the merged window, compensation and per-partition
// skew corrections from the captured snapshots, so Bounds can serve
// point queries outside an Output call — the audit plane compares
// exact per-key counts against merged fleet bounds without paying for
// an HHH-set computation. Pair with Release (Output releases
// implicitly); Bounds is only meaningful in between. Per-partition
// sampling errors are independent, so their variances add: the merged
// compensation is the root sum of squares. The traffic split comes
// from the captured update counts, so one merge uses one consistent
// split.
func (m *Merger) Prepare(snaps []*core.HHHSnapshot) {
	if cap(m.scales) < len(snaps) {
		//memento:allow alloc "grows once per partition-count change; reused across merges"
		m.scales = make([]float64, len(snaps))
	} else {
		m.scales = m.scales[:len(snaps)]
	}
	m.window = 0
	var varSum float64
	var total uint64
	for _, snap := range snaps {
		m.window += snap.EffectiveWindow()
		varSum += snap.Compensation() * snap.Compensation()
		total += snap.Updates()
	}
	m.comp = math.Sqrt(varSum)
	for i, snap := range snaps {
		m.scales[i] = scaleFrom(snap.Updates(), snap.EffectiveWindow(), total, m.window)
	}
	m.set.Reset(snaps, m.scales)
}

// Release drops the snapshot references Prepare retained so their
// slabs are not pinned between merges.
func (m *Merger) Release() { m.set.Reset(nil, nil) }

// Bounds implements hhhset.Estimator over the merged snapshots: the
// sum of skew-corrected per-partition bounds.
func (m *Merger) Bounds(p hierarchy.Prefix) (upper, lower float64) { return m.set.Bounds(p) }

// Output merges snaps into the global approximate HHH set for
// threshold theta, appending to dst. hier is the shared prefix domain
// (every snapshot must come from an instance over the same
// hierarchy). Candidates are the union of per-partition tracked
// prefixes, estimated against the merged bounds with the
// root-sum-of-squares sampling compensation; core.SnapshotSet.Output
// finds the set while resolving only the prefixes heavy enough to
// matter, in one and two dimensions alike. Everything runs on the
// immutable snapshots — no locks, no mutation of the sources.
func (m *Merger) Output(hier hierarchy.Hierarchy, snaps []*core.HHHSnapshot, theta float64, dst []core.HeavyPrefix) []core.HeavyPrefix {
	if len(snaps) == 0 {
		return dst
	}
	m.Prepare(snaps)
	dst = m.set.Output(hier, theta*float64(m.window), m.comp, dst)
	m.Release() // don't pin snapshot slabs between calls
	return dst
}

// Selectivity reports the last Output's sweep counts (see
// core.SnapshotSet.Selectivity).
func (m *Merger) Selectivity() (swept, admitted int) { return m.set.Selectivity() }

// Trim caps every retained scratch capacity at limit, the pool
// hygiene hook mirroring hhhset.Scratch.Trim.
func (m *Merger) Trim(limit int) { m.set.Trim(limit) }
