// Snapshot: the read plane's point-in-time capture of a Memento
// sketch. A Snapshot is taken under whatever lock guards the sketch
// (internal/shard holds its shard lock exactly for the duration of
// SnapshotInto) and then answers every query lock-free on immutable
// data: the overflow table and Space Saving state are flat-slab
// copies (keyidx/spacesaving CopyInto), so capture cost is a few
// memmoves regardless of how expensive the query that follows is.
//
// Snapshots are designed for reuse: SnapshotInto into the same
// Snapshot recycles its slabs, so a pooled Snapshot makes the whole
// query path allocation-free in steady state. A Snapshot must not be
// shared between concurrent queries (pool them like internal/shard
// does); distinct Snapshots are independent.

package core

import (
	"math"

	"memento/internal/keyidx"
	"memento/internal/spacesaving"
)

// Snapshot is an immutable point-in-time copy of a Sketch's queryable
// state: the overflow table B, the in-frame Space Saving counters,
// and the scale/window/update scalars. The zero value is empty and
// ready for SnapshotInto.
type Snapshot[K comparable] struct {
	overflow    keyidx.Counts[K]
	y           spacesaving.Sketch[K]
	blockCounts uint64
	scale       float64
	window      uint64
	updates     uint64
	hash        func(K) uint64 // the sketch's shared hasher, nil if none

	// counters is the source sketch's counter budget k. It can exceed
	// y's slab capacity on decoded snapshots: the decoder sizes y by
	// the entries actually present (bounding allocation by the record
	// size) while preserving the saturated/unsaturated distinction
	// Min() depends on, and keeps the declared budget here for
	// Counters(), the config digest, and RestoreFrom validation.
	counters int

	// Restore plane: the block ring, frame position and update
	// breakdown, captured by CheckpointInto only (SnapshotInto leaves
	// it absent — the query plane never pays for it). Only snapshots
	// carrying it can rehydrate a live sketch (RestoreFrom) or encode
	// with codec.FlagRestore.
	full         bool
	untilBlock   uint64
	blocksLeft   int
	fullCount    uint64
	forcedDrains uint64
	queues       [][]K // ring queues oldest→current, undrained entries
}

// SnapshotInto captures the sketch's queryable state into snap,
// reusing snap's buffers. Call it under the lock guarding the sketch;
// everything snap answers afterwards is lock-free. Cost is O(k) slab
// copies — independent of the number of queries the snapshot serves.
//
//memento:noalloc
func (s *Sketch[K]) SnapshotInto(snap *Snapshot[K]) {
	s.overflow.CopyInto(&snap.overflow)
	s.y.CopyInto(&snap.y)
	snap.blockCounts = s.blockCounts
	snap.scale = s.scale
	snap.window = s.window
	snap.updates = s.updates
	snap.hash = s.hash
	snap.counters = s.k
	snap.full = false // query-plane capture; CheckpointInto adds the rest
}

// CheckpointInto is SnapshotInto plus the restore plane: the block
// ring's undrained queues, the frame position, and the update
// breakdown. A snapshot captured this way can rehydrate a live sketch
// (RestoreFrom) and encodes with codec.FlagRestore. Still a few slab
// copies — call it under the lock guarding the sketch.
//
//memento:noalloc
func (s *Sketch[K]) CheckpointInto(snap *Snapshot[K]) {
	s.SnapshotInto(snap)
	snap.full = true
	snap.untilBlock = s.untilBlock
	snap.blocksLeft = s.blocksLeft
	snap.fullCount = s.fullCount
	snap.forcedDrains = s.forcedDrains
	s.ring.copyInto(&snap.queues)
}

// Counters returns k, the counter budget of the source sketch.
func (snap *Snapshot[K]) Counters() int { return snap.counters }

// FullUpdates returns the source's Full-update count at capture time;
// meaningful only on checkpoint-plane snapshots.
func (snap *Snapshot[K]) FullUpdates() uint64 { return snap.fullCount }

// OverflowEntries returns the number of keys in the captured overflow
// table.
func (snap *Snapshot[K]) OverflowEntries() int { return snap.overflow.Len() }

// Restorable reports whether the snapshot carries the restore plane
// (captured by CheckpointInto or decoded from a FlagRestore record).
func (snap *Snapshot[K]) Restorable() bool { return snap.full }

// EffectiveWindow returns the window the source sketch maintained.
func (snap *Snapshot[K]) EffectiveWindow() int { return int(snap.window) }

// Updates returns the source sketch's update count at capture time.
// The sharded front-end computes its skew correction from these
// captured counts, so one query uses one consistent traffic split.
func (snap *Snapshot[K]) Updates() uint64 { return snap.updates }

// Scale returns the query scale factor of the source sketch.
func (snap *Snapshot[K]) Scale() float64 { return snap.scale }

// Query is Sketch.Query against the captured state.
func (snap *Snapshot[K]) Query(x K) float64 {
	if snap.hash != nil {
		return queryEstimate(&snap.overflow, &snap.y, snap.blockCounts, snap.scale, x, snap.hash(x))
	}
	if b, ok := snap.overflow.Get(x); ok {
		return snap.overflowUpper(b, snap.y.Query(x))
	}
	return snap.monitoredUpper(snap.y.Query(x))
}

// QueryBounds is Sketch.QueryBounds against the captured state.
func (snap *Snapshot[K]) QueryBounds(x K) (upper, lower float64) {
	return snap.boundsFrom(snap.Query(x))
}

// Bounds implements hhhset.Estimator against the captured state.
func (snap *Snapshot[K]) Bounds(x K) (upper, lower float64) { return snap.QueryBounds(x) }

// Overflowed is Sketch.Overflowed against the captured state. Unlike
// the live iteration, fn runs with no lock held anywhere.
func (snap *Snapshot[K]) Overflowed(fn func(key K, overflows int32) bool) {
	for _, e := range snap.overflow.Entries() {
		if !fn(e.Key, e.Val) {
			return
		}
	}
}

// ForEachEstimate calls fn once for every key the snapshot has state
// for — the union of the overflow table and the monitored counters,
// each key exactly once — with the same (upper, lower) bounds
// QueryBounds would return for it.
func (snap *Snapshot[K]) ForEachEstimate(fn func(key K, upper, lower float64) bool) {
	snap.ForEachAbove(math.Inf(-1), fn)
}

// ForEachAbove is ForEachEstimate restricted to the keys whose upper
// bound is at least floor, and returns the number of keys it swept
// (every key the snapshot has state for, unless fn stopped it). It
// is phase 1 of the merged read plane: one linear pass per partition
// that hands on only the keys heavy enough to matter. An overflow key
// with b overflows has upper < scale·blockCounts·(b+3), so most keys
// are rejected on the table entry alone, before the Space Saving
// probe.
func (snap *Snapshot[K]) ForEachAbove(floor float64, fn func(key K, upper, lower float64) bool) (swept int) {
	block := snap.scale * float64(snap.blockCounts)
	// Overflow keys first, straight off the entry slab: their estimate
	// combines b with the in-frame count, and only the few that pass the
	// test on b are hashed for the Space Saving probe.
	for _, e := range snap.overflow.Entries() {
		swept++
		if block*float64(e.Val+3) < floor {
			continue
		}
		u, l := snap.boundsFrom(snap.overflowUpper(e.Val, snap.y.Query(e.Key)))
		if u >= floor && !fn(e.Key, u, l) {
			return swept
		}
	}
	// Monitored counters not already covered by the overflow pass.
	snap.y.Iterate(func(c spacesaving.Counter[K]) bool {
		if _, inOverflow := snap.overflow.Get(c.Key); inOverflow {
			return true
		}
		swept++
		u, l := snap.boundsFrom(snap.monitoredUpper(c.Count))
		return u < floor || fn(c.Key, u, l)
	})
	return swept
}

// TrackedBounds returns QueryBounds(x) and true when the snapshot has
// state for x (an overflow entry or a monitored counter) — the keys
// ForEachEstimate visits, with the bounds it reports — and false
// otherwise, when QueryBounds(x) would be AbsentBounds.
func (snap *Snapshot[K]) TrackedBounds(x K) (upper, lower float64, ok bool) {
	var b int32
	var c spacesaving.Counter[K]
	var overflowed, monitored bool
	if snap.hash != nil {
		h := snap.hash(x)
		b, overflowed = snap.overflow.GetH(x, h)
		c, monitored = snap.y.LookupHashed(x, h)
	} else {
		b, overflowed = snap.overflow.Get(x)
		c, monitored = snap.y.Lookup(x)
	}
	count := snap.y.Min() // what Space Saving answers for an unmonitored key
	if monitored {
		count = c.Count
	}
	switch {
	case overflowed:
		upper = snap.overflowUpper(b, count)
	case monitored:
		upper = snap.monitoredUpper(count)
	default:
		return 0, 0, false
	}
	upper, lower = snap.boundsFrom(upper)
	return upper, lower, true
}

// overflowUpper is the estimate of a key with b overflows in the
// window and in-frame count c.
func (snap *Snapshot[K]) overflowUpper(b int32, c uint64) float64 {
	return overflowUpper(snap.scale, snap.blockCounts, b, c)
}

// monitoredUpper is the estimate of a key with no overflow entry and
// in-frame count c (Min() for a key that is not monitored either).
func (snap *Snapshot[K]) monitoredUpper(c uint64) float64 {
	return snap.scale * (2*float64(snap.blockCounts) + float64(c))
}

// TrackedKeys returns an upper bound on the number of keys
// ForEachEstimate visits (overflow table plus monitored counters,
// before deduplication).
func (snap *Snapshot[K]) TrackedKeys() int {
	return snap.overflow.Len() + snap.y.Len()
}

// AbsentBounds returns the bounds QueryBounds yields for any key the
// snapshot has no state for (not in the overflow table, not
// monitored): the Space Saving Min-based conservative default.
func (snap *Snapshot[K]) AbsentBounds() (upper, lower float64) {
	return snap.boundsFrom(snap.monitoredUpper(snap.y.Min()))
}

// boundsFrom derives the conservative bound pair from an upper
// estimate, mirroring Sketch.boundsFrom.
func (snap *Snapshot[K]) boundsFrom(upper float64) (float64, float64) {
	lower := upper - 4*float64(snap.blockCounts)*snap.scale
	if lower < 0 {
		lower = 0
	}
	return upper, lower
}

// HeavyHitters is Sketch.HeavyHitters against the captured state.
func (snap *Snapshot[K]) HeavyHitters(theta float64, dst []Item[K]) []Item[K] {
	threshold := theta * float64(snap.window)
	for _, e := range snap.overflow.Entries() {
		// Query(e.Key) without probing B again for the entry in hand.
		if est := snap.overflowUpper(e.Val, snap.y.Query(e.Key)); est >= threshold {
			dst = append(dst, Item[K]{Key: e.Key, Estimate: est})
		}
	}
	return dst
}
