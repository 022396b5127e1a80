// table: Algorithm 1's queryable state — the in-frame Space Saving
// instance y, the overflow table B and the scalars W, k, τ·W/k and the
// scale — with the one definition of every read over it. A live
// Sketch embeds a table beside its ring, countdowns and samplers; a
// Snapshot embeds a copy of one beside the optional restore plane. So
// a snapshot — captured in-process, restored from a checkpoint or built
// from outside bytes — answers with the code the live sketch runs.

package core

import (
	"math"

	"memento/internal/keyidx"
	"memento/internal/spacesaving"
)

// table is the state Query reads. Both indexes are flat slabs held by
// value, so capturing one (copyInto) is a few memmoves into the
// destination's own slabs.
type table[K comparable] struct {
	overflow keyidx.Counts[K]      // the paper's B table: dense entry slab behind int32 buckets
	y        spacesaving.Sketch[K] // in-frame counts

	// k is the number of blocks / counters. On a snapshot built from
	// outside bytes it can exceed y's slab capacity: Snapshot.build
	// sizes y by the entries actually present (bounding allocation by
	// the record size) while preserving the saturated/unsaturated
	// distinction Min() depends on, and keeps the declared budget here
	// for Counters(), the config digest and RestoreFrom validation.
	k           int
	window      uint64  // effective window (k · W/k)
	blockCounts uint64  // overflow threshold in sampled counts (τ·W/k)
	scale       float64 // query scale factor (1/τ, or V for H-Memento)
	updates     uint64  // total updates (diagnostics, skew weights)

	// hash is the one key hasher both indexes were built under, never
	// nil: every read hashes a key once and probes B and y with the
	// same value.
	hash func(K) uint64
}

// copyInto captures the table into dst, reusing dst's slabs: O(k) slab
// copies, nothing per key, and every scalar the table has or gains.
//
//memento:noalloc
func (t *table[K]) copyInto(dst *table[K]) {
	overflow, y := dst.overflow, dst.y // dst's own slabs, refilled in place
	t.overflow.CopyInto(&overflow)
	t.y.CopyInto(&y)
	*dst = *t
	dst.overflow, dst.y = overflow, y
}

// EffectiveWindow returns the window actually maintained: Window
// rounded up to a multiple of the block count.
func (t *table[K]) EffectiveWindow() int { return int(t.window) }

// Counters returns k, the number of Space Saving counters (= blocks).
func (t *table[K]) Counters() int { return t.k }

// Scale returns the query scale factor.
func (t *table[K]) Scale() float64 { return t.scale }

// BlockCounts returns the overflow threshold in sampled counts
// (τ·W/k; see the package comment on units).
func (t *table[K]) BlockCounts() uint64 { return t.blockCounts }

// Updates returns the total number of updates processed (at capture
// time, on a snapshot). The sharded front-end computes its skew
// correction from captured counts, so one query uses one consistent
// traffic split.
func (t *table[K]) Updates() uint64 { return t.updates }

// Items returns the number of in-frame Space Saving additions (the
// counter Flush resets each frame).
func (t *table[K]) Items() uint64 { return t.y.Items() }

// Slots returns how many Space Saving slots are in use; Slot(i) is
// valid for 0 ≤ i < Slots(). A capture is a slab copy, so slot numbers
// on a snapshot mean what they meant on its source.
func (t *table[K]) Slots() int { return t.y.Len() }

// Slot returns the monitored counter in Space Saving slot i (see
// spacesaving.Sketch.Slot for what a slot number identifies).
//
//memento:noalloc
func (t *table[K]) Slot(i int) spacesaving.Counter[K] { return t.y.Slot(i) }

// SlotOf returns the Space Saving slot monitoring x, -1 if none.
//
//memento:noalloc
func (t *table[K]) SlotOf(x K) int { return t.y.SlotOfHashed(x, t.hash(x)) }

// DeltaProbe returns the replicable state of one key that is not
// being addressed by slot: the slot monitoring x (-1 if none) and its
// overflow-table value (0 if absent), from one hash of x.
//
//memento:noalloc
func (t *table[K]) DeltaProbe(x K) (slot int, b int32) {
	h := t.hash(x)
	b, _ = t.overflow.GetH(x, h)
	return t.y.SlotOfHashed(x, h), b
}

// OverflowCount returns x's overflow-table value, 0 if absent.
//
//memento:noalloc
func (t *table[K]) OverflowCount(x K) int32 {
	b, _ := t.overflow.Get(x)
	return b
}

// OverflowEntries returns the number of keys in the overflow table.
func (t *table[K]) OverflowEntries() int { return t.overflow.Len() }

// Query returns the (one-sided) estimate of x's frequency within the
// last EffectiveWindow() packets (Algorithm 1, lines 22-25). The
// estimate overshoots by design (≤ (εa+εs)·W with the configured
// parameters) so that, like MST, Memento has no false negatives.
//
// The key is hashed once and the same value probes both the overflow
// table and the Space Saving index. Query paths run hot in the
// on-arrival setting (Figure 8; internal/detect estimates on every
// packet), so the saved hash is measurable.
//
//memento:noalloc
func (t *table[K]) Query(x K) float64 {
	h := t.hash(x)
	c := t.y.QueryHashed(x, h)
	if b, ok := t.overflow.GetH(x, h); ok {
		return t.overflowUpper(b, c)
	}
	return t.monitoredUpper(c)
}

// overflowUpper is the Algorithm 1 estimate of a key with b overflows
// in the window and in-frame count c.
func (t *table[K]) overflowUpper(b int32, c uint64) float64 {
	return t.scale * (float64(t.blockCounts)*float64(b+2) + float64(c%t.blockCounts))
}

// monitoredUpper is the estimate of a key with no overflow entry and
// in-frame count c (Min() for a key that is not monitored either).
func (t *table[K]) monitoredUpper(c uint64) float64 {
	return t.scale * (2*float64(t.blockCounts) + float64(c))
}

// QueryBounds returns conservative upper and lower bounds on x's
// window frequency: Upper = Query(x), Lower = max(0, Upper − εa·W)
// where εa·W = 4·W/k is the algorithmic error band. H-Memento's
// conditioned-frequency computation (Algorithms 3-4) subtracts Lower
// values of descendants.
//
//memento:noalloc
func (t *table[K]) QueryBounds(x K) (upper, lower float64) {
	return t.boundsFrom(t.Query(x))
}

// Bounds implements hhhset.Estimator.
func (t *table[K]) Bounds(x K) (upper, lower float64) { return t.QueryBounds(x) }

// boundsFrom derives the conservative bound pair from an upper
// estimate.
func (t *table[K]) boundsFrom(upper float64) (float64, float64) {
	lower := upper - 4*float64(t.blockCounts)*t.scale
	if lower < 0 {
		lower = 0
	}
	return upper, lower
}

// Overflowed calls fn for every key currently present in the overflow
// table B until fn returns false. Every window heavy hitter is
// guaranteed to appear (Section 4.1: "every heavy hitter must overflow
// in the window"). A live sketch must not be mutated during iteration.
func (t *table[K]) Overflowed(fn func(key K, overflows int32) bool) {
	for _, e := range t.overflow.Entries() {
		if !fn(e.Key, e.Val) {
			return
		}
	}
}

// Monitored calls fn for every in-frame Space Saving counter
// (ascending count order — Iterate's bucket order) until fn returns
// false. Unlike ForEachEstimate it exposes the raw counter with its
// error term, which is what the replication plane serializes.
func (t *table[K]) Monitored(fn func(c spacesaving.Counter[K]) bool) {
	t.y.Iterate(fn)
}

// HeavyHitters appends to dst every key whose estimated window
// frequency is at least theta·EffectiveWindow(), with its estimate,
// and returns dst, in overflow-table order. theta is the paper's
// θ ∈ (0, 1). Like ForEachAbove it visits only the overflow entries
// whose b can reach the threshold and rejects on b alone before the
// Space Saving probe.
func (t *table[K]) HeavyHitters(theta float64, dst []Item[K]) []Item[K] {
	threshold := theta * float64(t.window)
	block := t.scale * float64(t.blockCounts)
	t.overflow.ForEachAtLeast(t.overflowCut(threshold), func(_ int, e keyidx.Count[K]) bool {
		if block*float64(e.Val+3) < threshold {
			return true
		}
		// Query(e.Key) without probing B again for the entry in hand.
		if est := t.overflowUpper(e.Val, t.y.Query(e.Key)); est >= threshold {
			dst = append(dst, Item[K]{Key: e.Key, Estimate: est})
		}
		return true
	})
	return dst
}

// overflowCut returns a count of overflows below which no overflow
// entry's upper bound reaches floor. A key with b overflows has upper <
// scale·blockCounts·(b+3), so b < floor/(scale·blockCounts) − 3 fails;
// one less again absorbs the rounding of that quotient. It is only a
// lower bound: callers keep the exact test on every entry they visit,
// so rounding can make them visit more entries, never drop one.
func (t *table[K]) overflowCut(floor float64) int32 {
	cut := floor/(t.scale*float64(t.blockCounts)) - 4
	switch {
	case cut >= math.MaxInt32:
		return math.MaxInt32
	case cut > math.MinInt32:
		return int32(cut)
	}
	return math.MinInt32 // and NaN: no cut
}

// monitoredCut returns a counter value below which no monitored
// counter's upper bound, scale·(2·blockCounts + count), reaches floor,
// less one for rounding (see overflowCut).
func (t *table[K]) monitoredCut(floor float64) uint64 {
	cut := floor/t.scale - 2*float64(t.blockCounts) - 1
	switch {
	case cut >= 1<<63:
		return 1 << 63
	case cut > 0:
		return uint64(cut)
	}
	return 0 // and NaN: no cut
}

// ForEachEstimate calls fn once for every key the table has state
// for — the union of the overflow table and the monitored counters,
// each key exactly once — with the same (upper, lower) bounds
// QueryBounds would return for it.
func (t *table[K]) ForEachEstimate(fn func(key K, upper, lower float64) bool) {
	t.ForEachAbove(math.Inf(-1), fn)
}

// ForEachAbove is ForEachEstimate restricted to the keys whose upper
// bound is at least floor, and returns the number of table entries it
// judged: every overflow entry and every monitored counter, so a key
// in both counts twice (TrackedKeys()), whether judged one by one or
// rejected in bulk. If fn stops it, the count runs to that key, in
// ForEachEstimate's order. It is phase 1 of the merged read plane: one
// pass per partition that hands on only the keys heavy enough to
// matter, and it visits only the entries that can pass. An overflow
// key with b overflows has upper < scale·blockCounts·(b+3), so when
// the floor asks for more overflows than B's heavy tier starts at,
// only the tier is ranged; every entry visited is tested on b before
// its Space Saving probe. A monitored counter's estimate grows with its
// count, so Space Saving is walked down from its largest count to the
// first that fails, and each counter visited is tested on its own
// estimate before its B probe. fn sees the keys in the order a range
// over every entry would hand them on.
func (t *table[K]) ForEachAbove(floor float64, fn func(key K, upper, lower float64) bool) (swept int) {
	return t.forEachAboveH(floor, func(key K, _ uint64, upper, lower float64) bool {
		return fn(key, upper, lower)
	})
}

// forEachAboveH is ForEachAbove handing fn, with each key, the hash
// the sweep probed with: the table's own hash of the key.
func (t *table[K]) forEachAboveH(floor float64, fn func(key K, h uint64, upper, lower float64) bool) (swept int) {
	block := t.scale * float64(t.blockCounts)
	// Overflow keys first, straight off the entry slab: their estimate
	// combines b with the in-frame count, and only the few that pass the
	// test on b are hashed for the Space Saving probe.
	done := t.overflow.ForEachAtLeast(t.overflowCut(floor), func(p int, e keyidx.Count[K]) bool {
		if block*float64(e.Val+3) < floor {
			return true
		}
		h := t.hash(e.Key)
		u, l := t.boundsFrom(t.overflowUpper(e.Val, t.y.QueryHashed(e.Key, h)))
		if u >= floor && !fn(e.Key, h, u, l) {
			swept = p + 1
			return false
		}
		return true
	})
	if !done {
		return swept
	}
	swept = t.overflow.Len()
	// Monitored counters not already covered by the overflow pass. One
	// below the floor is skipped before the B probe: if it has no
	// overflow entry its bound is this one, and if it has, the overflow
	// pass above already handled it.
	minCount := t.monitoredCut(floor)
	visited, stopped := 0, false
	t.y.IterateAtLeast(minCount, func(c spacesaving.Counter[K]) bool {
		visited++
		u, l := t.boundsFrom(t.monitoredUpper(c.Count))
		if u < floor {
			return true
		}
		h := t.hash(c.Key)
		if _, inOverflow := t.overflow.GetH(c.Key, h); inOverflow {
			return true
		}
		stopped = !fn(c.Key, h, u, l)
		return !stopped
	})
	if stopped {
		// Iterate's order puts every counter the walk skipped first.
		passing := 0
		t.y.IterateAtLeast(minCount, func(spacesaving.Counter[K]) bool { passing++; return true })
		return swept + t.y.Len() - passing + visited
	}
	return swept + t.y.Len()
}

// trackedBoundsH returns QueryBounds(x) and true when the table has
// state for x (an overflow entry or a monitored counter) — the keys
// ForEachEstimate visits, with the bounds it reports — and false
// otherwise, when QueryBounds(x) would be AbsentBounds. h must equal
// the table's hash of x: a read over several tables built under one
// hasher hashes x once for all of them.
//
//memento:noalloc
func (t *table[K]) trackedBoundsH(x K, h uint64) (upper, lower float64, ok bool) {
	b, overflowed := t.overflow.GetH(x, h)
	c, monitored := t.y.LookupHashed(x, h)
	count := t.y.Min() // what Space Saving answers for an unmonitored key
	if monitored {
		count = c.Count
	}
	switch {
	case overflowed:
		upper = t.overflowUpper(b, count)
	case monitored:
		upper = t.monitoredUpper(count)
	default:
		return 0, 0, false
	}
	upper, lower = t.boundsFrom(upper)
	return upper, lower, true
}

// TrackedKeys returns an upper bound on the number of keys
// ForEachEstimate visits (overflow table plus monitored counters,
// before deduplication).
func (t *table[K]) TrackedKeys() int { return t.overflow.Len() + t.y.Len() }

// AbsentBounds returns the bounds QueryBounds yields for any key the
// table has no state for (not in the overflow table, not monitored):
// the Space Saving Min-based conservative default.
func (t *table[K]) AbsentBounds() (upper, lower float64) {
	return t.boundsFrom(t.monitoredUpper(t.y.Min()))
}
