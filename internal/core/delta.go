// Delta plane: the core-side hooks behind internal/delta's
// incremental replication. A sketch with tracking enabled records
// *where* its replicable state changed since the last drain, keyed on
// position rather than on key:
//
//   - Monitored counters are addressed by Space Saving slot. A key
//     keeps the slab slot Add gave it until it is evicted (the slot is
//     re-keyed in place) or the frame flushes, so Space Saving sets one
//     bit per touched slot in a k-bit bitmap and the encoder diffs the
//     ≤ k marked slots against a k-entry shadow in one linear scan —
//     no key is hashed or looked up to find its counter, and the keys
//     that came and went inside one interval cost nothing, because the
//     slot they passed through is examined once whatever its history.
//   - Overflow-table changes are a short log of (key, ±1): one entry
//     per overflow and per de-amortized forget, a few dozen per
//     interval (interval length / block threshold), far below the
//     number of keys touched.
//   - In-frame flushes and full Resets are counted, as before.
//
// The plane stays off the 0-alloc hot path: slot marking is one nil
// check and one OR inside spacesaving.AddHashed, the log append rides
// the overflow and pop branches only, the common WindowUpdate path is
// untouched, and draining copies ⌈k/64⌉ words plus the log.
//
// This file also provides the inverse of the diff: BuildHHHSnapshot
// assembles a queryable snapshot from explicit state, which is how a
// chain base (and a canonical copy of an applied chain) becomes
// something Query/OutputTo/RestoreFrom understand, and ApplyPatch
// writes one delta's entries into such a snapshot in place, which is
// how a follower keeps one live replica of a chain. The two are the
// validators of state that arrives from outside the process: the wire
// decoder (persist.go) parses a record into a SnapshotSpec and hands it
// to the same validator, and internal/delta parses a delta into a Patch.

package core

import (
	"errors"
	"fmt"
	"math"

	"memento/internal/codec"
	"memento/internal/hierarchy"
	"memento/internal/keyidx"
	"memento/internal/spacesaving"
)

// deltaPlane is a tracked sketch's record of the current interval;
// the slot marks live inside the Space Saving instance.
type deltaPlane[K comparable] struct {
	over    []OverflowChange[K] //memento:reused (grows to an interval's overflow churn once)
	flushes uint32
	resets  uint32
}

// log records one overflow-table increment or decrement of key.
func (p *deltaPlane[K]) log(key K, delta int32) {
	p.over = append(p.over, OverflowChange[K]{Key: key, Delta: delta})
}

// OverflowChange is one logged overflow-table change: Delta is +1 for
// an overflow, -1 for a forgotten one. A key may appear several times
// in one interval; the net of its deltas is how far its table entry
// moved.
type OverflowChange[K comparable] struct {
	Key   K
	Delta int32
}

// EnableDeltaTracking switches on the delta plane. Idempotent. Call
// DeltaDrainInto at the replication cadence to drain it.
func (s *Sketch[K]) EnableDeltaTracking() {
	if s.track != nil {
		return
	}
	s.track = &deltaPlane[K]{}
	s.y.TrackSlots()
}

// DirtySet is a drained interval: the Space Saving slots touched and
// the overflow-table changes logged between two drains, plus the
// structural events (in-frame flushes, full resets) the interval saw.
// The zero value is empty and ready for DeltaDrainInto, which recycles
// its buffers.
type DirtySet[K comparable] struct {
	marks []uint64
	deltaPlane[K]
}

// SlotMarks returns the touched-slot bitmap: bit i of word i/64 set
// means Space Saving slot i was incremented, allocated or re-keyed
// during the interval. Bits at or past the sketch's current slot count
// are stale (the frame flushed after they were set) and name nothing.
func (d *DirtySet[K]) SlotMarks() []uint64 { return d.marks }

// OverflowChanges returns the interval's overflow-table log in event
// order.
func (d *DirtySet[K]) OverflowChanges() []OverflowChange[K] { return d.over }

// Flushed reports whether the interval crossed at least one frame
// boundary (or Reset): the monitored counter set was emptied, so an
// applier must clear it before installing the carried entries.
func (d *DirtySet[K]) Flushed() bool { return d.flushes > 0 }

// WasReset reports whether Sketch.Reset ran during the interval
// (including via RestoreFrom). A reset invalidates the chain — the
// overflow table was cleared without a log entry per key — so the
// next record must be a base.
func (d *DirtySet[K]) WasReset() bool { return d.resets > 0 }

// DeltaDrainInto moves the interval since the previous drain into
// dirty and clears the live tracking state. Call it under the lock
// guarding the sketch, in the same critical section as whatever reads
// the state the interval describes (the live sketch itself, or a
// SnapshotInto/CheckpointInto copy): every mutation is then in either
// the previous interval or the next, never both or neither.
//
//memento:noalloc
func (s *Sketch[K]) DeltaDrainInto(dirty *DirtySet[K]) error {
	if s.track == nil {
		//memento:allow alloc "error construction on the disabled-tracking cold path"
		return errors.New("core: delta tracking not enabled")
	}
	dirty.marks = s.y.DrainSlotMarks(dirty.marks)
	dirty.over = append(dirty.over[:0], s.track.over...)
	dirty.flushes, dirty.resets = s.track.flushes, s.track.resets
	s.track.over = s.track.over[:0]
	s.track.flushes, s.track.resets = 0, 0
	return nil
}

// EnableDeltaTracking switches on the delta plane of the underlying
// Memento sketch. Idempotent.
func (hh *HHH) EnableDeltaTracking() { hh.mem.EnableDeltaTracking() }

// DeltaDrainInto is Sketch.DeltaDrainInto for an H-Memento instance;
// call it under the lock guarding hh.
//
//memento:noalloc
func (hh *HHH) DeltaDrainInto(dirty *DirtySet[hierarchy.Prefix]) error {
	return hh.mem.DeltaDrainInto(dirty)
}

// RestoreSpec is the optional restore plane of a SnapshotSpec.
type RestoreSpec[K comparable] struct {
	// UntilBlock is the frame position countdown (1..W/k packets).
	UntilBlock uint64
	// BlocksLeft is the frame flush countdown (1..k blocks).
	BlocksLeft int
	// FullUpdates and ForcedDrains are the update breakdown.
	FullUpdates  uint64
	ForcedDrains uint64
	// Queues are the block-ring queues, oldest→current; exactly k+1.
	Queues [][]K
}

// SnapshotSpec is the explicit state BuildHHHSnapshot assembles into a
// queryable Snapshot — the path by which a decoded record, or the
// canonical copy of an applied delta chain (internal/delta.State),
// becomes one.
type SnapshotSpec[K comparable] struct {
	// Window, Counters, BlockCounts and Scale are the seed-independent
	// configuration (EffectiveWindow, k, τ·W/k, query scale).
	Window      uint64
	Counters    int
	BlockCounts uint64
	Scale       float64
	// Updates and Items are the capture-time counters.
	Updates uint64
	Items   uint64
	// Overflow is the overflow table B, counts positive, built under
	// prefixHash, the H-Memento tables' hasher; nil is an empty table.
	// The built snapshot takes a slab copy — no per-entry work, no
	// order.
	Overflow *keyidx.Counts[K]
	// Monitored are the in-frame Space Saving counters in ascending
	// count order, each with Err < Count.
	Monitored []spacesaving.Counter[K]
	// Restore, when non-nil, adds the restore plane: the built
	// snapshot can rehydrate a live sketch via RestoreFrom.
	Restore *RestoreSpec[K]
}

// detached returns spec holding its own copies of the overflow table
// and the restore queues, for build to move into the snapshot.
func (spec SnapshotSpec[K]) detached() SnapshotSpec[K] {
	if spec.Overflow != nil {
		ov := new(keyidx.Counts[K])
		spec.Overflow.CopyInto(ov)
		spec.Overflow = ov
	}
	if r := spec.Restore; r != nil {
		own := *r
		own.Queues = make([][]K, len(r.Queues))
		for i, q := range r.Queues {
			own.Queues[i] = append([]K(nil), q...)
		}
		spec.Restore = &own
	}
	return spec
}

// build validates spec and assembles snap over it, taking ownership of
// spec.Overflow and the restore queues (the decoder parsed them for
// this call). The Space Saving slabs are sized by the entries present
// (preserving the saturated/unsaturated Min() distinction without
// trusting a declared budget for an allocation) and its index is built
// under hash, which must be the function spec.Overflow was built under.
// Every invariant of a whole state that arrives from outside the
// process is stated here — wire records, chain bases and canonical
// copies of applied chains all pass through; ApplyPatch checks a delta
// against the same rules — and a violation is a wrapped
// codec.ErrCorrupt. On error snap is left partially filled and must be
// discarded.
func (snap *Snapshot[K]) build(spec SnapshotSpec[K], hash func(K) uint64) error {
	const maxK = 1 << 28 // spacesaving's own cap
	k := uint64(spec.Counters)
	if k == 0 || k > maxK {
		return codec.Corruptf("counter budget %d out of range", spec.Counters)
	}
	if spec.BlockCounts == 0 {
		return codec.Corruptf("zero block threshold")
	}
	if spec.Window == 0 || spec.Window%k != 0 {
		return codec.Corruptf("window %d not a multiple of %d blocks", spec.Window, k)
	}
	if !(spec.Scale >= 1) {
		return codec.Corruptf("scale %g below 1", spec.Scale)
	}
	snap.k = int(k)
	snap.window = spec.Window
	snap.blockCounts = spec.BlockCounts
	snap.scale = spec.Scale
	snap.updates = spec.Updates
	snap.hash = hash

	if spec.Overflow != nil {
		snap.overflow = *spec.Overflow
	} else {
		snap.overflow = *keyidx.MustNewCounts[K](1, hash)
	}
	for _, e := range snap.overflow.Entries() {
		if e.Val <= 0 {
			return codec.Corruptf("overflow count %d out of range", e.Val)
		}
	}

	if uint64(len(spec.Monitored)) > k {
		return codec.Corruptf("%d monitored counters exceed budget %d", len(spec.Monitored), k)
	}
	ssCap := len(spec.Monitored)
	if uint64(ssCap) < k {
		ssCap++ // headroom: unsaturated sketches answer Min() = 0
	}
	y, err := spacesaving.NewWithHash[K](ssCap, hash) // ssCap ≥ 1: k ≥ 1
	if err != nil {
		return err
	}
	var prev uint64
	for _, c := range spec.Monitored {
		if c.Count < prev {
			return codec.Corruptf("counter order not ascending (%d after %d)", c.Count, prev)
		}
		prev = c.Count
		if err := y.RestoreEntry(c.Key, c.Count, c.Err); err != nil {
			return codec.Corruptf("%v", err)
		}
	}
	y.SetItems(spec.Items)
	snap.y = *y

	r := spec.Restore
	if r == nil {
		return nil
	}
	if err := snap.checkRestore(r); err != nil {
		return err
	}
	snap.full = true
	snap.setFrame(r)
	snap.queues = r.Queues
	return nil
}

// BuildHHHSnapshot validates spec (see Snapshot.build) and assembles an
// H-Memento snapshot over copies of it, carrying the hierarchy and
// sampling compensation and answering like a decoded KindHHH record.
// Its indexes are built under prefixHash, the hasher of every
// H-Memento table, so spec.Overflow must have been built under it too.
// The snapshot takes copies of spec.Overflow and the restore queues;
// the caller keeps its own.
func BuildHHHSnapshot(hier hierarchy.Hierarchy, comp float64, spec SnapshotSpec[hierarchy.Prefix]) (*HHHSnapshot, error) {
	return buildHHHSnapshot(hier, comp, spec.detached())
}

// buildHHHSnapshot is BuildHHHSnapshot taking ownership of spec's
// slabs (see Snapshot.build).
func buildHHHSnapshot(hier hierarchy.Hierarchy, comp float64, spec SnapshotSpec[hierarchy.Prefix]) (*HHHSnapshot, error) {
	if hier == nil {
		return nil, errors.New("core: BuildHHHSnapshot needs a hierarchy")
	}
	if comp < 0 || math.IsNaN(comp) {
		return nil, codec.Corruptf("negative compensation %g", comp)
	}
	snap := &HHHSnapshot{hier: hier, comp: comp}
	if err := snap.build(spec, prefixHash); err != nil {
		return nil, err
	}
	return snap, nil
}

// PatchEntry is one key's replicated state in a Patch: its monitored
// counter (Count 0: not monitored) and its overflow-table value (B 0:
// absent).
type PatchEntry[K comparable] struct {
	Key        K
	Count, Err uint64
	B          int32

	h uint64 // the key's hash, computed once by ApplyPatch
}

// Patch is one delta record's worth of replicated state, which
// ApplyPatch writes into a snapshot in place. Its slices are the
// caller's, reused from record to record.
type Patch[K comparable] struct {
	// ClearMonitored empties the monitored set before the entries
	// install (the interval crossed a frame boundary).
	ClearMonitored bool
	// Updates and Items replace the captured counters.
	Updates, Items uint64
	// Entries are the keys whose state changed; a monitored key may be
	// named once.
	Entries []PatchEntry[K]
	// Restore replaces the restore plane; it is present exactly when
	// the snapshot carries one.
	Restore *RestoreSpec[K]

	seen []uint64 // scratch: the monitored slots Entries name
}

// ApplyPatch writes p into the snapshot in place, so a follower keeps
// one live replica of a chain's state instead of building a snapshot
// per record. It validates all of p against the snapshot before it
// changes anything — each entry's error term below its count, the
// restore plane as build checks it, no monitored key named
// twice, and no more monitored counters than the counter budget once
// the entries install — and on failure returns a wrapped
// codec.ErrCorrupt with the snapshot unchanged.
//
// Removals install before counts, so the monitored set never passes
// the budget on its way to a state within it. Space Saving grows with
// what the entries carry, never past the budget, and keeps a free
// counter while fewer than k are monitored, so Min() reads 0 exactly
// when a snapshot built from the same state would.
//
// The snapshot stops being immutable: whoever reads it while patches
// land must hold the lock the patching goroutine holds.
func (snap *Snapshot[K]) ApplyPatch(p *Patch[K]) error {
	if (p.Restore != nil) != snap.full {
		return codec.Corruptf("restore plane disagrees with the replicated state")
	}
	if p.Restore != nil {
		if err := snap.checkRestore(p.Restore); err != nil {
			return err
		}
	}
	used := snap.y.Len()
	if p.ClearMonitored {
		used = 0
	} else {
		p.seen = append(p.seen[:0], make([]uint64, (used+63)/64)...)
	}
	for i := range p.Entries {
		e := &p.Entries[i]
		if e.Count > 0 && e.Err >= e.Count {
			return codec.Corruptf("entry error %d not below count %d", e.Err, e.Count)
		}
		if e.B < 0 {
			return codec.Corruptf("overflow count %d out of range", e.B)
		}
		e.h = snap.hash(e.Key)
		slot := -1
		if !p.ClearMonitored {
			slot = snap.y.SlotOfHashed(e.Key, e.h)
		}
		switch {
		case slot < 0:
			if e.Count > 0 {
				used++ // an unmonitored key named twice counts twice: over, never under
			}
		case p.seen[slot>>6]&(1<<(slot&63)) != 0:
			return codec.Corruptf("monitored key named twice")
		default:
			p.seen[slot>>6] |= 1 << (slot & 63)
			if e.Count == 0 {
				used--
			}
		}
	}
	if used > snap.k {
		return codec.Corruptf("%d monitored counters exceed budget %d", used, snap.k)
	}

	// Valid: from here nothing fails.
	if p.ClearMonitored {
		snap.y.Flush()
	}
	if want := min(used+1, snap.k); want > snap.y.Cap() {
		snap.y.Grow(max(want, min(2*snap.y.Cap(), snap.k)))
	}
	snap.updates = p.Updates
	snap.y.SetItems(p.Items)
	for _, e := range p.Entries {
		if e.Count == 0 {
			snap.y.RemoveHashed(e.Key, e.h)
			snap.patchOverflow(e)
		}
	}
	for _, e := range p.Entries {
		if e.Count > 0 {
			_ = snap.y.SetHashed(e.Key, e.h, e.Count, e.Err) // checked above
			snap.patchOverflow(e)
		}
	}
	if r := p.Restore; r != nil {
		snap.setFrame(r)
		if cap(snap.queues) < len(r.Queues) {
			snap.queues = make([][]K, len(r.Queues))
		}
		snap.queues = snap.queues[:len(r.Queues)]
		for i, q := range r.Queues {
			snap.queues[i] = append(snap.queues[i][:0], q...)
		}
	}
	return nil
}

// patchOverflow installs one entry's overflow-table value.
func (snap *Snapshot[K]) patchOverflow(e PatchEntry[K]) {
	if e.B > 0 {
		snap.overflow.PutH(e.Key, e.B, e.h)
	} else {
		snap.overflow.DeleteH(e.Key, e.h)
	}
}

// checkRestore validates a restore plane against the snapshot's
// configuration.
func (snap *Snapshot[K]) checkRestore(r *RestoreSpec[K]) error {
	k := uint64(snap.k)
	blockPackets := snap.window / k
	if r.UntilBlock == 0 || r.UntilBlock > blockPackets {
		return codec.Corruptf("frame position %d outside block of %d", r.UntilBlock, blockPackets)
	}
	if r.BlocksLeft <= 0 || uint64(r.BlocksLeft) > k {
		return codec.Corruptf("blocks left %d outside 1..%d", r.BlocksLeft, k)
	}
	if uint64(len(r.Queues)) != k+1 {
		return codec.Corruptf("%d ring queues, want %d", len(r.Queues), k+1)
	}
	return nil
}

// setFrame installs a validated restore plane's frame position.
func (snap *Snapshot[K]) setFrame(r *RestoreSpec[K]) {
	snap.frame = frame{
		untilBlock:   r.UntilBlock,
		blocksLeft:   r.BlocksLeft,
		fullCount:    r.FullUpdates,
		forcedDrains: r.ForcedDrains,
	}
}

// Validate checks the invariants every snapshot holds, whether it was
// captured, built or patched: Space Saving's structure
// (spacesaving.Sketch.Validate), at most k monitored counters, a free
// counter while fewer than k are monitored (the rule Min() answers
// by), positive overflow-table values and, with the restore plane, a
// frame position and ring that fit the configuration. Tests and
// fuzzers of ApplyPatch call it.
func (snap *Snapshot[K]) Validate() error {
	if err := snap.y.Validate(); err != nil {
		return err
	}
	n, c := snap.y.Len(), snap.y.Cap()
	if n > snap.k || c > snap.k {
		return fmt.Errorf("core: %d monitored counters of capacity %d, budget %d", n, c, snap.k)
	}
	if n < snap.k && n == c {
		return fmt.Errorf("core: %d monitored counters fill the capacity below budget %d: Min() would not read 0", n, snap.k)
	}
	for _, e := range snap.overflow.Entries() {
		if e.Val <= 0 {
			return fmt.Errorf("core: overflow count %d", e.Val)
		}
		if got, ok := snap.overflow.Get(e.Key); !ok || got != e.Val {
			return fmt.Errorf("core: overflow entry %v indexed as %d, %v", e.Key, got, ok)
		}
	}
	if snap.full {
		return snap.checkRestore(&RestoreSpec[K]{UntilBlock: snap.untilBlock, BlocksLeft: snap.blocksLeft, Queues: snap.queues})
	}
	return nil
}

// Clone returns a copy of the snapshot that shares nothing with it:
// what a reader keeps of a replica after releasing the replica's lock.
func (snap *HHHSnapshot) Clone() *HHHSnapshot {
	c := &HHHSnapshot{hier: snap.hier, comp: snap.comp}
	snap.table.copyInto(&c.table)
	c.full, c.frame = snap.full, snap.frame
	if snap.full {
		c.queues = make([][]hierarchy.Prefix, len(snap.queues))
		for i, q := range snap.queues {
			c.queues[i] = append([]hierarchy.Prefix(nil), q...)
		}
	}
	return c
}

// Spec returns the snapshot's state as a SnapshotSpec, from which
// BuildHHHSnapshot makes a copy in its own layout: Overflow aliases the
// snapshot's table and Restore its ring queues (BuildHHHSnapshot copies
// both), and Monitored is the counters appended to buf in Iterate
// order.
func (snap *Snapshot[K]) Spec(buf []spacesaving.Counter[K]) SnapshotSpec[K] {
	snap.y.Iterate(func(c spacesaving.Counter[K]) bool {
		buf = append(buf, c)
		return true
	})
	spec := SnapshotSpec[K]{
		Window:      snap.window,
		Counters:    snap.k,
		BlockCounts: snap.blockCounts,
		Scale:       snap.scale,
		Updates:     snap.updates,
		Items:       snap.y.Items(),
		Overflow:    &snap.overflow,
		Monitored:   buf,
	}
	if snap.full {
		spec.Restore = &RestoreSpec[K]{
			UntilBlock:   snap.untilBlock,
			BlocksLeft:   snap.blocksLeft,
			FullUpdates:  snap.fullCount,
			ForcedDrains: snap.forcedDrains,
			Queues:       snap.queues,
		}
	}
	return spec
}
