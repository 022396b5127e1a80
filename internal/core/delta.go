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
// This file also provides the inverse of the diff: BuildSnapshot
// assembles a queryable Snapshot from explicit state, which is how a
// delta chain's applied state materializes back into something
// Query/OutputTo/RestoreFrom understand. It is also the one validator
// of state that arrives from outside the process: the wire decoder
// (persist.go) parses a record into a SnapshotSpec and hands it here.

package core

import (
	"errors"
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

// SnapshotSpec is the explicit state BuildSnapshot assembles into a
// queryable Snapshot — the materialization path for applied delta
// chains (internal/delta.State).
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
	// the hasher handed to BuildSnapshot; nil is an empty table. The
	// built snapshot takes a slab copy — no per-entry work, no order.
	Overflow *keyidx.Counts[K]
	// Monitored are the in-frame Space Saving counters in ascending
	// count order, each with Err < Count.
	Monitored []spacesaving.Counter[K]
	// Restore, when non-nil, adds the restore plane: the built
	// snapshot can rehydrate a live sketch via RestoreFrom.
	Restore *RestoreSpec[K]
}

// BuildSnapshot validates spec and assembles a Snapshot over it: the
// Space Saving slabs are sized by the entries present (preserving the
// saturated/unsaturated Min() distinction without trusting a declared
// budget for an allocation) and its index is built under hash, which
// must be the function spec.Overflow was built under (nil: that
// function, or the keyidx default without a table). Every invariant of
// state that arrives from outside the process is stated here and
// nowhere else — wire records, chain bases and materialized delta
// chains all pass through — and a violation is a wrapped
// codec.ErrCorrupt. The snapshot takes copies of spec.Overflow and the
// restore queues; the caller keeps its own.
func BuildSnapshot[K comparable](spec SnapshotSpec[K], hash func(K) uint64) (*Snapshot[K], error) {
	snap := new(Snapshot[K])
	if err := snap.build(spec.detached(), hash); err != nil {
		return nil, err
	}
	return snap, nil
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

// build is BuildSnapshot into snap, taking ownership of spec.Overflow
// and the restore queues (the decoder parsed them for this call). On
// error snap is left partially filled and must be discarded.
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
	if hash == nil {
		hash = keyidx.DefaultHasher[K]()
		if spec.Overflow != nil {
			hash = spec.Overflow.Hash
		}
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
	blockPackets := spec.Window / k
	if r.UntilBlock == 0 || r.UntilBlock > blockPackets {
		return codec.Corruptf("frame position %d outside block of %d", r.UntilBlock, blockPackets)
	}
	if r.BlocksLeft <= 0 || uint64(r.BlocksLeft) > k {
		return codec.Corruptf("blocks left %d outside 1..%d", r.BlocksLeft, k)
	}
	if uint64(len(r.Queues)) != k+1 {
		return codec.Corruptf("%d ring queues, want %d", len(r.Queues), k+1)
	}
	snap.full = true
	snap.frame = frame{
		untilBlock:   r.UntilBlock,
		blocksLeft:   r.BlocksLeft,
		fullCount:    r.FullUpdates,
		forcedDrains: r.ForcedDrains,
	}
	snap.queues = r.Queues
	return nil
}

// BuildHHHSnapshot is BuildSnapshot for an H-Memento capture: the
// assembled snapshot carries the hierarchy and sampling compensation
// and answers OutputTo like a decoded KindHHH record (indexes built
// under hierarchy.PrefixHasher(0), matching DecodeHHHSnapshot).
func BuildHHHSnapshot(hier hierarchy.Hierarchy, comp float64, spec SnapshotSpec[hierarchy.Prefix]) (*HHHSnapshot, error) {
	return buildHHHSnapshot(hier, comp, spec.detached())
}

// prefixHash is hierarchy.PrefixHasher(0), the hasher HHH snapshots
// built from outside state index under, made once: building the
// closure per snapshot would cost every materialized one an allocation.
var prefixHash = hierarchy.PrefixHasher(0)

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
