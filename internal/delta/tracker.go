// Tracker: the encode side of a replication chain. It binds to a
// live core.HHH, enables the core delta plane, and turns each capture
// interval into one chain record — a full base when the chain needs
// (re)starting, otherwise a delta carrying only the keys whose
// replicated state actually changed.
//
// The Tracker maintains a shadow of the follower's monitored set,
// addressed the way Space Saving addresses it: one entry per counter
// slot, holding the key and counter the follower has for that slot if
// one was shipped. A delta is then one scan of the slots the interval
// touched (core.DirtySet.SlotMarks) against the shadow, plus a handful
// of key-addressed entries for what a slot cannot describe:
//
//   - a tombstone, when a marked slot no longer holds the key the
//     shadow shipped for it — the key was evicted, and the follower
//     must drop it, unless it was re-admitted elsewhere within the
//     interval, in which case its shipped state moves to the new slot
//     so the correction ships as a correction (a shipped key is never
//     held back by the fidelity floor);
//   - the keys of the interval's overflow-table log whose table entry
//     ended up somewhere else than it started.
//
// Slots whose state round-tripped back to what the follower already
// has, and the keys that came and went below the fidelity floor — the
// dominant case on a churning stream — cost no bytes and no lookups.
// The overflow table needs no shadow at all: it replicates exactly, so
// the follower's value is the live value minus the interval's net
// logged change.

package delta

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"math/rand/v2"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/hierarchy"
	"memento/internal/keyidx"
)

// TrackerConfig parameterizes a chain encoder.
type TrackerConfig struct {
	// Chain is the chain identity; 0 draws a random one. Followers use
	// it to detect a restarted encoder (fresh chain ⇒ ErrEpochGap ⇒
	// resync from the next base).
	Chain uint64
	// Restore ships the restore plane (block ring, frame position) in
	// every record, making the chain a warm-restart checkpoint chain.
	// Leave false for query-plane replication (netwide reporting).
	Restore bool
	// Floor is the fidelity floor: a monitored counter is shipped only
	// once its guaranteed count — count minus the Space Saving error
	// term, the lower bound on the key's true in-frame count — reaches
	// Floor (or its key touches the overflow table, or it was shipped
	// before — corrections always ship). Gating on the guaranteed
	// count rather than the raw count matters on saturated tables,
	// where every churned counter inherits count ≈ Min but a
	// guaranteed count of ~0. 0 replicates exactly. See the package
	// comment.
	Floor uint64
}

// slotShadow is what the encoder knows about the key in one Space
// Saving slot: either it was shipped — the follower holds this counter
// and this overflow-table value for it — or, as the zero value,
// nothing. A key kept local (below the fidelity floor and absent from
// the overflow table) leaves no trace, so the next diff that finds its
// slot marked probes the overflow table for it again. Remembering such
// keys would not pay: on a flood nearly every marked unshipped slot has
// been re-keyed by an eviction since the previous diff (on the
// fleet-delta-flood agent geometry, ≈ 20 of the ≈ 1 750 unshipped
// slots a diff probes still hold the key they held at the last one).
type slotShadow struct {
	key        hierarchy.Prefix
	count, err uint64
	b          int32
	shipped    bool
}

// Tracker encodes one replication chain for one core.HHH instance.
// Not safe for concurrent use; call Capture under the lock guarding
// the instance, and the Append* methods from one goroutine.
type Tracker struct {
	hh  *core.HHH
	cfg TrackerConfig

	chain uint64
	epoch uint64
	based bool // a base has been emitted and not invalidated
	force bool // next record must be a base (drop, resync, reset)

	// A pending capture (captured) holds a diff of the live sketch
	// (diffed), a copy of its state in snap (see copied), or both.
	captured, diffed bool

	digest uint64

	// snap is the copied state; a query-plane chain zeroes it once its
	// base is encoded, so it holds no copy of the sketch between bases.
	snap  core.HHHSnapshot
	dirty core.DirtySet[hierarchy.Prefix]

	// shadow is indexed by Space Saving slot. tombs and moved are diff
	// scratch: the evicted shipped keys, and each logged key's net
	// overflow-table change.
	shadow []slotShadow
	tombs  []slotShadow
	moved  *keyidx.Index[hierarchy.Prefix]

	// The pending diff: wire-format entries and the scalars of the
	// instant they were cut.
	entries        []byte
	nEntries       int
	flushed        bool
	updates, items uint64
}

// NewTracker binds a Tracker to hh and enables delta tracking on it.
// Fails only when the hierarchy has no wire identifier.
func NewTracker(hh *core.HHH, cfg TrackerConfig) (*Tracker, error) {
	if _, err := codec.HierID(hh.Hierarchy()); err != nil {
		return nil, err
	}
	if cfg.Chain == 0 {
		//memento:allow det "chain identity drawn once at construction; never replicated state"
		cfg.Chain = rand.Uint64() | 1
	}
	hh.EnableDeltaTracking()
	return &Tracker{
		hh:     hh,
		cfg:    cfg,
		chain:  cfg.Chain,
		shadow: make([]slotShadow, hh.Sketch().Counters()),
		moved:  keyidx.MustNew(64, hierarchy.PrefixHasher(0)),
	}, nil
}

// Chain returns the chain identity.
func (t *Tracker) Chain() uint64 { return t.chain }

// ForceBase marks the chain broken on the follower's side — a record
// was dropped before transmission, or the follower requested a resync
// — so the next capture encodes as a fresh base. A capture already
// pending does too when it holds a state copy (restore-plane chains
// always do, which is what lets a sharded chain set decide its flavor
// after capturing); a pending query-plane diff still encodes as the
// delta it is, and the base follows it.
func (t *Tracker) ForceBase() { t.force = true }

// NeedBase reports whether the next capture will encode as a base.
func (t *Tracker) NeedBase() bool { return !t.based || t.force }

// PendingBase reports whether the pending (or next) capture will
// encode as a base, including the case only the drained interval knows
// about — a reset. Sharded chains use it to keep every shard's record
// flavor in lockstep.
func (t *Tracker) PendingBase() bool {
	return t.NeedBase() && (!t.captured || t.copied())
}

// copied reports whether the pending capture copied the sketch into
// snap: every capture but a query-plane delta does.
func (t *Tracker) copied() bool { return !t.diffed || t.cfg.Restore }

// Capture cuts the next chain step: it drains the instance's delta
// plane and, when the step is a delta, diffs the marked slots of the
// live sketch against the shadow — a scan of at most k adjacent slots
// with no copy of the sketch. A base, and every step of a
// restore-plane chain, also copies the state (SnapshotInto /
// CheckpointInto) for AppendCaptured to encode from. Call it under the
// lock guarding hh; AppendCaptured needs no lock.
func (t *Tracker) Capture() error {
	if t.captured {
		// A capture that was never encoded discarded its diff; only a
		// fresh base can resynchronize the chain.
		t.force = true
	}
	if err := t.hh.DeltaDrainInto(&t.dirty); err != nil {
		return err
	}
	if t.dirty.WasReset() {
		// The sketch was reset (or restored) mid-interval: slot marks
		// and the overflow log cannot describe that, start over.
		t.force = true
	}
	t.diffed = !t.NeedBase()
	if t.cfg.Restore {
		t.hh.CheckpointInto(&t.snap)
	} else if t.copied() {
		t.hh.SnapshotInto(&t.snap)
	}
	if t.diffed {
		t.diff()
	}
	t.captured = true
	return nil
}

// AppendCaptured encodes the pending capture as the next chain record
// appended to dst, returning the extended buffer and whether a base
// was emitted. With a reused buffer, delta encoding allocates nothing
// in steady state (BenchmarkDeltaEncode and BenchmarkDeltaEncodeChurn
// gate this).
func (t *Tracker) AppendCaptured(dst []byte) (out []byte, base bool, err error) {
	if !t.captured {
		return dst, false, errors.New("delta: no pending capture")
	}
	t.captured = false
	if t.NeedBase() && t.copied() {
		out, err = t.appendBase(dst)
		return out, true, err
	}
	return t.appendDelta(dst), false, nil
}

// Append is Capture + AppendCaptured: one chain step under the
// caller's lock.
func (t *Tracker) Append(dst []byte) (out []byte, base bool, err error) {
	if err := t.Capture(); err != nil {
		return dst, false, err
	}
	return t.AppendCaptured(dst)
}

// appendBase emits a chain base embedding the full captured snapshot
// and resets the shadow to it.
func (t *Tracker) appendBase(dst []byte) ([]byte, error) {
	t.epoch++
	dst, err := AppendBase(dst, &t.snap, t.chain, t.epoch)
	if err != nil {
		return dst, err
	}
	t.digest, _ = snapDigest(&t.snap) // AppendBase resolved the hierarchy

	// The shadow becomes exactly the embedded state. The copy kept the
	// source's slot numbers, so it lines up with the live sketch's
	// marks from here on.
	clear(t.shadow)
	mem := t.snap.Sketch()
	for i := range mem.Slots() {
		c := mem.Slot(i)
		t.shadow[i] = slotShadow{key: c.Key, count: c.Count, err: c.Err, b: mem.OverflowCount(c.Key), shipped: true}
	}
	t.based = true
	t.force = false
	if !t.cfg.Restore {
		// Query-plane deltas diff the live sketch against the shadow and
		// never read the copy again; the next base captures afresh.
		t.snap = core.HHHSnapshot{}
	}
	return dst, nil
}

// emit appends one entry to the pending diff.
func (t *Tracker) emit(key hierarchy.Prefix, count, err uint64, b int32) {
	t.entries = appendEntry(t.entries, key, count, err, b)
	t.nEntries++
}

// diff cuts the pending delta's entries from the live sketch: what
// the follower must change so that its monitored set equals the live
// one filtered by the fidelity floor and its overflow table equals the
// live one. The caller holds the lock guarding the instance.
func (t *Tracker) diff() {
	mem := t.hh.Sketch()
	t.updates, t.items = mem.Updates(), mem.Items()
	t.entries, t.nEntries = t.entries[:0], 0
	t.flushed = t.dirty.Flushed()
	if t.flushed {
		// The follower clears its monitored set (FlagClearMonitored);
		// every slot in use was allocated after the flush and is marked.
		clear(t.shadow)
	}
	marks := t.dirty.SlotMarks()
	used := mem.Slots()

	// Evictions: a marked slot that no longer holds the key shipped for
	// it. Collect them all before resolving any — a re-admitted key may
	// land in a slot another shipped key was just evicted from.
	t.tombs = t.tombs[:0]
	for w, word := range marks {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if sh := &t.shadow[i]; sh.shipped && sh.key != mem.Slot(i).Key {
				t.tombs = append(t.tombs, *sh)
				*sh = slotShadow{}
			}
		}
	}

	// The overflow log, coalesced to one net change per key.
	t.moved.Flush()
	for _, c := range t.dirty.OverflowChanges() {
		t.moved.Inc(c.Key, c.Delta)
	}

	for _, tomb := range t.tombs {
		if slot := mem.SlotOf(tomb.key); slot >= 0 {
			// Re-admitted within the interval: the follower still holds
			// the old counter, so the new slot inherits it as shipped and
			// the slot scan below ships the difference.
			t.shadow[slot] = tomb
		} else if net, _ := t.moved.Get(tomb.key); net == 0 {
			t.emit(tomb.key, 0, 0, tomb.b) // its overflow entry did not move
		} // else the overflow pass emits the same entry
	}

	// Keys whose overflow entry moved: always an entry, carrying the
	// key's monitored counter as the follower should see it. The slot
	// scan then finds their slot already current. The log is walked
	// rather than the index, whose slots outnumber an interval's log
	// many times over once it has grown: each key is handled at its
	// first occurrence, and its net change zeroed so later ones skip.
	for _, oc := range t.dirty.OverflowChanges() {
		h := t.moved.Hash(oc.Key)
		if net, _ := t.moved.GetH(oc.Key, h); net == 0 {
			continue
		}
		t.moved.PutH(oc.Key, 0, h)
		key := oc.Key
		slot, b := mem.DeltaProbe(key)
		if slot < 0 {
			t.emit(key, 0, 0, b)
			continue
		}
		cur, sh := mem.Slot(slot), &t.shadow[slot]
		if !sh.shipped && b == 0 && cur.Count-cur.Err < t.cfg.Floor {
			t.emit(key, 0, 0, 0) // stays local; only the overflow entry goes
			continue
		}
		t.emit(key, cur.Count, cur.Err, b)
		*sh = slotShadow{key: key, count: cur.Count, err: cur.Err, b: b, shipped: true}
	}

	// The slot scan: everything else that changed is a counter in a
	// marked slot whose overflow entry did not move.
	for w, word := range marks {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if i >= used {
				break // stale marks from before a flush
			}
			cur, sh := mem.Slot(i), &t.shadow[i]
			if sh.shipped {
				if cur.Count != sh.count || cur.Err != sh.err {
					t.emit(cur.Key, cur.Count, cur.Err, sh.b)
					sh.count, sh.err = cur.Count, cur.Err
				}
				continue
			}
			b := mem.OverflowCount(cur.Key)
			if b == 0 && cur.Count-cur.Err < t.cfg.Floor {
				continue // guaranteed count below the floor, never shipped: stays local
			}
			t.emit(cur.Key, cur.Count, cur.Err, b)
			*sh = slotShadow{key: cur.Key, count: cur.Count, err: cur.Err, b: b, shipped: true}
		}
	}
}

// appendDelta emits the pending diff as a delta record.
func (t *Tracker) appendDelta(dst []byte) []byte {
	start := len(dst)
	t.epoch++
	flags := uint16(0)
	if t.cfg.Restore {
		flags |= codec.FlagRestore
	}
	if t.flushed {
		flags |= codec.FlagClearMonitored
	}
	dst = codec.AppendHeader(dst, codec.Header{
		Version: codec.Version,
		Kind:    codec.KindHHHDelta,
		Flags:   flags,
		Digest:  t.digest,
	})
	dst = binary.BigEndian.AppendUint64(dst, t.chain)
	dst = binary.BigEndian.AppendUint64(dst, t.epoch)
	dst = binary.BigEndian.AppendUint64(dst, t.updates)
	dst = binary.BigEndian.AppendUint64(dst, t.items)
	dst = binary.AppendUvarint(dst, uint64(t.nEntries))
	dst = append(dst, t.entries...)

	if t.cfg.Restore {
		mem := t.snap.Sketch()
		dst = binary.BigEndian.AppendUint64(dst, mem.UntilBlock())
		dst = binary.AppendUvarint(dst, uint64(mem.BlocksLeft()))
		dst = binary.BigEndian.AppendUint64(dst, mem.FullUpdates())
		dst = binary.BigEndian.AppendUint64(dst, mem.ForcedDrains())
		nq := 0
		mem.Queues(func([]hierarchy.Prefix) bool { nq++; return true })
		dst = binary.AppendUvarint(dst, uint64(nq))
		mem.Queues(func(q []hierarchy.Prefix) bool {
			dst = binary.AppendUvarint(dst, uint64(len(q)))
			for _, key := range q {
				dst = prefixKeys.AppendKey(dst, key)
			}
			return true
		})
	}
	codec.AccountEncode(codec.KindHHHDelta, len(dst)-start)
	return dst
}
