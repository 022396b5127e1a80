// State: the apply side of a replication chain. A follower feeds
// every received record to Apply — bases install, deltas patch — and
// reads the applied state from one live replica, a core.HHHSnapshot
// the base decodes into and every delta patches in place. Validation is
// strict: chain/epoch discontinuities surface ErrEpochGap (the
// follower must resync from a fresh base), configuration drift
// surfaces codec.ErrConfigMismatch, and malformed bytes the codec's
// typed corruption errors. A record is validated in full before it
// changes anything, so a record that fails to apply leaves the replica
// as it was.

package delta

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/hierarchy"
	"memento/internal/spacesaving"
)

// State is the applied base+delta chain state for one replicated
// H-Memento instance. The zero value awaits its first base, as does
// NewState's. Not safe for concurrent use: Apply patches the replica
// in place, so a reader on another goroutine shares a lock with Apply.
type State struct {
	based  bool
	chain  uint64
	epoch  uint64
	digest uint64

	// rep is the live replica: the last state that applied in full.
	// Bases replace it, deltas patch it in place, and a record that
	// fails leaves it untouched, so it outlives an unbasing failure
	// until Reset or the next base.
	rep *core.HHHSnapshot

	// Apply scratch: one delta parsed, then validated against rep and
	// written into it.
	patch   core.Patch[hierarchy.Prefix]
	restore core.RestoreSpec[hierarchy.Prefix]

	// Snapshot scratch: the monitored counters in wire order.
	monBuf []spacesaving.Counter[hierarchy.Prefix]
}

// NewState returns an empty follower state awaiting its first base.
func NewState() *State { return &State{} }

// Chain returns the applied chain identity (0 before any base).
func (st *State) Chain() uint64 { return st.chain }

// Epoch returns the current state epoch.
func (st *State) Epoch() uint64 { return st.epoch }

// Restorable reports whether the chain carries the restore plane, so
// the canonical snapshot can rehydrate a live instance.
func (st *State) Restorable() bool { return st.rep != nil && st.rep.Restorable() }

// Hierarchy returns the replicated prefix domain (nil before a base).
func (st *State) Hierarchy() hierarchy.Hierarchy {
	if st.rep == nil {
		return nil
	}
	return st.rep.Hierarchy()
}

// Replica returns the live replica, nil before the first base and
// after Reset. It answers every query the canonical Snapshot does,
// identically, without a copy — and stays the last state that applied
// in full after a failed record unbases the chain. The next Apply
// patches it in place (or a base replaces it), so a reader on another
// goroutine must hold the lock Apply runs under for as long as it
// reads.
func (st *State) Replica() *core.HHHSnapshot { return st.rep }

// Reset forgets everything; the next record must be a base.
func (st *State) Reset() {
	st.based = false
	st.chain, st.epoch = 0, 0
	st.rep = nil
}

// Apply validates and applies one chain record (base or delta). A
// record that fails leaves the replica untouched. On ErrEpochGap,
// codec.ErrConfigMismatch, or a header flag outside knownFlags
// (codec.ErrCorrupt) the chain position is untouched too; a delta body
// that fails validation unbases the chain, so the next delta is
// refused, while the replica keeps answering with the last good state:
// the follower resyncs either way.
func (st *State) Apply(data []byte) error {
	h, body, err := codec.ReadHeader(data)
	if err != nil {
		return err
	}
	if h.Kind != codec.KindHHHDelta {
		return fmt.Errorf("%w: kind %d, want hhh delta", codec.ErrKind, h.Kind)
	}
	if unknown := h.Flags &^ knownFlags; unknown != 0 {
		return codec.Corruptf("unknown header flags %#x", unknown)
	}
	c := codec.NewCursor(body)
	chain := c.Uint64()
	epoch := c.Uint64()
	if err := c.Err(); err != nil {
		return err
	}
	if h.Flags&codec.FlagBase != 0 {
		err = st.applyBase(h, c, chain, epoch)
	} else {
		err = st.applyDelta(h, c, chain, epoch)
	}
	if err == nil {
		codec.AccountDecode(codec.KindHHHDelta, len(data))
	}
	return err
}

// applyBase installs an embedded full snapshot as the new chain
// state: it becomes the replica.
func (st *State) applyBase(h codec.Header, c *codec.Cursor, chain, epoch uint64) error {
	n := c.Count(codec.MaxRecord, 1)
	if err := c.Err(); err != nil {
		return err
	}
	if c.Remaining() != n {
		return codec.Corruptf("embedded record length %d, have %d bytes", n, c.Remaining())
	}
	rec := c.Bytes(n)
	if err := c.Err(); err != nil {
		return err
	}
	snap, err := core.DecodeHHHSnapshot(rec)
	if err != nil {
		return fmt.Errorf("delta: embedded base: %w", err)
	}
	if (h.Flags&codec.FlagRestore != 0) != snap.Restorable() {
		return codec.Corruptf("restore flag disagrees with embedded record")
	}
	digest, err := snapDigest(snap)
	if err != nil {
		return codec.Corruptf("%v", err)
	}
	if digest != h.Digest {
		return fmt.Errorf("%w: base digest %#x, embedded %#x", codec.ErrConfigMismatch, h.Digest, digest)
	}
	st.based = true
	st.chain, st.epoch = chain, epoch
	st.digest = digest
	st.rep = snap
	return nil
}

// applyDelta patches the replica with one incremental record.
func (st *State) applyDelta(h codec.Header, c *codec.Cursor, chain, epoch uint64) error {
	if !st.based || chain != st.chain || epoch != st.epoch+1 {
		if st.based && chain == st.chain {
			return fmt.Errorf("%w: delta epoch %d onto state epoch %d", ErrEpochGap, epoch, st.epoch)
		}
		return fmt.Errorf("%w: chain %#x vs applied %#x", ErrEpochGap, chain, st.chain)
	}
	if h.Digest != st.digest {
		return fmt.Errorf("%w: delta digest %#x, base %#x", codec.ErrConfigMismatch, h.Digest, st.digest)
	}
	if (h.Flags&codec.FlagRestore != 0) != st.rep.Restorable() {
		return codec.Corruptf("restore flag disagrees with chain base")
	}
	updates := c.Uint64()
	items := c.Uint64()
	nEntries := c.Count(codec.MaxRecord, prefixKeys.Width()+2)
	if err := c.Err(); err != nil {
		return err
	}
	// A body that fails from here on breaks the chain: the record is
	// lost, so the follower must resync. The replica is patched only
	// once the whole body has validated.
	err := st.parsePatch(c, h.Flags, updates, items, nEntries)
	if err == nil {
		err = st.rep.ApplyPatch(&st.patch)
	}
	if err != nil {
		st.based = false
		return err
	}
	st.epoch = epoch
	return nil
}

// parsePatch reads a delta body's entries and restore plane into
// st.patch, checking what the bytes alone can violate.
func (st *State) parsePatch(c *codec.Cursor, flags uint16, updates, items uint64, nEntries int) error {
	p := &st.patch
	p.ClearMonitored = flags&codec.FlagClearMonitored != 0
	p.Updates, p.Items = updates, items
	p.Entries = p.Entries[:0]
	p.Restore = nil
	for i := 0; i < nEntries; i++ {
		key := c.Key()
		count := c.Uvarint()
		var errTerm uint64
		if count > 0 {
			errTerm = c.Uvarint()
		}
		b := c.Uvarint()
		if err := c.Err(); err != nil {
			return err
		}
		if b > math.MaxInt32 {
			return codec.Corruptf("overflow count %d out of range", b)
		}
		p.Entries = append(p.Entries, core.PatchEntry[hierarchy.Prefix]{Key: key, Count: count, Err: errTerm, B: int32(b)})
	}
	if flags&codec.FlagRestore != 0 {
		if err := st.parseRestorePlane(c); err != nil {
			return err
		}
		p.Restore = &st.restore
	}
	if c.Remaining() != 0 {
		return codec.Corruptf("%d trailing bytes", c.Remaining())
	}
	return nil
}

// parseRestorePlane reads the ring/frame-position section into
// st.restore, reusing its queues.
func (st *State) parseRestorePlane(c *codec.Cursor) error {
	r := &st.restore
	r.UntilBlock = c.Uint64()
	r.BlocksLeft = int(min(c.Uvarint(), math.MaxInt))
	r.FullUpdates = c.Uint64()
	r.ForcedDrains = c.Uint64()
	k := st.rep.Counters()
	nq := c.Count(k+1, 1)
	if err := c.Err(); err != nil {
		return err
	}
	if nq != k+1 {
		return codec.Corruptf("%d ring queues, want %d", nq, k+1)
	}
	if cap(r.Queues) < nq {
		r.Queues = make([][]hierarchy.Prefix, nq)
	}
	r.Queues = r.Queues[:nq]
	for i := range r.Queues {
		qlen := c.Count(maxQueueLen, prefixKeys.Width())
		if err := c.Err(); err != nil {
			return err
		}
		q := r.Queues[i][:0]
		for j := 0; j < qlen; j++ {
			q = append(q, c.Key())
		}
		r.Queues[i] = q
	}
	return c.Err()
}

// Snapshot returns a canonical copy of the applied state as a fresh
// core.HHHSnapshot — for a Floor-0 chain, byte-for-byte the estimates
// a follower decoding full snapshot records would compute — for
// callers that keep it, encode it or restore from it (mementoctl,
// shard.RestoreHHHChain, a controller's warm restart). It fails while
// the chain is not based.
func (st *State) Snapshot() (*core.HHHSnapshot, error) {
	if !st.based {
		return nil, fmt.Errorf("%w: no base applied", ErrEpochGap)
	}
	// Wire order for the monitored counters: ascending count, ties on
	// the full key, so replicas that reached the same state through
	// different chains materialize the same bytes. The overflow table
	// needs no order — it goes over as a slab copy.
	spec := st.rep.Spec(st.monBuf[:0])
	slices.SortFunc(spec.Monitored, func(a, b spacesaving.Counter[hierarchy.Prefix]) int {
		if c := cmp.Compare(a.Count, b.Count); c != 0 {
			return c
		}
		return comparePrefix(a.Key, b.Key)
	})
	st.monBuf = spec.Monitored
	return core.BuildHHHSnapshot(st.rep.Hierarchy(), st.rep.Compensation(), spec)
}

// comparePrefix is the canonical total order on prefixes, used
// wherever order-free tables must serialize deterministically.
func comparePrefix(a, b hierarchy.Prefix) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SrcLen, b.SrcLen); c != 0 {
		return c
	}
	return cmp.Compare(a.DstLen, b.DstLen)
}
