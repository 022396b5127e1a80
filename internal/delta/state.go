// State: the apply side of a replication chain. A follower feeds
// every received record to Apply — bases install, deltas patch — and
// materializes a queryable core.HHHSnapshot on demand. Validation is
// strict: chain/epoch discontinuities surface ErrEpochGap (the
// follower must resync from a fresh base), configuration drift
// surfaces codec.ErrConfigMismatch, and malformed bytes the codec's
// typed corruption errors. A record that fails to apply leaves the
// state unchanged, except where noted on Apply.

package delta

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/hierarchy"
	"memento/internal/keyidx"
	"memento/internal/spacesaving"
)

// State is the applied base+delta chain state for one replicated
// H-Memento instance. The zero value is unusable; construct with
// NewState. Not safe for concurrent use.
type State struct {
	based      bool
	chain      uint64
	epoch      uint64
	digest     uint64
	restorable bool

	hier   hierarchy.Hierarchy
	hierID uint8
	comp   float64

	// Seed-independent configuration, pinned by the base.
	window      uint64
	counters    int
	blockCounts uint64
	scale       float64

	// Replicated dynamic state, held flat: the monitored counters are a
	// slab (order free, swap-removed) indexed by monIdx, the overflow
	// table is the same keyidx.Counts a sketch keeps it in. Both tables
	// hash with hierarchy.PrefixHasher(0) — the hasher
	// core.BuildHHHSnapshot builds under — so materializing the overflow
	// table is a slab copy.
	updates, items uint64
	mon            []spacesaving.Counter[hierarchy.Prefix]
	monIdx         *keyidx.Index[hierarchy.Prefix]
	over           *keyidx.Counts[hierarchy.Prefix]

	// Restore plane (checkpoint chains only).
	untilBlock   uint64
	blocksLeft   int
	fullUpdates  uint64
	forcedDrains uint64
	queues       [][]hierarchy.Prefix

	// Materialization scratch: the monitored slab in wire order.
	monBuf []spacesaving.Counter[hierarchy.Prefix]
}

// NewState returns an empty follower state awaiting its first base.
func NewState() *State {
	// Both tables start small and grow with what records carry, so an
	// empty or hostile chain never sizes an allocation.
	hash := hierarchy.PrefixHasher(0)
	return &State{
		monIdx: keyidx.MustNew(8, hash),
		over:   keyidx.MustNewCounts(8, hash),
	}
}

// setEntry installs one key's replicated state: a monitored counter
// (count 0: not monitored) and an overflow-table value (0: absent).
func (st *State) setEntry(key hierarchy.Prefix, count, errTerm uint64, b int32) {
	h := st.monIdx.Hash(key)
	pos, monitored := st.monIdx.GetH(key, h)
	switch {
	case count > 0 && monitored:
		st.mon[pos].Count, st.mon[pos].Err = count, errTerm
	case count > 0:
		st.monIdx.PutH(key, int32(len(st.mon)), h)
		st.mon = append(st.mon, spacesaving.Counter[hierarchy.Prefix]{Key: key, Count: count, Err: errTerm})
	case monitored:
		// Swap-remove: the last counter takes the freed position.
		last := len(st.mon) - 1
		if moved := st.mon[last]; int(pos) != last {
			st.mon[pos] = moved
			st.monIdx.Put(moved.Key, pos)
		}
		st.mon = st.mon[:last]
		st.monIdx.DeleteH(key, h)
	}
	if b > 0 {
		st.over.PutH(key, b, h)
	} else {
		st.over.DeleteH(key, h)
	}
}

// clearMonitored empties the monitored set.
func (st *State) clearMonitored() {
	st.mon = st.mon[:0]
	st.monIdx.Flush()
}

// Based reports whether a base has been applied.
func (st *State) Based() bool { return st.based }

// Chain returns the applied chain identity (0 before any base).
func (st *State) Chain() uint64 { return st.chain }

// Epoch returns the current state epoch.
func (st *State) Epoch() uint64 { return st.epoch }

// Restorable reports whether the chain carries the restore plane, so
// the materialized snapshot can rehydrate a live instance.
func (st *State) Restorable() bool { return st.restorable }

// Updates returns the replicated update count.
func (st *State) Updates() uint64 { return st.updates }

// Hierarchy returns the replicated prefix domain (nil before a base).
func (st *State) Hierarchy() hierarchy.Hierarchy { return st.hier }

// Reset forgets everything; the next record must be a base.
func (st *State) Reset() {
	st.based = false
	st.chain, st.epoch = 0, 0
	st.clearMonitored()
	st.over.Flush()
	st.queues = nil
}

// Apply validates and applies one chain record (base or delta). On
// ErrEpochGap or codec.ErrConfigMismatch the state is untouched, as it
// is on a header flag outside knownFlags (codec.ErrCorrupt); on a
// corruption error discovered mid-delta the state is unusable for
// queries and Based() turns false, so the follower resyncs either
// way.
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
// state.
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
	restorable := snap.Sketch().Restorable()
	if (h.Flags&codec.FlagRestore != 0) != restorable {
		return codec.Corruptf("restore flag disagrees with embedded record")
	}
	id, err := codec.HierID(snap.Hierarchy())
	if err != nil {
		return codec.Corruptf("%v", err)
	}
	mem := snap.Sketch()
	digest := hhhDigest(id, uint64(mem.EffectiveWindow()), mem.Counters(), mem.BlockCounts(), mem.Scale())
	if digest != h.Digest {
		return fmt.Errorf("%w: base digest %#x, embedded %#x", codec.ErrConfigMismatch, h.Digest, digest)
	}

	st.based = true
	st.chain, st.epoch = chain, epoch
	st.digest = digest
	st.restorable = restorable
	st.hier, st.hierID = snap.Hierarchy(), id
	st.comp = snap.Compensation()
	st.window = uint64(mem.EffectiveWindow())
	st.counters = mem.Counters()
	st.blockCounts = mem.BlockCounts()
	st.scale = mem.Scale()
	st.updates = mem.Updates()
	st.items = mem.Items()
	st.clearMonitored()
	st.over.Flush()
	mem.Monitored(func(cn spacesaving.Counter[hierarchy.Prefix]) bool {
		st.monIdx.Put(cn.Key, int32(len(st.mon)))
		st.mon = append(st.mon, cn)
		return true
	})
	mem.Overflowed(func(key hierarchy.Prefix, b int32) bool {
		st.over.Put(key, b)
		return true
	})
	if restorable {
		st.untilBlock = mem.UntilBlock()
		st.blocksLeft = mem.BlocksLeft()
		st.fullUpdates = mem.FullUpdates()
		st.forcedDrains = mem.ForcedDrains()
		st.queues = st.queues[:0]
		mem.Queues(func(q []hierarchy.Prefix) bool {
			st.queues = append(st.queues, append([]hierarchy.Prefix(nil), q...))
			return true
		})
	} else {
		st.queues = nil
	}
	return nil
}

// applyDelta patches the state with one incremental record.
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
	if (h.Flags&codec.FlagRestore != 0) != st.restorable {
		return codec.Corruptf("restore flag disagrees with chain base")
	}
	updates := c.Uint64()
	items := c.Uint64()
	nEntries := c.Count(codec.MaxRecord, prefixKeys.Width()+2)
	if err := c.Err(); err != nil {
		return err
	}
	// Mutation begins here: a corrupt tail leaves the state partially
	// patched, which Apply's contract covers by unbasing below.
	if h.Flags&codec.FlagClearMonitored != 0 {
		st.clearMonitored()
	}
	st.updates, st.items = updates, items
	for i := 0; i < nEntries; i++ {
		key := codec.Key(c, prefixKeys)
		count := c.Uvarint()
		var errTerm uint64
		if count > 0 {
			errTerm = c.Uvarint()
		}
		b := c.Uvarint()
		if err := c.Err(); err != nil {
			st.based = false
			return err
		}
		if count > 0 && errTerm >= count {
			st.based = false
			return codec.Corruptf("entry error %d not below count %d", errTerm, count)
		}
		if b > math.MaxInt32 {
			st.based = false
			return codec.Corruptf("overflow count %d out of range", b)
		}
		st.setEntry(key, count, errTerm, int32(b))
	}
	if st.restorable {
		if err := st.applyRestorePlane(c); err != nil {
			st.based = false
			return err
		}
	}
	if c.Remaining() != 0 {
		st.based = false
		return codec.Corruptf("%d trailing bytes", c.Remaining())
	}
	st.epoch = epoch
	return nil
}

// applyRestorePlane replaces the ring/frame-position section.
func (st *State) applyRestorePlane(c *codec.Cursor) error {
	untilBlock := c.Uint64()
	blocksLeft := c.Uvarint()
	fullUpdates := c.Uint64()
	forcedDrains := c.Uint64()
	nq := c.Count(st.counters+1, 1)
	if err := c.Err(); err != nil {
		return err
	}
	if nq != st.counters+1 {
		return codec.Corruptf("%d ring queues, want %d", nq, st.counters+1)
	}
	if cap(st.queues) < nq {
		st.queues = make([][]hierarchy.Prefix, nq)
	} else {
		st.queues = st.queues[:nq]
	}
	for i := 0; i < nq; i++ {
		qlen := c.Count(maxQueueLen, prefixKeys.Width())
		if err := c.Err(); err != nil {
			return err
		}
		q := st.queues[i][:0]
		for j := 0; j < qlen; j++ {
			q = append(q, codec.Key(c, prefixKeys))
		}
		st.queues[i] = q
	}
	if err := c.Err(); err != nil {
		return err
	}
	st.untilBlock = untilBlock
	st.blocksLeft = int(blocksLeft)
	st.fullUpdates = fullUpdates
	st.forcedDrains = forcedDrains
	return nil
}

// Snapshot materializes the applied state into a queryable
// core.HHHSnapshot — for a Floor-0 chain, byte-for-byte the estimates
// a follower decoding full snapshot records would compute. Fails
// before the first base or when the accumulated state violates a
// sketch invariant (more monitored entries than the counter budget,
// say), which only a corrupt or adversarial chain can produce.
func (st *State) Snapshot() (*core.HHHSnapshot, error) {
	if !st.based {
		return nil, fmt.Errorf("%w: no base applied", ErrEpochGap)
	}
	// Wire order for the monitored counters: ascending count, ties on
	// the full key, so replicas that reached the same state through
	// different chains materialize the same bytes. The overflow table
	// needs no order — it goes over as a slab copy.
	st.monBuf = append(st.monBuf[:0], st.mon...)
	slices.SortFunc(st.monBuf, func(a, b spacesaving.Counter[hierarchy.Prefix]) int {
		if c := cmp.Compare(a.Count, b.Count); c != 0 {
			return c
		}
		return comparePrefix(a.Key, b.Key)
	})
	spec := core.SnapshotSpec[hierarchy.Prefix]{
		Window:      st.window,
		Counters:    st.counters,
		BlockCounts: st.blockCounts,
		Scale:       st.scale,
		Updates:     st.updates,
		Items:       st.items,
		Overflow:    st.over,
		Monitored:   st.monBuf,
	}
	if st.restorable {
		spec.Restore = &core.RestoreSpec[hierarchy.Prefix]{
			UntilBlock:   st.untilBlock,
			BlocksLeft:   st.blocksLeft,
			FullUpdates:  st.fullUpdates,
			ForcedDrains: st.forcedDrains,
			Queues:       st.queues,
		}
	}
	return core.BuildHHHSnapshot(st.hier, st.comp, spec)
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
