// Durable codec bindings: encode an HHHSnapshot into the versioned
// internal/codec record format (KindHHH), decode one back into a
// queryable snapshot, and rehydrate a live sketch from a decoded (or
// same-process) checkpoint.
//
// The split of responsibilities: internal/codec owns the format
// (header, digest, bounded cursor, prefix key encoding); this file owns
// the sketch-specific body layout. Encoding appends to a caller-provided
// buffer and allocates nothing once the buffer has warmed up
// (BenchmarkSnapshotEncode gates 0 allocs/op in CI). Decoding is
// strict and in two steps: a parser that validates every count against
// the bytes that remain before allocating and fills a SnapshotSpec,
// and Snapshot.build's validator (delta.go), which states every sketch
// invariant once for all state that arrives from outside the process.
// A record can only rehydrate a sketch whose seed-independent
// configuration matches (codec.ErrConfigMismatch otherwise).
//
// Decoded snapshots rebuild their key indexes under prefixHash instead
// of trusting the source's slot layout, so records interoperate between
// processes with different hash seeds.

package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"memento/internal/codec"
	"memento/internal/hierarchy"
	"memento/internal/keyidx"
	"memento/internal/spacesaving"
)

// recordFlags returns the header flags for the captured state.
func (snap *Snapshot[K]) recordFlags() uint16 {
	if snap.full {
		return codec.FlagRestore
	}
	return 0
}

// appendBody appends the sketch section: configuration scalars, the
// overflow table (slab order; the decoder accepts any), the Space
// Saving counters (ascending count order — Iterate's bucket order —
// which the decoder verifies), and, for checkpoint-plane snapshots,
// the restore plane.
func appendBody(dst []byte, snap *Snapshot[hierarchy.Prefix]) []byte {
	var keys codec.PrefixKeys
	dst = binary.BigEndian.AppendUint64(dst, snap.window)
	dst = binary.BigEndian.AppendUint64(dst, snap.updates)
	dst = binary.BigEndian.AppendUint64(dst, snap.blockCounts)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(snap.scale))
	dst = binary.AppendUvarint(dst, uint64(snap.k))

	dst = binary.AppendUvarint(dst, uint64(snap.overflow.Len()))
	for _, e := range snap.overflow.Entries() {
		dst = keys.AppendKey(dst, e.Key)
		dst = binary.AppendUvarint(dst, uint64(e.Val))
	}

	dst = binary.AppendUvarint(dst, uint64(snap.y.Len()))
	dst = binary.BigEndian.AppendUint64(dst, snap.y.Items())
	//memento:allow alloc "closure does not escape: Iterate only scans (BenchmarkSnapshotEncode gates 0 allocs/op)"
	snap.y.Iterate(func(c spacesaving.Counter[hierarchy.Prefix]) bool {
		dst = keys.AppendKey(dst, c.Key)
		dst = binary.AppendUvarint(dst, c.Count)
		dst = binary.AppendUvarint(dst, c.Err)
		return true
	})

	if !snap.full {
		return dst
	}
	dst = binary.BigEndian.AppendUint64(dst, snap.untilBlock)
	dst = binary.AppendUvarint(dst, uint64(snap.blocksLeft))
	dst = binary.BigEndian.AppendUint64(dst, snap.fullCount)
	dst = binary.BigEndian.AppendUint64(dst, snap.forcedDrains)
	dst = binary.AppendUvarint(dst, uint64(len(snap.queues)))
	for _, q := range snap.queues {
		dst = binary.AppendUvarint(dst, uint64(len(q)))
		for _, key := range q {
			dst = keys.AppendKey(dst, key)
		}
	}
	return dst
}

// maxDecodeQueue bounds restore-plane ring entries per queue as a
// sanity backstop on top of the remaining-bytes bound.
const maxDecodeQueue = 1 << 24

// parseBody parses the sketch section — the rest of c — into a
// SnapshotSpec for Snapshot.build to validate. It checks only what
// the bytes themselves can violate: truncation, counts the remaining
// bytes cannot hold (so allocations are bounded by the record size),
// values that do not fit their type, duplicate overflow keys and
// trailing bytes. The overflow table is built under prefixHash.
func parseBody(c *codec.Cursor, flags uint16) (spec SnapshotSpec[hierarchy.Prefix], err error) {
	kw := codec.PrefixKeys{}.Width()
	spec.Window = c.Uint64()
	spec.Updates = c.Uint64()
	spec.BlockCounts = c.Uint64()
	spec.Scale = c.Float64()
	spec.Counters = int(min(c.Uvarint(), math.MaxInt))

	ovLen := c.Count(codec.MaxRecord, kw+1)
	if err := c.Err(); err != nil {
		return spec, err
	}
	// New, not MustNew: the capacity derives from decoded input, so a
	// constructor failure must surface as a decode error, not a panic.
	ov, err := keyidx.NewCounts[hierarchy.Prefix](max(ovLen, 1), prefixHash)
	if err != nil {
		return spec, codec.Corruptf("overflow table: %v", err)
	}
	for i := 0; i < ovLen; i++ {
		key := c.Key()
		val := c.Uvarint()
		if err := c.Err(); err != nil {
			return spec, err
		}
		if val > math.MaxInt32 {
			return spec, codec.Corruptf("overflow count %d exceeds int32", val)
		}
		h := ov.Hash(key)
		if _, dup := ov.GetH(key, h); dup {
			return spec, codec.Corruptf("duplicate overflow key")
		}
		ov.PutH(key, int32(val), h)
	}
	spec.Overflow = ov

	ssLen := c.Count(codec.MaxRecord, kw+2)
	spec.Items = c.Uint64()
	if err := c.Err(); err != nil {
		return spec, err
	}
	spec.Monitored = make([]spacesaving.Counter[hierarchy.Prefix], ssLen)
	for i := range spec.Monitored {
		spec.Monitored[i] = spacesaving.Counter[hierarchy.Prefix]{Key: c.Key(), Count: c.Uvarint(), Err: c.Uvarint()}
	}

	if flags&codec.FlagRestore != 0 {
		r := &RestoreSpec[hierarchy.Prefix]{UntilBlock: c.Uint64()}
		r.BlocksLeft = int(min(c.Uvarint(), math.MaxInt))
		r.FullUpdates = c.Uint64()
		r.ForcedDrains = c.Uint64()
		nq := c.Count(codec.MaxRecord, 1)
		if err := c.Err(); err != nil {
			return spec, err
		}
		r.Queues = make([][]hierarchy.Prefix, nq)
		for i := range r.Queues {
			qlen := c.Count(maxDecodeQueue, kw)
			if err := c.Err(); err != nil {
				return spec, err
			}
			q := make([]hierarchy.Prefix, qlen)
			for j := range q {
				q[j] = c.Key()
			}
			r.Queues[i] = q
		}
		spec.Restore = r
	}
	if err := c.Err(); err != nil {
		return spec, err
	}
	if c.Remaining() != 0 {
		return spec, codec.Corruptf("%d trailing bytes", c.Remaining())
	}
	return spec, nil
}

// RestoreFrom rehydrates the sketch from a checkpoint-plane snapshot:
// after it returns nil, the sketch answers every query exactly as the
// snapshot's source did at capture time and keeps sliding correctly
// from that position. The snapshot must carry the restore plane
// (CheckpointInto, or a decoded FlagRestore record) and match the
// sketch's seed-independent configuration; sampler state is not part
// of a snapshot, so the continued update stream is distributionally
// identical but not bit-identical to the source's.
func (s *Sketch[K]) RestoreFrom(snap *Snapshot[K]) error {
	if !snap.full {
		return codec.ErrNotRestorable
	}
	if snap.window != s.window || snap.k != s.k ||
		snap.blockCounts != s.blockCounts || snap.scale != s.scale {
		return fmt.Errorf("%w: snapshot (W=%d k=%d block=%d scale=%g) vs sketch (W=%d k=%d block=%d scale=%g)",
			codec.ErrConfigMismatch,
			snap.window, snap.k, snap.blockCounts, snap.scale,
			s.window, s.k, s.blockCounts, s.scale)
	}
	// Same W and k, and the restore plane came from a live sketch or
	// through Snapshot.build: ring size and frame position already hold.
	s.Reset()
	var ferr error
	// Monitored counters re-inserted under the live index's hash
	// (ascending, Iterate's bucket order).
	snap.y.Iterate(func(c spacesaving.Counter[K]) bool {
		if err := s.y.RestoreEntry(c.Key, c.Count, c.Err); err != nil {
			ferr = err
			return false
		}
		return true
	})
	if ferr != nil {
		s.Reset()
		return ferr
	}
	s.y.SetItems(snap.y.Items())
	for _, e := range snap.overflow.Entries() {
		s.overflow.Put(e.Key, e.Val)
	}
	s.ring.restoreFrom(snap.queues)
	s.frame = snap.frame
	s.updates = snap.updates
	return nil
}

// CheckpointInto is HHH's checkpoint-plane capture: SnapshotInto plus
// the restore plane of the underlying Memento sketch. Call it under
// the lock guarding hh.
//
//memento:noalloc
func (hh *HHH) CheckpointInto(snap *HHHSnapshot) {
	hh.mem.CheckpointInto(&snap.Snapshot)
	snap.hier = hh.hier
	snap.comp = hh.comp
}

// Hierarchy returns the captured prefix domain.
func (snap *HHHSnapshot) Hierarchy() hierarchy.Hierarchy { return snap.hier }

// AppendTo appends the snapshot as a self-contained KindHHH record
// and returns the extended buffer. It fails only when the hierarchy
// has no wire identifier (codec.HierID).
//
//memento:noalloc
func (snap *HHHSnapshot) AppendTo(dst []byte) ([]byte, error) {
	//memento:allow alloc "HierID allocates only on its unknown-hierarchy error path"
	id, err := codec.HierID(snap.hier)
	if err != nil {
		return dst, err
	}
	start := len(dst)
	dst = codec.AppendHeader(dst, codec.Header{
		Version: codec.Version,
		Kind:    codec.KindHHH,
		Flags:   snap.recordFlags(),
		Digest:  snap.hhhDigest(id),
	})
	dst = append(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(snap.comp))
	dst = appendBody(dst, &snap.Snapshot)
	codec.AccountEncode(codec.KindHHH, len(dst)-start)
	return dst, nil
}

// DecodeHHHSnapshot parses a KindHHH record into a fresh queryable
// HHHSnapshot. Malformed, truncated or version-skewed input is rejected
// with a wrapped typed error (codec.ErrCorrupt and friends), never a
// panic, and allocations are bounded by the record size; a record of
// any other kind, the retired keyed-sketch kind 1 among them, fails
// with codec.ErrKind. The rebuilt indexes use prefixHash, the hasher
// of every H-Memento table, so the snapshot merges with live-captured
// ones.
func DecodeHHHSnapshot(data []byte) (*HHHSnapshot, error) {
	h, body, err := codec.ReadHeader(data)
	if err != nil {
		return nil, err
	}
	if h.Kind != codec.KindHHH {
		return nil, fmt.Errorf("%w: kind %d, want hhh", codec.ErrKind, h.Kind)
	}
	c := codec.NewCursor(body)
	id := c.Byte()
	comp := c.Float64()
	if err := c.Err(); err != nil {
		return nil, err
	}
	hier, err := codec.HierByID(id)
	if err != nil {
		return nil, err
	}
	spec, err := parseBody(c, h.Flags)
	if err != nil {
		return nil, err
	}
	snap, err := buildHHHSnapshot(hier, comp, spec)
	if err != nil {
		return nil, err
	}
	if want := snap.hhhDigest(id); want != h.Digest {
		return nil, fmt.Errorf("%w: header digest %#x, body %#x", codec.ErrConfigMismatch, h.Digest, want)
	}
	codec.AccountDecode(codec.KindHHH, len(data))
	return snap, nil
}

// hhhDigest returns the KindHHH configuration digest of the captured
// instance under wire hierarchy id.
func (snap *HHHSnapshot) hhhDigest(id uint8) uint64 {
	return codec.HHHDigest(id, snap.window, uint64(snap.k), snap.blockCounts, snap.scale)
}

// RestoreFrom rehydrates the H-Memento instance from a
// checkpoint-plane snapshot. The hierarchy and the underlying
// sketch's seed-independent configuration must match; the sampling
// compensation is an output-computation parameter, not state, so the
// restored instance keeps its own configured Delta.
func (hh *HHH) RestoreFrom(snap *HHHSnapshot) error {
	if !hierarchy.Same(hh.hier, snap.hier) {
		return fmt.Errorf("%w: snapshot hierarchy %v vs instance %v",
			codec.ErrConfigMismatch, snap.hier, hh.hier)
	}
	if err := hh.mem.RestoreFrom(&snap.Snapshot); err != nil {
		return err
	}
	hh.skip = -1
	return nil
}
