// Durable codec bindings: encode a Snapshot/HHHSnapshot into the
// versioned internal/codec record format, decode one back into a
// queryable snapshot, and rehydrate a live sketch from a decoded (or
// same-process) checkpoint.
//
// The split of responsibilities: internal/codec owns the format
// (header, digest, bounded cursor, key codecs); this file owns the
// sketch-specific body layout. Encoding appends to a caller-provided
// buffer and allocates nothing once the buffer has warmed up
// (BenchmarkSnapshotEncode gates 0 allocs/op in CI). Decoding is
// strict: every count is validated against the bytes that remain
// before allocation, table rebuilds reject duplicates and
// non-monotone counter orders, and a record can only rehydrate a
// sketch whose seed-independent configuration matches
// (codec.ErrConfigMismatch otherwise).
//
// Decoded snapshots rebuild their key indexes under a caller-chosen
// hash function instead of trusting the source's slot layout, so
// records interoperate between processes with different hash seeds.

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

// digest returns the seed-independent configuration digest of the
// captured sketch.
func (snap *Snapshot[K]) digest() uint64 {
	return codec.SketchDigest(snap.window, uint64(snap.counters), snap.blockCounts, snap.scale)
}

// recordFlags returns the header flags for the captured state.
func (snap *Snapshot[K]) recordFlags() uint16 {
	if snap.full {
		return codec.FlagRestore
	}
	return 0
}

// AppendTo appends the snapshot as a self-contained KindSketch record
// (header + body) and returns the extended buffer. Keys are encoded
// through kc. With a reused buffer the call allocates nothing.
//
//memento:noalloc
func (snap *Snapshot[K]) AppendTo(dst []byte, kc codec.KeyCodec[K]) []byte {
	start := len(dst)
	dst = codec.AppendHeader(dst, codec.Header{
		Version: codec.Version,
		Kind:    codec.KindSketch,
		Flags:   snap.recordFlags(),
		Digest:  snap.digest(),
	})
	dst = snap.appendBody(dst, kc)
	codec.AccountEncode(codec.KindSketch, len(dst)-start)
	return dst
}

// appendBody appends the sketch section: configuration scalars, the
// overflow table (slab order; the decoder accepts any), the Space
// Saving counters (ascending count order — Iterate's bucket order —
// which the decoder verifies), and, for checkpoint-plane snapshots,
// the restore plane.
func (snap *Snapshot[K]) appendBody(dst []byte, kc codec.KeyCodec[K]) []byte {
	dst = binary.BigEndian.AppendUint64(dst, snap.window)
	dst = binary.BigEndian.AppendUint64(dst, snap.updates)
	dst = binary.BigEndian.AppendUint64(dst, snap.blockCounts)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(snap.scale))
	dst = binary.AppendUvarint(dst, uint64(snap.counters))

	dst = binary.AppendUvarint(dst, uint64(snap.overflow.Len()))
	for _, e := range snap.overflow.Entries() {
		dst = kc.AppendKey(dst, e.Key)
		dst = binary.AppendUvarint(dst, uint64(e.Val))
	}

	dst = binary.AppendUvarint(dst, uint64(snap.y.Len()))
	dst = binary.BigEndian.AppendUint64(dst, snap.y.Items())
	//memento:allow alloc "closure does not escape: Iterate only scans (BenchmarkSnapshotEncode gates 0 allocs/op)"
	snap.y.Iterate(func(c spacesaving.Counter[K]) bool {
		dst = kc.AppendKey(dst, c.Key)
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
			dst = kc.AppendKey(dst, key)
		}
	}
	return dst
}

// DecodeSnapshot parses a KindSketch record produced by AppendTo into
// a fresh queryable Snapshot. hash selects the hash function the
// rebuilt indexes use (nil: the keyidx default); pass the same
// function the target sketch uses when the snapshot will feed
// RestoreFrom — any function is correct, a shared one avoids double
// hashing. Malformed, truncated or version-skewed input is rejected
// with a wrapped typed error (codec.ErrCorrupt and friends), never a
// panic, and allocations are bounded by the record size.
func DecodeSnapshot[K comparable](data []byte, kc codec.KeyCodec[K], hash func(K) uint64) (*Snapshot[K], error) {
	h, body, err := codec.ReadHeader(data)
	if err != nil {
		return nil, err
	}
	if h.Kind != codec.KindSketch {
		return nil, fmt.Errorf("%w: kind %d, want sketch", codec.ErrKind, h.Kind)
	}
	snap := new(Snapshot[K])
	c := codec.NewCursor(body)
	if err := snap.decodeBody(c, h.Flags, kc, hash); err != nil {
		return nil, err
	}
	if c.Remaining() != 0 {
		return nil, codec.Corruptf("%d trailing bytes", c.Remaining())
	}
	if snap.digest() != h.Digest {
		return nil, fmt.Errorf("%w: header digest %#x, body %#x", codec.ErrConfigMismatch, h.Digest, snap.digest())
	}
	codec.AccountDecode(codec.KindSketch, len(data))
	return snap, nil
}

// maxDecodeQueue bounds restore-plane ring entries per queue as a
// sanity backstop on top of the remaining-bytes bound.
const maxDecodeQueue = 1 << 24

// decodeBody parses the sketch section from c into snap.
func (snap *Snapshot[K]) decodeBody(c *codec.Cursor, flags uint16, kc codec.KeyCodec[K], hash func(K) uint64) error {
	kw := kc.Width()
	snap.window = c.Uint64()
	snap.updates = c.Uint64()
	snap.blockCounts = c.Uint64()
	snap.scale = c.Float64()
	k := c.Uvarint()
	if err := c.Err(); err != nil {
		return err
	}
	const maxK = 1 << 28 // spacesaving's own cap
	if k == 0 || k > maxK {
		return codec.Corruptf("counter budget %d out of range", k)
	}
	if snap.blockCounts == 0 {
		return codec.Corruptf("zero block threshold")
	}
	if snap.window == 0 || snap.window%k != 0 {
		return codec.Corruptf("window %d not a multiple of %d blocks", snap.window, k)
	}
	if !(snap.scale >= 1) {
		return codec.Corruptf("scale %g below 1", snap.scale)
	}
	snap.counters = int(k)
	if hash == nil {
		hash = keyidx.DefaultHasher[K]()
	}
	snap.hash = hash

	// Overflow table: rebuilt under the chosen hash; duplicate keys
	// and non-positive counts are corruption.
	ovLen := c.Count(codec.MaxRecord, kw+1)
	if err := c.Err(); err != nil {
		return err
	}
	// New, not MustNew: the capacity derives from decoded input, so a
	// constructor failure must surface as a decode error, not a panic.
	ov, err := keyidx.NewCounts[K](max(ovLen, 1), hash)
	if err != nil {
		return codec.Corruptf("overflow table: %v", err)
	}
	for i := 0; i < ovLen; i++ {
		key := codec.Key(c, kc)
		val := c.Uvarint()
		if err := c.Err(); err != nil {
			return err
		}
		if val == 0 || val > math.MaxInt32 {
			return codec.Corruptf("overflow count %d out of range", val)
		}
		h := ov.Hash(key)
		if _, dup := ov.GetH(key, h); dup {
			return codec.Corruptf("duplicate overflow key")
		}
		ov.PutH(key, int32(val), h)
	}
	snap.overflow = *ov

	// Space Saving counters, ascending count order. Capacity preserves
	// the saturated/unsaturated distinction Min() depends on while
	// sizing slabs by the entries actually present, so a hostile
	// declared budget cannot drive a huge allocation.
	ssLen := c.Count(int(k), kw+2)
	items := c.Uint64()
	if err := c.Err(); err != nil {
		return err
	}
	ssCap := ssLen
	if uint64(ssLen) < k {
		ssCap++ // leave headroom: unsaturated sketches answer Min() = 0
	}
	y, err := spacesaving.NewWithHash[K](max(ssCap, 1), hash)
	if err != nil {
		return err
	}
	var prev uint64
	for i := 0; i < ssLen; i++ {
		key := codec.Key(c, kc)
		count := c.Uvarint()
		errTerm := c.Uvarint()
		if err := c.Err(); err != nil {
			return err
		}
		if count < prev {
			return codec.Corruptf("counter order not ascending (%d after %d)", count, prev)
		}
		prev = count
		if err := y.RestoreEntry(key, count, errTerm); err != nil {
			return codec.Corruptf("%v", err)
		}
	}
	y.SetItems(items)
	snap.y = *y

	snap.full = flags&codec.FlagRestore != 0
	if !snap.full {
		snap.queues = nil
		return nil
	}

	// Restore plane.
	snap.untilBlock = c.Uint64()
	blocksLeft := c.Uvarint()
	snap.fullCount = c.Uint64()
	snap.forcedDrains = c.Uint64()
	nq := c.Count(int(k)+1, 1)
	if err := c.Err(); err != nil {
		return err
	}
	blockPackets := snap.window / k
	if snap.untilBlock == 0 || snap.untilBlock > blockPackets {
		return codec.Corruptf("frame position %d outside block of %d", snap.untilBlock, blockPackets)
	}
	if blocksLeft == 0 || blocksLeft > k {
		return codec.Corruptf("blocks left %d outside 1..%d", blocksLeft, k)
	}
	snap.blocksLeft = int(blocksLeft)
	if uint64(nq) != k+1 {
		return codec.Corruptf("%d ring queues, want %d", nq, k+1)
	}
	if cap(snap.queues) < nq {
		snap.queues = make([][]K, nq)
	} else {
		snap.queues = snap.queues[:nq]
	}
	for i := 0; i < nq; i++ {
		qlen := c.Count(maxDecodeQueue, kw)
		if err := c.Err(); err != nil {
			return err
		}
		q := snap.queues[i][:0]
		for j := 0; j < qlen; j++ {
			q = append(q, codec.Key(c, kc))
		}
		snap.queues[i] = q
	}
	return c.Err()
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
	if snap.window != s.window || snap.counters != s.k ||
		snap.blockCounts != s.blockCounts || snap.scale != s.scale {
		return fmt.Errorf("%w: snapshot (W=%d k=%d block=%d scale=%g) vs sketch (W=%d k=%d block=%d scale=%g)",
			codec.ErrConfigMismatch,
			snap.window, snap.counters, snap.blockCounts, snap.scale,
			s.window, s.k, s.blockCounts, s.scale)
	}
	if len(snap.queues) != s.k+1 {
		return codec.Corruptf("%d ring queues, want %d", len(snap.queues), s.k+1)
	}
	if snap.untilBlock == 0 || snap.untilBlock > s.blockPackets {
		return codec.Corruptf("frame position %d outside block of %d", snap.untilBlock, s.blockPackets)
	}
	if snap.blocksLeft <= 0 || snap.blocksLeft > s.k {
		return codec.Corruptf("blocks left %d outside 1..%d", snap.blocksLeft, s.k)
	}
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
		if e.Val <= 0 {
			s.Reset()
			return codec.Corruptf("overflow count %d out of range", e.Val)
		}
		s.overflow.Put(e.Key, e.Val)
	}
	s.ring.restoreFrom(snap.queues)
	s.untilBlock = snap.untilBlock
	s.blocksLeft = snap.blocksLeft
	s.updates = snap.updates
	s.fullCount = snap.fullCount
	s.forcedDrains = snap.forcedDrains
	return nil
}

// CheckpointInto is HHH's checkpoint-plane capture: SnapshotInto plus
// the restore plane of the underlying Memento sketch. Call it under
// the lock guarding hh.
//
//memento:noalloc
func (hh *HHH) CheckpointInto(snap *HHHSnapshot) {
	hh.mem.CheckpointInto(&snap.mem)
	snap.hier = hh.hier
	snap.comp = hh.comp
}

// Hierarchy returns the captured prefix domain.
func (snap *HHHSnapshot) Hierarchy() hierarchy.Hierarchy { return snap.hier }

// Restorable reports whether the snapshot carries the restore plane.
func (snap *HHHSnapshot) Restorable() bool { return snap.mem.full }

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
		Flags:   snap.mem.recordFlags(),
		Digest:  codec.HHHDigest(id, snap.mem.window, uint64(snap.mem.counters), snap.mem.blockCounts, snap.mem.scale),
	})
	dst = append(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(snap.comp))
	dst = snap.mem.appendBody(dst, codec.PrefixKeys{})
	codec.AccountEncode(codec.KindHHH, len(dst)-start)
	return dst, nil
}

// DecodeHHHSnapshot parses a KindHHH record into a fresh queryable
// HHHSnapshot, with the same strictness guarantees as DecodeSnapshot.
// The rebuilt indexes use hierarchy.PrefixHasher(0).
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
	if comp < 0 {
		return nil, codec.Corruptf("negative compensation %g", comp)
	}
	snap := &HHHSnapshot{hier: hier, comp: comp}
	if err := snap.mem.decodeBody(c, h.Flags, codec.PrefixKeys{}, hierarchy.PrefixHasher(0)); err != nil {
		return nil, err
	}
	if c.Remaining() != 0 {
		return nil, codec.Corruptf("%d trailing bytes", c.Remaining())
	}
	want := codec.HHHDigest(id, snap.mem.window, uint64(snap.mem.counters), snap.mem.blockCounts, snap.mem.scale)
	if want != h.Digest {
		return nil, fmt.Errorf("%w: header digest %#x, body %#x", codec.ErrConfigMismatch, h.Digest, want)
	}
	codec.AccountDecode(codec.KindHHH, len(data))
	return snap, nil
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
	if err := hh.mem.RestoreFrom(&snap.mem); err != nil {
		return err
	}
	hh.skip = -1
	return nil
}
