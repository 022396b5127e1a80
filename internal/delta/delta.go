// Package delta implements incremental replication of H-Memento
// sketch state: epoch-stamped base+delta chains layered on the
// format-v1 codec, so that a follower (the network-wide controller, a
// warm-restart checkpoint directory) can track a live sketch by
// receiving only what changed since the last record instead of the
// whole table — the fix for the byte cost of full snapshot shipping
// (DESIGN.md §7; the repository benchmark reports both sides as
// codec.snapshot_bytes and delta.bytes_per_record).
//
// # Chain model
//
// A chain is identified by a 64-bit chain id, which a Tracker draws at
// random (a checkpoint, a chain of one base, uses a fixed one), and
// advances in epochs. Every record is a codec.KindHHHDelta record
// carrying (chain, epoch):
//
//   - A base (codec.FlagBase) embeds a complete, self-contained
//     KindHHH snapshot record and (re)starts the chain at its epoch.
//   - A delta carries only the counters that changed during one
//     capture interval — found by diffing the Space Saving slots the
//     interval touched, see tracker.go — plus absolute scalar state and,
//     for checkpoint chains, the block-ring/frame-position restore
//     plane. A delta at epoch e applies only to state at epoch e−1 of
//     the same chain.
//
// Apply validation is strict: a missing base, a chain-id mismatch, or
// a non-consecutive epoch surfaces ErrEpochGap — the follower must
// request a fresh base (resync) rather than diverge silently — and a
// record whose config digest disagrees with the applied base is
// rejected with codec.ErrConfigMismatch. Malformed bytes fail with
// the codec's typed errors, never a panic, and never an allocation
// larger than the record itself (FuzzApplyDeltaChain pins this).
//
// # Fidelity floor
//
// A Tracker with Floor = 0 replicates exactly: the follower's
// replica answers every query — including the full
// OutputMerged HHH-set computation — identically to a snapshot of the
// source sketch taken at the same cadence (netwide's
// TestDeltaMatchesSnapshotFleet merges those snapshots in process). Floor > 0 trades
// fidelity for bytes: monitored counters whose guaranteed count
// (count − error term) is below the floor and that were never shipped
// (and do not touch the overflow table) stay local, so the churning
// tail of a skewed stream — the bulk of a Space Saving table's
// entropy, whose counters inherit count ≈ Min but guarantee nothing —
// never crosses the wire. Overflow-table state, which drives
// heavy-hitter membership, is always replicated exactly. The natural
// floor is the sketch's block threshold (one block's worth of counts,
// below which a counter cannot overflow).
//
// # Record layout
//
// Every record is header (codec.Header, kind KindHHHDelta, digest =
// the sketch's HHH config digest) + body:
//
//	u64 chain  — chain identity
//	u64 epoch  — state epoch after applying this record
//
// Base bodies (FlagBase) continue with one embedded record:
//
//	uvarint n, n bytes — a complete KindHHH record (own header)
//
// Delta bodies continue with absolute scalars and per-key state:
//
//	u64 updates, u64 items
//	uvarint nEntries, then per entry:
//	  prefix key (codec.PrefixKeys)
//	  uvarint count — in-frame counter; 0 = not monitored
//	  uvarint err   — counter error term, present iff count > 0
//	  uvarint b     — overflow-table value; 0 = absent
//	if FlagRestore:
//	  u64 untilBlock, uvarint blocksLeft, u64 fullUpdates,
//	  u64 forcedDrains, uvarint nQueues, per queue:
//	  uvarint len, keys
//
// FlagClearMonitored (set when the interval crossed a frame boundary)
// tells the applier to clear the monitored set before installing
// entries. Nothing clears the overflow table in a delta: a Reset, the
// only event that empties B wholesale, forces a fresh base instead.
// Any other header flag bit is refused as corruption.
//
//memento:deterministic
package delta

import (
	"encoding/binary"
	"errors"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/hierarchy"
)

// ErrEpochGap reports a chain discontinuity: a delta arrived for an
// epoch the follower is not at (missing base, chain restart, or a
// lost record in between). The only safe response is a resync — apply
// a fresh base — never a silent best-effort merge.
var ErrEpochGap = errors.New("delta: epoch gap, resync required")

// maxQueueLen bounds restore-plane ring entries per queue, mirroring
// core's decode backstop.
const maxQueueLen = 1 << 24

// knownFlags are the header flags a chain record may carry.
const knownFlags = codec.FlagRestore | codec.FlagBase | codec.FlagClearMonitored

// prefixKeys is the shared key codec of every HHH delta record.
var prefixKeys = codec.PrefixKeys{}

// appendEntry appends one per-key state entry in wire order.
func appendEntry(dst []byte, key hierarchy.Prefix, count, err uint64, b int32) []byte {
	dst = prefixKeys.AppendKey(dst, key)
	dst = binary.AppendUvarint(dst, count)
	if count > 0 {
		dst = binary.AppendUvarint(dst, err)
	}
	return binary.AppendUvarint(dst, uint64(b))
}

// hhhDigest computes the config digest a record must carry for the
// captured sketch state.
func hhhDigest(hierID uint8, window uint64, counters int, blockCounts uint64, scale float64) uint64 {
	return codec.HHHDigest(hierID, window, uint64(counters), blockCounts, scale)
}

// snapDigest returns the config digest of snap's state; it fails only
// when the hierarchy has no wire identifier.
func snapDigest(snap *core.HHHSnapshot) (uint64, error) {
	id, err := codec.HierID(snap.Hierarchy())
	if err != nil {
		return 0, err
	}
	mem := snap.Sketch()
	return hhhDigest(id, uint64(mem.EffectiveWindow()), mem.Counters(), mem.BlockCounts(), mem.Scale()), nil
}

// AppendBase appends a chain base at (chain, epoch) embedding snap to
// dst. Every base is written here: a Tracker's, and each shard's of
// shard.HHH.Checkpoint, a base that no delta follows. The record
// carries the restore plane iff snap does.
func AppendBase(dst []byte, snap *core.HHHSnapshot, chain, epoch uint64) ([]byte, error) {
	start := len(dst)
	digest, err := snapDigest(snap)
	if err != nil {
		return dst, err
	}
	flags := codec.FlagBase
	if snap.Restorable() {
		flags |= codec.FlagRestore
	}
	dst = codec.AppendHeader(dst, codec.Header{
		Version: codec.Version,
		Kind:    codec.KindHHHDelta,
		Flags:   flags,
		Digest:  digest,
	})
	dst = binary.BigEndian.AppendUint64(dst, chain)
	dst = binary.BigEndian.AppendUint64(dst, epoch)
	// Length-prefixed embedded record: reserve a maximal uvarint
	// prefix, encode in place, then shift the record back over the
	// unused prefix bytes (bases are control-plane rate; the move is
	// cheaper than encoding twice).
	prefixAt := len(dst)
	dst = append(dst, make([]byte, binary.MaxVarintLen64)...)
	recAt := len(dst)
	dst, err = snap.AppendTo(dst)
	if err != nil {
		return dst[:start], err
	}
	recLen := len(dst) - recAt
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(recLen))
	copy(dst[prefixAt:], lenBuf[:n])
	copy(dst[prefixAt+n:], dst[recAt:])
	dst = dst[:prefixAt+n+recLen]
	codec.AccountEncode(codec.KindHHHDelta, len(dst)-start)
	return dst, nil
}
