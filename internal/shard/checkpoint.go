// Checkpoint/Restore: durable capture of a whole sharded instance.
//
// A checkpoint is a codec set record: a fixed envelope (header, shard
// count and a reserved zero word) followed by one length-prefixed,
// self-contained per-shard snapshot record. Capture follows the read
// plane's probe discipline — every shard lock is acquired exactly
// once, held only for the checkpoint-plane slab copy
// (core.HHH.CheckpointInto) — so a checkpoint stalls ingestion no
// longer than a query does; encoding and writing happen outside the
// locks. Like every multi-shard read, the result is a fuzzy snapshot
// under concurrent writers: per-shard states may be captured at
// slightly different stream positions, exactly as queries see them.
//
// Restore is the inverse: it validates the envelope against the live
// configuration (shard count, and per-shard seed-independent
// parameters via core.HHH.RestoreFrom), decodes every blob before
// touching any shard, then rehydrates each shard under its lock. A
// restored instance answers every query exactly as the source did at
// capture time and keeps sliding from that position.

package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/hierarchy"
)

// envelopeSize is the fixed checkpoint preamble: header + u32 shard
// count + u64 reserved (written as zero, ignored on read).
const envelopeSize = codec.HeaderSize + 4 + 8

// appendEnvelope builds the checkpoint preamble.
func appendEnvelope(dst []byte, kind uint8, shards int) []byte {
	dst = codec.AppendHeader(dst, codec.Header{
		Version: codec.Version,
		Kind:    kind,
		Flags:   codec.FlagRestore,
		Digest:  codec.SetDigest(kind, shards),
	})
	dst = binary.BigEndian.AppendUint32(dst, uint32(shards))
	return binary.BigEndian.AppendUint64(dst, 0)
}

// readEnvelope parses and validates the checkpoint preamble.
func readEnvelope(r io.Reader, kind uint8) (shards int, err error) {
	var head [envelopeSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, codec.Corruptf("reading envelope: %v", err)
	}
	h, rest, err := codec.ReadHeader(head[:])
	if err != nil {
		return 0, err
	}
	if h.Kind != kind {
		return 0, fmt.Errorf("%w: kind %d, want %d", codec.ErrKind, h.Kind, kind)
	}
	if h.Flags&codec.FlagRestore == 0 {
		return 0, codec.ErrNotRestorable
	}
	n := binary.BigEndian.Uint32(rest)
	if n == 0 || n > codec.MaxShards {
		return 0, codec.Corruptf("shard count %d out of range", n)
	}
	if h.Digest != codec.SetDigest(kind, int(n)) {
		return 0, fmt.Errorf("%w: envelope digest", codec.ErrConfigMismatch)
	}
	return int(n), nil
}

// writeBlob writes one length-prefixed snapshot record.
func writeBlob(w io.Writer, blob []byte) error {
	if len(blob) > codec.MaxRecord {
		return fmt.Errorf("shard: snapshot record of %d bytes exceeds limit", len(blob))
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(blob)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(blob)
	return err
}

// readBlob reads one length-prefixed snapshot record, reusing buf.
func readBlob(r io.Reader, buf []byte) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, codec.Corruptf("reading record length: %v", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > codec.MaxRecord {
		return nil, codec.Corruptf("record length %d out of range", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, codec.Corruptf("reading %d-byte record: %v", n, err)
	}
	return buf, nil
}

// Checkpoint writes the whole sharded H-Memento to w as a KindHHHSet
// record, with the same one-lock-pass-per-shard capture discipline as
// Output (the counting probe covers it).
func (s *HHH) Checkpoint(w io.Writer) error {
	if _, err := w.Write(appendEnvelope(nil, codec.KindHHHSet, len(s.shards))); err != nil {
		return err
	}
	snap := new(core.HHHSnapshot)
	var buf []byte
	total := envelopeSize
	for i := range s.shards {
		sl := &s.shards[i]
		s.lockShardRead(sl)
		sl.hh.CheckpointInto(snap)
		sl.mu.Unlock()
		blob, err := snap.AppendTo(buf[:0])
		if err != nil {
			return err
		}
		buf = blob
		if err := writeBlob(w, blob); err != nil {
			return err
		}
		total += 4 + len(blob)
	}
	codec.AccountEncode(codec.KindHHHSet, total)
	return nil
}

// Restore rehydrates the sharded H-Memento from a Checkpoint stream.
// The checkpoint's shard count and per-shard configuration must match
// this instance's; every record is decoded and validated before any
// shard is touched, so a malformed stream leaves the instance
// unchanged. (A failure surfaced while applying validated snapshots —
// not reachable from streams this package writes — can leave earlier
// shards restored; discard the instance then.)
func (s *HHH) Restore(r io.Reader) error {
	snaps, err := DecodeHHHCheckpoint(r)
	if err != nil {
		return err
	}
	if len(snaps) != len(s.shards) {
		return fmt.Errorf("%w: checkpoint has %d shards, instance %d",
			codec.ErrConfigMismatch, len(snaps), len(s.shards))
	}
	for i, snap := range snaps {
		if !snap.Restorable() {
			return fmt.Errorf("shard %d: %w", i, codec.ErrNotRestorable)
		}
	}
	for i, snap := range snaps {
		sl := &s.shards[i]
		sl.mu.Lock()
		err = sl.hh.RestoreFrom(snap)
		sl.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// DecodeHHHCheckpoint reads a KindHHHSet stream into its per-shard
// snapshots without constructing a live instance — the offline path
// (cmd/mementoctl inspect/merge) feeds them straight to a Merger.
func DecodeHHHCheckpoint(r io.Reader) ([]*core.HHHSnapshot, error) {
	shards, err := readEnvelope(r, codec.KindHHHSet)
	if err != nil {
		return nil, err
	}
	snaps := make([]*core.HHHSnapshot, shards)
	var buf []byte
	total := envelopeSize
	for i := range snaps {
		if buf, err = readBlob(r, buf); err != nil {
			return nil, err
		}
		total += 4 + len(buf)
		if snaps[i], err = core.DecodeHHHSnapshot(buf); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	codec.AccountDecode(codec.KindHHHSet, total)
	return snaps, nil
}

// RestoreHHH constructs a live sharded H-Memento directly from a
// Checkpoint stream, deriving each shard's configuration from its
// snapshot (window, counter budget, sampling ratio V = scale,
// hierarchy) instead of requiring the caller to restate it — the warm
// restart and offline-load path. The audit sampling hash is the
// default PrefixHasher and per-shard seeds derive from the default
// seed; the restored instance keeps the default output Delta, so its
// sampling compensation matches the source's only if the source used
// the default too (the compensation is an output parameter, not
// state).
func RestoreHHH(r io.Reader) (*HHH, error) {
	snaps, err := DecodeHHHCheckpoint(r)
	if err != nil {
		return nil, err
	}
	return restoreHHHFromSnaps(snaps)
}

// RestoreHHHFromSnapshots builds a live sharded instance from decoded
// per-partition restore-plane snapshots — the entry point for callers
// that assembled the snapshots themselves (cmd/mementoctl folding a
// single-instance controller chain into a one-shard view). The audit
// hash and seeds follow RestoreHHH's derivation rules.
func RestoreHHHFromSnapshots(snaps []*core.HHHSnapshot) (*HHH, error) {
	if len(snaps) == 0 {
		return nil, errors.New("shard: no snapshots to restore from")
	}
	return restoreHHHFromSnaps(snaps)
}

// restoreHHHFromSnaps builds the live instance from decoded per-shard
// restore-plane snapshots; shared by RestoreHHH (full checkpoints)
// and RestoreHHHChain (base+delta chains).
func restoreHHHFromSnaps(snaps []*core.HHHSnapshot) (*HHH, error) {
	for i, snap := range snaps {
		if !snap.Restorable() {
			return nil, fmt.Errorf("shard %d: %w", i, codec.ErrNotRestorable)
		}
		if !hierarchy.Same(snap.Hierarchy(), snaps[0].Hierarchy()) {
			return nil, fmt.Errorf("%w: shard %d hierarchy %v vs shard 0 %v",
				codec.ErrConfigMismatch, i, snap.Hierarchy(), snaps[0].Hierarchy())
		}
	}
	hier := snaps[0].Hierarchy()
	s := &HHH{
		shards: make([]hhhSlot, len(snaps)),
		hier:   hier,
	}
	var varSum float64
	for i, snap := range snaps {
		mem := snap.Sketch()
		scale := mem.Scale()
		v := int(scale)
		if float64(v) != scale || v < hier.H() {
			return nil, fmt.Errorf("%w: shard %d scale %g is not a valid sampling ratio",
				codec.ErrConfigMismatch, i, scale)
		}
		hh, err := core.NewHHH(core.HHHConfig{
			Hierarchy: hier,
			Window:    mem.EffectiveWindow(),
			Counters:  mem.Counters(),
			V:         v,
			Seed:      defaultSeed + uint64(i)*0x9e3779b97f4a7c15,
		})
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if err := hh.RestoreFrom(snap); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		//memento:allow lock "instance under construction; not yet shared"
		s.shards[i].hh = hh
		s.window += hh.EffectiveWindow()
		varSum += snap.Compensation() * snap.Compensation()
	}
	// Preserve the source's merged compensation (root sum of squares
	// over the captured per-shard terms).
	s.comp = math.Sqrt(varSum)
	ph := hierarchy.PrefixHasher(defaultSeed)
	s.hash = func(p hierarchy.Packet) uint64 { return ph(hier.Fully(p)) }
	s.initPools()
	return s, nil
}
