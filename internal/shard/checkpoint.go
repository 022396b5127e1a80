// The on-disk form of a sharded H-Memento: KindHHHDeltaSet records. A
// set record is a fixed envelope (header, shard count and a reserved
// zero word) followed by one length-prefixed internal/delta chain
// record per shard. Checkpoint writes a base-only step: each shard's
// chain base, at a fixed chain identity and epoch 1, so one state
// always writes the same bytes. With delta checkpoints enabled,
// WriteChain advances one chain per shard in lockstep instead: a base
// step costs what Checkpoint costs, every other step only what
// changed, which is what makes a tight -checkpoint-every cadence
// affordable (cmd/lbproxy's warm-restart checkpointer).
//
// Capture follows the read plane's probe discipline: every shard lock
// is acquired exactly once, held only for the slab copy (and, for a
// chain step, the slot diff), so a checkpoint stalls ingestion no
// longer than a query does; encoding and writing happen outside the
// locks. Like every multi-shard read, the result is a fuzzy snapshot
// under concurrent writers: per-shard states may be captured at
// slightly different stream positions, exactly as queries see them.
//
// Reading is ApplyHHHDeltaSet, file by file. RestoreHHHChain and
// RestoreHHHFromSnapshots build a live instance from the applied
// states, deriving the configuration from the records; it answers
// every query exactly as the source did at capture time and keeps
// sliding from that position.

package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/delta"
	"memento/internal/hierarchy"
)

// envelopeSize is the fixed set preamble: header + u32 shard count +
// u64 reserved (written as zero, ignored on read).
const envelopeSize = codec.HeaderSize + 4 + 8

// checkpointChain is the chain identity of every Checkpoint base. It
// is fixed, so that a state's checkpoint bytes do not vary, and even,
// so that it never equals an identity a Tracker draws (those are odd).
const checkpointChain = 2

// appendEnvelope builds the set preamble.
func appendEnvelope(dst []byte, shards int) []byte {
	dst = codec.AppendHeader(dst, codec.Header{
		Version: codec.Version,
		Kind:    codec.KindHHHDeltaSet,
		Flags:   codec.FlagRestore,
		Digest:  codec.SetDigest(codec.KindHHHDeltaSet, shards),
	})
	dst = binary.BigEndian.AppendUint32(dst, uint32(shards))
	return binary.BigEndian.AppendUint64(dst, 0)
}

// readEnvelope parses and validates the set preamble.
func readEnvelope(r io.Reader) (shards int, err error) {
	var head [envelopeSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, codec.Corruptf("reading envelope: %v", err)
	}
	h, rest, err := codec.ReadHeader(head[:])
	if err != nil {
		return 0, err
	}
	if h.Kind != codec.KindHHHDeltaSet {
		return 0, fmt.Errorf("%w: kind %d, want %d", codec.ErrKind, h.Kind, codec.KindHHHDeltaSet)
	}
	if h.Flags&codec.FlagRestore == 0 {
		return 0, codec.ErrNotRestorable
	}
	n := binary.BigEndian.Uint32(rest)
	if n == 0 || n > codec.MaxShards {
		return 0, codec.Corruptf("shard count %d out of range", n)
	}
	if h.Digest != codec.SetDigest(codec.KindHHHDeltaSet, int(n)) {
		return 0, fmt.Errorf("%w: envelope digest", codec.ErrConfigMismatch)
	}
	return int(n), nil
}

// writeSet writes one set record to w: the envelope, then shard i's
// chain record as appendRecord appends it to a reused buffer.
func writeSet(w io.Writer, shards int, appendRecord func(i int, dst []byte) ([]byte, error)) error {
	if _, err := w.Write(appendEnvelope(nil, shards)); err != nil {
		return err
	}
	var buf []byte
	total := envelopeSize
	for i := 0; i < shards; i++ {
		rec, err := appendRecord(i, buf[:0])
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		buf = rec
		if err := writeBlob(w, rec); err != nil {
			return err
		}
		total += 4 + len(rec)
	}
	codec.AccountEncode(codec.KindHHHDeltaSet, total)
	return nil
}

// writeBlob writes one length-prefixed record.
func writeBlob(w io.Writer, blob []byte) error {
	if len(blob) > codec.MaxRecord {
		return fmt.Errorf("shard: record of %d bytes exceeds limit", len(blob))
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(blob)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(blob)
	return err
}

// readBlob reads one length-prefixed record, reusing buf. It grows buf
// as the bytes arrive, at most doubling what it holds, so a length
// prefix that names more than the input carries costs about what the
// input carries, not the length it names.
func readBlob(r io.Reader, buf []byte) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, codec.Corruptf("reading record length: %v", err)
	}
	n := int(binary.BigEndian.Uint32(lenBuf[:]))
	if n == 0 || n > codec.MaxRecord {
		return nil, codec.Corruptf("record length %d out of range", n)
	}
	buf = buf[:0]
	for len(buf) < n {
		chunk := min(n-len(buf), max(len(buf), 64<<10))
		buf = slices.Grow(buf, chunk)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+chunk])
		buf = buf[:len(buf)+got]
		if err != nil {
			return nil, codec.Corruptf("reading %d-byte record: %v", n, err)
		}
	}
	return buf, nil
}

// Checkpoint writes the whole sharded H-Memento to w as a base-only
// set step, with the same one-lock-pass-per-shard capture discipline
// as Output (the counting probe covers it). It needs no delta
// checkpoints and leaves the shards' update path as it was.
func (s *HHH) Checkpoint(w io.Writer) error {
	snap := new(core.HHHSnapshot)
	return writeSet(w, len(s.shards), func(i int, dst []byte) ([]byte, error) {
		sl := &s.shards[i]
		s.lockShardRead(sl)
		sl.hh.CheckpointInto(snap)
		sl.mu.Unlock()
		return delta.AppendBase(dst, snap, checkpointChain, 1)
	})
}

// DecodeHHHCheckpoint reads a base-only set step, such as a
// Checkpoint, into its per-shard snapshots without constructing a
// live instance: each is the shard's decoded base. A delta step fails
// with delta.ErrEpochGap, any other record kind with codec.ErrKind.
func DecodeHHHCheckpoint(r io.Reader) ([]*core.HHHSnapshot, error) {
	sts, err := ApplyHHHDeltaSet(r, nil)
	if err != nil {
		return nil, err
	}
	snaps := make([]*core.HHHSnapshot, len(sts))
	for i, st := range sts {
		snaps[i] = st.Replica()
	}
	return snaps, nil
}

// deltaTracker aliases the chain encoder so the HHH struct definition
// (hhh.go) needs no delta import.
type deltaTracker = delta.Tracker

// EnableDeltaCheckpoints creates the per-shard replication chain
// encoders (restore plane on, exact fidelity — local persistence must
// rehydrate byte-identical state). chain is the shared chain
// identity; 0 draws a random one. Idempotent after the first call.
func (s *HHH) EnableDeltaCheckpoints(chain uint64) error {
	if s.trackers != nil {
		return nil
	}
	trackers := make([]*delta.Tracker, len(s.shards))
	for i := range s.shards {
		sl := &s.shards[i]
		// Enabling hooks the sketch's delta plane; take the shard lock
		// so it never races concurrent ingestion (updates landing in
		// the window would go unmarked — exactly the silent divergence
		// chains exist to prevent).
		sl.mu.Lock()
		tr, err := delta.NewTracker(sl.hh, delta.TrackerConfig{
			Chain:   chain,
			Restore: true,
		})
		sl.mu.Unlock()
		if err != nil {
			return err
		}
		if chain == 0 {
			chain = tr.Chain() // shards share the drawn identity
		}
		trackers[i] = tr
	}
	s.trackers = trackers
	return nil
}

// WriteChain writes the next delta-checkpoint step to w — a full base
// when rebase is set or any shard's chain needs one — and reports
// whether a base was written. It implements delta.Source, so a
// delta.Checkpointer can drive it directly.
func (s *HHH) WriteChain(w io.Writer, rebase bool) (bool, error) {
	if s.trackers == nil {
		return false, errors.New("shard: delta checkpoints not enabled")
	}
	// Capture every shard first, then decide the step flavor: if any
	// shard must rebase (first step, forced, or a reset was detected
	// in its drained interval), every shard rebases, keeping the file's
	// records uniform so a chain always restarts from one .base file.
	for i := range s.shards {
		sl := &s.shards[i]
		s.lockShardRead(sl)
		err := s.trackers[i].Capture()
		sl.mu.Unlock()
		if err != nil {
			return false, err
		}
	}
	base := rebase
	for _, tr := range s.trackers {
		if tr.PendingBase() {
			base = true
		}
	}
	if base {
		for _, tr := range s.trackers {
			tr.ForceBase()
		}
	}
	err := writeSet(w, len(s.shards), func(i int, dst []byte) ([]byte, error) {
		rec, isBase, err := s.trackers[i].AppendCaptured(dst)
		if err == nil && isBase != base {
			err = errors.New("record flavor diverged from set")
		}
		return rec, err
	})
	return base, err
}

// ApplyHHHDeltaSet reads one KindHHHDeltaSet record from r and
// applies its per-shard chain records. sts carries the follower's
// per-shard states: pass nil for the first (base) file — fresh states
// are created — and the returned slice for every later file. Errors
// follow internal/delta.State.Apply's contract (ErrEpochGap on chain
// discontinuity, codec typed errors on corruption).
func ApplyHHHDeltaSet(r io.Reader, sts []*delta.State) ([]*delta.State, error) {
	shards, err := readEnvelope(r)
	if err != nil {
		return sts, err
	}
	if sts == nil {
		sts = make([]*delta.State, shards)
		for i := range sts {
			sts[i] = delta.NewState()
		}
	} else if len(sts) != shards {
		return sts, fmt.Errorf("%w: set has %d shards, follower %d",
			codec.ErrConfigMismatch, shards, len(sts))
	}
	var buf []byte
	total := envelopeSize
	for i := range sts {
		if buf, err = readBlob(r, buf); err != nil {
			return sts, err
		}
		total += 4 + len(buf)
		if err := sts[i].Apply(buf); err != nil {
			return sts, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	codec.AccountDecode(codec.KindHHHDeltaSet, total)
	return sts, nil
}

// RestoreHHHChain constructs a live sharded H-Memento from a chain of
// set records: one base step followed by its deltas in epoch order
// (delta.FindChain hands files in exactly this order). A Checkpoint is
// a chain of one.
func RestoreHHHChain(base io.Reader, deltas ...io.Reader) (*HHH, error) {
	sts, err := ApplyHHHDeltaSet(base, nil)
	if err != nil {
		return nil, err
	}
	for i, d := range deltas {
		if sts, err = ApplyHHHDeltaSet(d, sts); err != nil {
			return nil, fmt.Errorf("chain delta %d: %w", i, err)
		}
	}
	snaps := make([]*core.HHHSnapshot, len(sts))
	for i, st := range sts {
		if snaps[i], err = st.Snapshot(); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return RestoreHHHFromSnapshots(snaps)
}

// RestoreHHHFromSnapshots builds a live sharded instance from
// restore-plane snapshots, one per shard, deriving each shard's
// configuration from its snapshot (window, counter budget, sampling
// ratio V = scale, hierarchy) instead of requiring the caller to
// restate it. The audit sampling hash is the default PrefixHasher and
// per-shard seeds derive from the default seed; the restored instance
// keeps the default output Delta, so its sampling compensation matches
// the source's only if the source used the default too (the
// compensation is an output parameter, not state).
func RestoreHHHFromSnapshots(snaps []*core.HHHSnapshot) (*HHH, error) {
	if len(snaps) == 0 {
		return nil, errors.New("shard: no snapshots to restore from")
	}
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
