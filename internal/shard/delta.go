// Sharded delta checkpoints: the incremental analog of Checkpoint. A
// sharded H-Memento with delta checkpoints enabled advances one
// replication chain per shard in lockstep and writes each step as a
// KindHHHDeltaSet record — the same envelope-plus-blobs layout as a
// full checkpoint, with per-shard internal/delta chain records as the
// blobs. A base step costs what Checkpoint costs; every other step
// costs only what changed, which is what makes a tight -checkpoint-
// every cadence affordable (cmd/lbproxy's warm-restart checkpointer).

package shard

import (
	"errors"
	"fmt"
	"io"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/delta"
)

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
// delta.Checkpointer can drive it directly. Capture follows the read
// plane's discipline (one lock acquisition per shard, held for the
// slab copy and the slot diff); encoding and writing happen outside
// the locks.
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
	if _, err := w.Write(appendEnvelope(nil, codec.KindHHHDeltaSet, len(s.shards))); err != nil {
		return base, err
	}
	var buf []byte
	total := envelopeSize
	for i, tr := range s.trackers {
		blob, isBase, err := tr.AppendCaptured(buf[:0])
		if err != nil {
			return base, fmt.Errorf("shard %d: %w", i, err)
		}
		if isBase != base {
			return base, fmt.Errorf("shard %d: record flavor diverged from set", i)
		}
		buf = blob
		if err := writeBlob(w, blob); err != nil {
			return base, err
		}
		total += 4 + len(blob)
	}
	codec.AccountEncode(codec.KindHHHDeltaSet, total)
	return base, nil
}

// ApplyHHHDeltaSet reads one KindHHHDeltaSet record from r and
// applies its per-shard chain records. sts carries the follower's
// per-shard states: pass nil for the first (base) file — fresh states
// are created — and the returned slice for every later file. Errors
// follow internal/delta.State.Apply's contract (ErrEpochGap on chain
// discontinuity, codec typed errors on corruption).
func ApplyHHHDeltaSet(r io.Reader, sts []*delta.State) ([]*delta.State, error) {
	shards, err := readEnvelope(r, codec.KindHHHDeltaSet)
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

// RestoreHHHChain constructs a live sharded H-Memento from a
// delta-checkpoint chain: one base set record followed by its deltas
// in epoch order (delta.FindChain hands files in exactly this order).
// Configuration derives from the chain itself, like RestoreHHH.
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
	return restoreHHHFromSnaps(snaps)
}
