// Tests for the durable codec bindings: round-trip answer equality,
// live-sketch rehydration (including continued sliding), strict
// rejection of malformed input, the format-v1 golden file, and the
// encode path's 0 allocs/op contract.

package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"memento/internal/codec"
	"memento/internal/hierarchy"
	"memento/internal/keyidx"
	"memento/internal/rng"
	"memento/internal/spacesaving"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// testHash is a fixed deterministic hasher so encode output and table
// iteration order are reproducible across processes.
func testHash(k uint64) uint64 { return keyidx.Mix64(k ^ 0x1234) }

// loadedSketch builds a Sketch[uint64] mid-frame, mid-block, with a
// populated overflow table and ring queues.
func loadedSketch(t testing.TB, tau float64, seed uint64) *Sketch[uint64] {
	t.Helper()
	s, err := NewWithHash[uint64](Config{Window: 1 << 12, Counters: 64, Tau: tau, Seed: seed}, testHash)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed + 9)
	for i := 0; i < 3<<12|137; i++ {
		k := uint64(src.Intn(1 << 14))
		if src.Intn(3) > 0 {
			k = uint64(src.Intn(16)) // heavy keys
		}
		s.Update(k)
	}
	return s
}

// sameAnswers asserts two query planes agree on every probe that
// matters: point estimates, bounds, the overflow set, heavy hitters.
func sameAnswers(t *testing.T, want, got interface {
	Query(uint64) float64
	QueryBounds(uint64) (float64, float64)
	Overflowed(func(uint64, int32) bool)
	HeavyHitters(float64, []Item[uint64]) []Item[uint64]
	EffectiveWindow() int
	Updates() uint64
}) {
	t.Helper()
	if want.EffectiveWindow() != got.EffectiveWindow() {
		t.Fatalf("EffectiveWindow %d vs %d", got.EffectiveWindow(), want.EffectiveWindow())
	}
	if want.Updates() != got.Updates() {
		t.Fatalf("Updates %d vs %d", got.Updates(), want.Updates())
	}
	for k := uint64(0); k < 1<<14; k += 7 {
		if w, g := want.Query(k), got.Query(k); w != g {
			t.Fatalf("Query(%d) = %g, want %g", k, g, w)
		}
		wu, wl := want.QueryBounds(k)
		gu, gl := got.QueryBounds(k)
		if wu != gu || wl != gl {
			t.Fatalf("QueryBounds(%d) = (%g,%g), want (%g,%g)", k, gu, gl, wu, wl)
		}
	}
	wantOv := map[uint64]int32{}
	want.Overflowed(func(k uint64, n int32) bool { wantOv[k] = n; return true })
	gotOv := map[uint64]int32{}
	got.Overflowed(func(k uint64, n int32) bool { gotOv[k] = n; return true })
	if len(wantOv) == 0 {
		t.Fatal("test vacuous: empty overflow table")
	}
	if len(wantOv) != len(gotOv) {
		t.Fatalf("overflow table: %d entries, want %d", len(gotOv), len(wantOv))
	}
	for k, n := range wantOv {
		if gotOv[k] != n {
			t.Fatalf("overflow[%d] = %d, want %d", k, gotOv[k], n)
		}
	}
	for _, theta := range []float64{0.005, 0.02, 0.1} {
		w := want.HeavyHitters(theta, nil)
		g := got.HeavyHitters(theta, nil)
		if len(w) != len(g) {
			t.Fatalf("theta=%v: %d heavy hitters, want %d", theta, len(g), len(w))
		}
		wm := map[uint64]float64{}
		for _, it := range w {
			wm[it.Key] = it.Estimate
		}
		for _, it := range g {
			if wm[it.Key] != it.Estimate {
				t.Fatalf("theta=%v: %d estimate %g, want %g", theta, it.Key, it.Estimate, wm[it.Key])
			}
		}
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	for _, tau := range []float64{1, 1.0 / 8} {
		s := loadedSketch(t, tau, 31)
		var snap Snapshot[uint64]
		s.CheckpointInto(&snap)

		blob := snap.AppendTo(nil, codec.Uint64Keys{})
		dec, err := DecodeSnapshot[uint64](blob, codec.Uint64Keys{}, testHash)
		if err != nil {
			t.Fatalf("tau=%v: decode: %v", tau, err)
		}
		if !dec.Restorable() {
			t.Fatal("decoded checkpoint lost the restore plane")
		}
		// The decoded snapshot answers exactly like the source sketch.
		sameAnswers(t, any(s).(interface {
			Query(uint64) float64
			QueryBounds(uint64) (float64, float64)
			Overflowed(func(uint64, int32) bool)
			HeavyHitters(float64, []Item[uint64]) []Item[uint64]
			EffectiveWindow() int
			Updates() uint64
		}), dec)
		if au, al := (&snap).AbsentBounds(); func() bool { du, dl := dec.AbsentBounds(); return du != au || dl != al }() {
			t.Fatal("AbsentBounds changed across the codec")
		}

		// Query-plane snapshots (no restore flag) round-trip too, and
		// refuse RestoreFrom.
		var qsnap Snapshot[uint64]
		s.SnapshotInto(&qsnap)
		qblob := qsnap.AppendTo(nil, codec.Uint64Keys{})
		qdec, err := DecodeSnapshot[uint64](qblob, codec.Uint64Keys{}, testHash)
		if err != nil {
			t.Fatal(err)
		}
		if qdec.Restorable() {
			t.Fatal("query-plane snapshot claims to be restorable")
		}
		fresh := MustNew[uint64](Config{Window: 1 << 12, Counters: 64, Tau: tau, Seed: 99})
		if err := fresh.RestoreFrom(qdec); !errors.Is(err, codec.ErrNotRestorable) {
			t.Fatalf("RestoreFrom(query-plane) = %v, want ErrNotRestorable", err)
		}
	}
}

func TestRestoreFromContinuesSliding(t *testing.T) {
	// τ = 1 (WCSS): no sampling randomness, so a restored sketch must
	// track the original exactly — both at capture time and after any
	// further shared stream, which exercises the restored ring, frame
	// position, and de-amortized forgetting.
	s := loadedSketch(t, 1, 33)
	var snap Snapshot[uint64]
	s.CheckpointInto(&snap)
	blob := snap.AppendTo(nil, codec.Uint64Keys{})
	dec, err := DecodeSnapshot[uint64](blob, codec.Uint64Keys{}, testHash)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewWithHash[uint64](Config{Window: 1 << 12, Counters: 64, Tau: 1, Seed: 77}, testHash)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreFrom(dec); err != nil {
		t.Fatal(err)
	}
	if restored.FullUpdates() != s.FullUpdates() {
		t.Fatalf("FullUpdates %d, want %d", restored.FullUpdates(), s.FullUpdates())
	}

	src := rng.New(101)
	for step := 0; step < 3<<12; step++ {
		k := uint64(src.Intn(1 << 13))
		if src.Intn(3) > 0 {
			k = uint64(src.Intn(16))
		}
		s.Update(k)
		restored.Update(k)
		if step%1021 == 0 {
			for q := uint64(0); q < 32; q++ {
				if w, g := s.Query(q), restored.Query(q); w != g {
					t.Fatalf("step %d: Query(%d) = %g, want %g", step, q, g, w)
				}
			}
		}
	}
	if s.ForcedDrains() != restored.ForcedDrains() {
		t.Fatalf("ForcedDrains %d, want %d", restored.ForcedDrains(), s.ForcedDrains())
	}
	if s.OverflowEntries() != restored.OverflowEntries() {
		t.Fatalf("OverflowEntries %d, want %d", restored.OverflowEntries(), s.OverflowEntries())
	}
}

func TestRestoreFromRejectsConfigMismatch(t *testing.T) {
	s := loadedSketch(t, 1, 35)
	var snap Snapshot[uint64]
	s.CheckpointInto(&snap)
	for _, cfg := range []Config{
		{Window: 1 << 13, Counters: 64, Tau: 1},   // window differs
		{Window: 1 << 12, Counters: 32, Tau: 1},   // counters differ
		{Window: 1 << 12, Counters: 64, Tau: 0.5}, // scale differs
	} {
		other := MustNew[uint64](cfg)
		if err := other.RestoreFrom(&snap); !errors.Is(err, codec.ErrConfigMismatch) {
			t.Fatalf("cfg %+v: RestoreFrom = %v, want ErrConfigMismatch", cfg, err)
		}
		if other.Updates() != 0 {
			t.Fatal("failed restore mutated the target")
		}
	}
}

// loadedHHH builds an H-Memento over the given hierarchy with a
// skewed stream.
func loadedHHH(t testing.TB, hier hierarchy.Hierarchy, v int, seed uint64) *HHH {
	t.Helper()
	hh, err := NewHHH(HHHConfig{Hierarchy: hier, Window: 1 << 12, Counters: 128 * hier.H(), V: v, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed + 3)
	for i := 0; i < 3<<12|61; i++ {
		a := uint32(src.Intn(1 << 16))
		if src.Intn(3) > 0 {
			a = uint32(src.Intn(24))
		}
		hh.Update(hierarchy.Packet{Src: a, Dst: uint32(src.Intn(64))})
	}
	return hh
}

func TestHHHSnapshotCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		hier hierarchy.Hierarchy
		v    int
	}{
		{hierarchy.OneD{}, 10},
		{hierarchy.TwoD{}, 60},
		{hierarchy.Flows{}, 1},
	} {
		hh := loadedHHH(t, tc.hier, tc.v, 41)
		var snap HHHSnapshot
		hh.CheckpointInto(&snap)
		blob, err := snap.AppendTo(nil)
		if err != nil {
			t.Fatalf("%v: encode: %v", tc.hier, err)
		}
		dec, err := DecodeHHHSnapshot(blob)
		if err != nil {
			t.Fatalf("%v: decode: %v", tc.hier, err)
		}
		if dec.Compensation() != hh.Compensation() {
			t.Fatalf("%v: compensation %g, want %g", tc.hier, dec.Compensation(), hh.Compensation())
		}
		// Decoded snapshot answers like the live instance.
		probes := []hierarchy.Prefix{}
		hh.Sketch().Overflowed(func(p hierarchy.Prefix, _ int32) bool {
			probes = append(probes, p)
			return true
		})
		probes = append(probes, tc.hier.Root(), tc.hier.Fully(hierarchy.Packet{Src: 5}))
		if len(probes) < 3 {
			t.Fatalf("%v: test vacuous: %d probes", tc.hier, len(probes))
		}
		for _, p := range probes {
			if w, g := hh.Query(p), dec.Query(p); w != g {
				t.Fatalf("%v: Query(%v) = %g, want %g", tc.hier, p, g, w)
			}
		}
		wantOut := hh.Output(0.01)
		gotOut := dec.OutputTo(0.01, nil)
		if len(wantOut) != len(gotOut) {
			t.Fatalf("%v: Output: %d entries, want %d", tc.hier, len(gotOut), len(wantOut))
		}
		for i := range wantOut {
			if wantOut[i] != gotOut[i] {
				t.Fatalf("%v: Output[%d] = %+v, want %+v", tc.hier, i, gotOut[i], wantOut[i])
			}
		}

		// Rehydrate a fresh same-config instance and re-check.
		restored := MustNewHHH(HHHConfig{Hierarchy: tc.hier, Window: 1 << 12, Counters: 128 * tc.hier.H(), V: tc.v, Seed: 97})
		if err := restored.RestoreFrom(dec); err != nil {
			t.Fatalf("%v: restore: %v", tc.hier, err)
		}
		for _, p := range probes {
			if w, g := hh.Query(p), restored.Query(p); w != g {
				t.Fatalf("%v: restored Query(%v) = %g, want %g", tc.hier, p, g, w)
			}
		}
		restoredOut := restored.Output(0.01)
		if len(restoredOut) != len(wantOut) {
			t.Fatalf("%v: restored Output: %d entries, want %d", tc.hier, len(restoredOut), len(wantOut))
		}
		for i := range wantOut {
			if wantOut[i] != restoredOut[i] {
				t.Fatalf("%v: restored Output[%d] = %+v, want %+v", tc.hier, i, restoredOut[i], wantOut[i])
			}
		}

		// Hierarchy mismatch is rejected.
		var wrong hierarchy.Hierarchy = hierarchy.TwoD{}
		if tc.hier.Dims() == 2 {
			wrong = hierarchy.OneD{}
		}
		other := MustNewHHH(HHHConfig{Hierarchy: wrong, Window: 1 << 12, Counters: 128 * wrong.H(), V: wrong.H() * 4, Seed: 98})
		if err := other.RestoreFrom(dec); !errors.Is(err, codec.ErrConfigMismatch) {
			t.Fatalf("%v: cross-hierarchy restore = %v, want ErrConfigMismatch", tc.hier, err)
		}
	}
}

func TestHHHRestoreContinuesDeterministically(t *testing.T) {
	// Flows with V = H = 1 has no sampling randomness left in the
	// update path, so original and restored must agree forever.
	hh := loadedHHH(t, hierarchy.Flows{}, 1, 43)
	var snap HHHSnapshot
	hh.CheckpointInto(&snap)
	restored := MustNewHHH(HHHConfig{Hierarchy: hierarchy.Flows{}, Window: 1 << 12, Counters: 128, V: 1, Seed: 7})
	if err := restored.RestoreFrom(&snap); err != nil {
		t.Fatal(err)
	}
	src := rng.New(404)
	for i := 0; i < 1<<13; i++ {
		p := hierarchy.Packet{Src: uint32(src.Intn(512))}
		hh.Update(p)
		restored.Update(p)
	}
	probe := hierarchy.Prefix{Src: 3, SrcLen: 4}
	if w, g := hh.Query(probe), restored.Query(probe); w != g {
		t.Fatalf("diverged after restore: %g vs %g", g, w)
	}
	a, b := hh.Output(0.01), restored.Output(0.01)
	if len(a) != len(b) {
		t.Fatalf("Output diverged: %d vs %d entries", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Output[%d] diverged: %+v vs %+v", i, b[i], a[i])
		}
	}
}

// specOf returns the SnapshotSpec a checkpoint-plane snapshot was (or
// could have been) built from, sharing nothing with it.
func specOf(snap *Snapshot[uint64]) SnapshotSpec[uint64] {
	spec := SnapshotSpec[uint64]{
		Window: snap.window, Counters: snap.k, BlockCounts: snap.blockCounts, Scale: snap.scale,
		Updates: snap.updates, Items: snap.Items(),
		Overflow: new(keyidx.Counts[uint64]),
		Restore: &RestoreSpec[uint64]{
			UntilBlock: snap.untilBlock, BlocksLeft: snap.blocksLeft,
			FullUpdates: snap.fullCount, ForcedDrains: snap.forcedDrains,
		},
	}
	snap.overflow.CopyInto(spec.Overflow)
	snap.Monitored(func(c spacesaving.Counter[uint64]) bool { spec.Monitored = append(spec.Monitored, c); return true })
	snap.Queues(func(q []uint64) bool { spec.Restore.Queues = append(spec.Restore.Queues, slices.Clone(q)); return true })
	return spec
}

// encodeSpec writes spec as a format-v1 KindSketch record with no
// validation at all — an independent statement of the body layout, and
// the way to put a violated invariant on the wire.
func encodeSpec(spec SnapshotSpec[uint64]) []byte {
	h := codec.Header{
		Version: codec.Version, Kind: codec.KindSketch,
		Digest: codec.SketchDigest(spec.Window, uint64(spec.Counters), spec.BlockCounts, spec.Scale),
	}
	if spec.Restore != nil {
		h.Flags = codec.FlagRestore
	}
	b := codec.AppendHeader(nil, h)
	b = binary.BigEndian.AppendUint64(b, spec.Window)
	b = binary.BigEndian.AppendUint64(b, spec.Updates)
	b = binary.BigEndian.AppendUint64(b, spec.BlockCounts)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(spec.Scale))
	b = binary.AppendUvarint(b, uint64(spec.Counters))
	b = binary.AppendUvarint(b, uint64(spec.Overflow.Len()))
	for _, e := range spec.Overflow.Entries() {
		b = binary.AppendUvarint(binary.BigEndian.AppendUint64(b, e.Key), uint64(e.Val))
	}
	b = binary.AppendUvarint(b, uint64(len(spec.Monitored)))
	b = binary.BigEndian.AppendUint64(b, spec.Items)
	for _, c := range spec.Monitored {
		b = binary.AppendUvarint(binary.AppendUvarint(binary.BigEndian.AppendUint64(b, c.Key), c.Count), c.Err)
	}
	if r := spec.Restore; r != nil {
		b = binary.BigEndian.AppendUint64(b, r.UntilBlock)
		b = binary.AppendUvarint(b, uint64(r.BlocksLeft))
		b = binary.BigEndian.AppendUint64(b, r.FullUpdates)
		b = binary.BigEndian.AppendUint64(b, r.ForcedDrains)
		b = binary.AppendUvarint(b, uint64(len(r.Queues)))
		for _, q := range r.Queues {
			b = binary.AppendUvarint(b, uint64(len(q)))
			for _, key := range q {
				b = binary.BigEndian.AppendUint64(b, key)
			}
		}
	}
	return b
}

// TestDecodeSnapshotRejectsMalformed holds the two doors a snapshot
// from outside the process comes through — bytes into DecodeSnapshot,
// a spec into BuildSnapshot — to one validator: every violated sketch
// invariant is refused by both with the same wrapped codec.ErrCorrupt
// message. What only bytes can get wrong (truncation, framing, header)
// is checked on the decoder alone.
func TestDecodeSnapshotRejectsMalformed(t *testing.T) {
	s := loadedSketch(t, 1.0/4, 51)
	var snap Snapshot[uint64]
	s.CheckpointInto(&snap)
	valid := snap.AppendTo(nil, codec.Uint64Keys{})
	if _, err := DecodeSnapshot[uint64](valid, codec.Uint64Keys{}, testHash); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	if got := encodeSpec(specOf(&snap)); !bytes.Equal(got, valid) {
		t.Fatal("encodeSpec(specOf(snap)) differs from snap.AppendTo: the test's layout is not format v1")
	}
	if _, err := BuildSnapshot(specOf(&snap), testHash); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	k, w := snap.k, snap.window
	if len(specOf(&snap).Monitored) < 3 || snap.overflow.Len() == 0 {
		t.Fatal("test vacuous: source sketch too empty to violate anything")
	}

	for _, tc := range []struct {
		name    string
		violate func(spec *SnapshotSpec[uint64])
		want    string
	}{
		{"zero counter budget", func(sp *SnapshotSpec[uint64]) { sp.Counters = 0 }, "counter budget 0 out of range"},
		{"counter budget past the cap", func(sp *SnapshotSpec[uint64]) { sp.Counters = 1<<28 + 1 }, "counter budget 268435457 out of range"},
		{"zero block threshold", func(sp *SnapshotSpec[uint64]) { sp.BlockCounts = 0 }, "zero block threshold"},
		{"zero window", func(sp *SnapshotSpec[uint64]) { sp.Window = 0 }, "window 0 not a multiple of 64 blocks"},
		{"window not a multiple of k", func(sp *SnapshotSpec[uint64]) { sp.Window++ }, "window 4097 not a multiple of 64 blocks"},
		{"scale below 1", func(sp *SnapshotSpec[uint64]) { sp.Scale = 0.5 }, "scale 0.5 below 1"},
		{"zero overflow count", func(sp *SnapshotSpec[uint64]) { sp.Overflow.Put(sp.Overflow.Entries()[0].Key, 0) }, "overflow count 0 out of range"},
		{"more monitored counters than budget", func(sp *SnapshotSpec[uint64]) {
			sp.Counters, sp.Window = 2, 2*(w/uint64(k))
		}, "monitored counters exceed budget 2"},
		{"counters not ascending", func(sp *SnapshotSpec[uint64]) {
			m := sp.Monitored
			m[0], m[len(m)-1] = m[len(m)-1], m[0]
		}, "counter order not ascending"},
		{"zero monitored count", func(sp *SnapshotSpec[uint64]) { sp.Monitored[0].Count, sp.Monitored[0].Err = 0, 0 }, "restored count must be positive"},
		{"error term not below count", func(sp *SnapshotSpec[uint64]) { sp.Monitored[0].Err = sp.Monitored[0].Count }, "not below count"},
		{"duplicate monitored key", func(sp *SnapshotSpec[uint64]) {
			sp.Monitored[1].Key, sp.Monitored[1].Count = sp.Monitored[0].Key, sp.Monitored[0].Count
		}, "duplicate restored key"},
		{"zero frame position", func(sp *SnapshotSpec[uint64]) { sp.Restore.UntilBlock = 0 }, "frame position 0 outside block of 64"},
		{"frame position past the block", func(sp *SnapshotSpec[uint64]) { sp.Restore.UntilBlock = w/uint64(k) + 1 }, "frame position 65 outside block of 64"},
		{"zero blocks left", func(sp *SnapshotSpec[uint64]) { sp.Restore.BlocksLeft = 0 }, "blocks left 0 outside 1..64"},
		{"blocks left past k", func(sp *SnapshotSpec[uint64]) { sp.Restore.BlocksLeft = k + 1 }, "blocks left 65 outside 1..64"},
		{"one ring queue short", func(sp *SnapshotSpec[uint64]) { sp.Restore.Queues = sp.Restore.Queues[:k] }, "64 ring queues, want 65"},
		{"one ring queue over", func(sp *SnapshotSpec[uint64]) { sp.Restore.Queues = append(sp.Restore.Queues, nil) }, "66 ring queues, want 65"},
	} {
		spec := specOf(&snap)
		tc.violate(&spec)
		_, specErr := BuildSnapshot(spec, testHash)
		_, wireErr := DecodeSnapshot[uint64](encodeSpec(spec), codec.Uint64Keys{}, testHash)
		if !errors.Is(specErr, codec.ErrCorrupt) || !strings.Contains(specErr.Error(), tc.want) {
			t.Errorf("%s: BuildSnapshot = %v, want ErrCorrupt naming %q", tc.name, specErr, tc.want)
		}
		if wireErr == nil || specErr == nil || wireErr.Error() != specErr.Error() {
			t.Errorf("%s: one invariant, two verdicts:\n  DecodeSnapshot: %v\n  BuildSnapshot:  %v", tc.name, wireErr, specErr)
		}
	}

	// What only bytes can get wrong. Every truncation fails cleanly.
	for i := 0; i < len(valid); i += 3 {
		if _, err := DecodeSnapshot[uint64](valid[:i], codec.Uint64Keys{}, testHash); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	// Trailing junk fails.
	if _, err := DecodeSnapshot[uint64](append(bytes.Clone(valid), 0), codec.Uint64Keys{}, testHash); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("trailing junk: %v", err)
	}
	// A duplicate overflow key (a spec's table cannot hold one).
	dup := specOf(&snap)
	dupBytes := encodeSpec(dup)
	ovStart := codec.HeaderSize + 4*8 + 2 // scalars, uvarint k = 64, one-byte overflow count
	copy(dupBytes[ovStart+9:ovStart+17], dupBytes[ovStart:ovStart+8])
	if dup.Overflow.Len() < 2 || dup.Overflow.Len() > 127 || dup.Overflow.Entries()[0].Val > 127 {
		t.Fatal("duplicate-key offsets assume one-byte uvarints")
	}
	if _, err := DecodeSnapshot[uint64](dupBytes, codec.Uint64Keys{}, testHash); !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), "duplicate overflow key") {
		t.Fatalf("duplicate overflow key: %v", err)
	}
	// Bad magic.
	bad := bytes.Clone(valid)
	bad[0] ^= 0xff
	if _, err := DecodeSnapshot[uint64](bad, codec.Uint64Keys{}, testHash); !errors.Is(err, codec.ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	// Future version.
	bad = bytes.Clone(valid)
	bad[4] = codec.Version + 1
	if _, err := DecodeSnapshot[uint64](bad, codec.Uint64Keys{}, testHash); !errors.Is(err, codec.ErrVersion) {
		t.Fatalf("version skew: %v", err)
	}
	// Wrong kind.
	bad = bytes.Clone(valid)
	bad[5] = codec.KindHHH
	if _, err := DecodeSnapshot[uint64](bad, codec.Uint64Keys{}, testHash); !errors.Is(err, codec.ErrKind) {
		t.Fatalf("wrong kind: %v", err)
	}
	// Config tampering that keeps every invariant breaks the digest.
	bad = bytes.Clone(valid)
	bad[codec.HeaderSize+16+7] ^= 0x01 // low byte of the block threshold
	if _, err := DecodeSnapshot[uint64](bad, codec.Uint64Keys{}, testHash); !errors.Is(err, codec.ErrConfigMismatch) {
		t.Fatalf("block threshold tamper: %v", err)
	}
}

func TestHHHGoldenV1(t *testing.T) {
	// A fixed configuration and stream pin format v1: any encoder change
	// that breaks old readers fails here instead of in a future PR's
	// production restart path. Everything feeding the encoder is
	// deterministic (PrefixHasher keyed by the config seed, fixed-seed
	// PRNG stream). The overflow section is emitted in table order, which
	// is a property of the table's layout and not of the format — the
	// decoder takes the entries in any order — so a fresh record is held
	// to the golden's length and header and to decoding into the golden's
	// state, not to its bytes. The golden file is never rewritten by a
	// layout change: old files must keep decoding.
	hh := MustNewHHH(HHHConfig{Hierarchy: hierarchy.OneD{}, Window: 1 << 10, Counters: 32 * 5, V: 10, Seed: 61})
	src := rng.New(62)
	for i := 0; i < 5000; i++ {
		a := uint32(src.Intn(1 << 12))
		if src.Intn(2) == 0 {
			a = uint32(src.Intn(8))
		}
		hh.Update(hierarchy.Packet{Src: a})
	}
	var snap HHHSnapshot
	hh.CheckpointInto(&snap)
	blob, err := snap.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "hhh_snapshot_v1.bin")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if len(blob) != len(want) || !bytes.Equal(blob[:codec.HeaderSize], want[:codec.HeaderSize]) {
		t.Fatalf("encoding of the pinned v1 scenario changed: %d bytes vs golden %d, header equal %v — "+
			"if the format changed intentionally, bump codec.Version and add a new golden",
			len(blob), len(want), bytes.Equal(blob[:codec.HeaderSize], want[:codec.HeaderSize]))
	}
	// The golden file itself must decode and answer sanely.
	dec, err := DecodeHHHSnapshot(want)
	if err != nil {
		t.Fatalf("golden file no longer decodes: %v", err)
	}
	fresh, err := DecodeHHHSnapshot(blob)
	if err != nil {
		t.Fatalf("fresh record does not decode: %v", err)
	}
	sameHHHState(t, dec, fresh)
	if dec.Updates() != hh.Sketch().Updates() {
		t.Fatalf("golden Updates %d, want %d", dec.Updates(), hh.Sketch().Updates())
	}
	if got, want := dec.OutputTo(0.02, nil), hh.Output(0.02); len(got) != len(want) {
		t.Fatalf("golden Output has %d entries, want %d", len(got), len(want))
	}
}

// sameHHHState asserts two decoded checkpoints hold the same state: the
// overflow table as a set, the monitored counters and the restore plane
// exactly, in order.
func sameHHHState(t *testing.T, want, got *HHHSnapshot) {
	t.Helper()
	if !hierarchy.Same(want.hier, got.hier) || want.comp != got.comp {
		t.Fatalf("hierarchy/compensation (%v, %g), want (%v, %g)", got.hier, got.comp, want.hier, want.comp)
	}
	w, g := &want.Snapshot, &got.Snapshot
	if w.window != g.window || w.updates != g.updates || w.blockCounts != g.blockCounts ||
		w.scale != g.scale || w.k != g.k || w.Items() != g.Items() {
		t.Fatalf("scalars differ: %+v vs %+v", g, w)
	}
	if w.overflow.Len() != g.overflow.Len() {
		t.Fatalf("%d overflow entries, want %d", g.overflow.Len(), w.overflow.Len())
	}
	for _, e := range w.overflow.Entries() {
		if b, ok := g.overflow.Get(e.Key); !ok || b != e.Val {
			t.Fatalf("overflow[%v] = %d (present %v), want %d", e.Key, b, ok, e.Val)
		}
	}
	var wantMon, gotMon []spacesaving.Counter[hierarchy.Prefix]
	w.Monitored(func(c spacesaving.Counter[hierarchy.Prefix]) bool { wantMon = append(wantMon, c); return true })
	g.Monitored(func(c spacesaving.Counter[hierarchy.Prefix]) bool { gotMon = append(gotMon, c); return true })
	if !slices.Equal(wantMon, gotMon) {
		t.Fatalf("monitored counters differ:\n got %v\nwant %v", gotMon, wantMon)
	}
	if w.full != g.full || w.untilBlock != g.untilBlock || w.blocksLeft != g.blocksLeft ||
		w.fullCount != g.fullCount || w.forcedDrains != g.forcedDrains {
		t.Fatalf("restore plane scalars differ: %+v vs %+v", g, w)
	}
	if !slices.EqualFunc(w.queues, g.queues, slices.Equal[[]hierarchy.Prefix]) {
		t.Fatal("ring queues differ")
	}
}

func FuzzDecodeSnapshot(f *testing.F) {
	// Small seed instances keep the engine's per-input minimization
	// cheap; the size of the source sketch doesn't change the decode
	// paths exercised.
	s := MustNew[uint64](Config{Window: 1 << 8, Counters: 16, Tau: 1.0 / 4, Seed: 71})
	src := rng.New(72)
	for i := 0; i < 1<<10; i++ {
		s.Update(uint64(src.Intn(64)))
	}
	var snap Snapshot[uint64]
	s.CheckpointInto(&snap)
	f.Add(snap.AppendTo(nil, codec.Uint64Keys{}))
	var qsnap Snapshot[uint64]
	s.SnapshotInto(&qsnap)
	f.Add(qsnap.AppendTo(nil, codec.Uint64Keys{}))
	f.Add([]byte{})
	f.Add(codec.AppendHeader(nil, codec.Header{Version: codec.Version, Kind: codec.KindSketch}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic and never allocate beyond the record's own
		// size class; a successful decode must re-encode to a record
		// that decodes to the same answers.
		dec, err := DecodeSnapshot[uint64](data, codec.Uint64Keys{}, testHash)
		if err != nil {
			return
		}
		re := dec.AppendTo(nil, codec.Uint64Keys{})
		dec2, err := DecodeSnapshot[uint64](re, codec.Uint64Keys{}, testHash)
		if err != nil {
			t.Fatalf("re-encode of accepted record rejected: %v", err)
		}
		for k := uint64(0); k < 64; k++ {
			if dec.Query(k) != dec2.Query(k) {
				t.Fatalf("re-encode changed Query(%d)", k)
			}
		}
	})
}

func FuzzDecodeHHHSnapshot(f *testing.F) {
	hh := MustNewHHH(HHHConfig{Hierarchy: hierarchy.OneD{}, Window: 1 << 8, Counters: 16 * 5, V: 10, Seed: 73})
	src := rng.New(74)
	for i := 0; i < 1<<10; i++ {
		hh.Update(hierarchy.Packet{Src: uint32(src.Intn(64))})
	}
	var snap HHHSnapshot
	hh.CheckpointInto(&snap)
	blob, err := snap.AppendTo(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeHHHSnapshot(data)
		if err != nil {
			return
		}
		if math.IsNaN(dec.Compensation()) {
			t.Fatal("accepted NaN compensation")
		}
		_ = dec.OutputTo(0.05, nil) // must not panic on any accepted record
	})
}

func BenchmarkSnapshotEncode(b *testing.B) {
	// The encode hot path: checkpoint capture + AppendTo into a reused
	// buffer. CI gates 0 allocs/op, the contract that lets the
	// periodic checkpointer and the snapshot-shipping agent run in
	// steady state without GC traffic.
	hh := loadedHHH(b, hierarchy.OneD{}, 10, 81)
	var snap HHHSnapshot
	var buf []byte
	hh.CheckpointInto(&snap)
	var err error
	if buf, err = snap.AppendTo(buf[:0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hh.CheckpointInto(&snap)
		buf, err = snap.AppendTo(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = buf
}
