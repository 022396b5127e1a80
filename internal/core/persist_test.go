// Tests for the durable codec bindings: round-trip answer equality,
// live-sketch rehydration (including continued sliding), strict
// rejection of malformed input and of retired record kinds, the
// format-v1 golden file, and the encode path's 0 allocs/op contract.

package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
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

func TestRestoreFromContinuesSliding(t *testing.T) {
	// τ = 1 (WCSS): no sampling randomness, so a restored sketch must
	// track the original exactly — both at capture time and after any
	// further shared stream, which exercises the restored ring, frame
	// position, and de-amortized forgetting.
	s := loadedSketch(t, 1, 33)
	var snap Snapshot[uint64]
	s.CheckpointInto(&snap)
	restored, err := NewWithHash[uint64](Config{Window: 1 << 12, Counters: 64, Tau: 1, Seed: 77}, testHash)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreFrom(&snap); err != nil {
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
		other := mustNew[uint64](cfg)
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
		root := tc.hier.Prefix(hierarchy.Packet{Src: 5}, tc.hier.H()-1)
		probes = append(probes, root, tc.hier.Fully(hierarchy.Packet{Src: 5}))
		if len(probes) < 3 {
			t.Fatalf("%v: test vacuous: %d probes", tc.hier, len(probes))
		}
		for _, p := range probes {
			if w, g := hh.Query(p), dec.Query(p); w != g {
				t.Fatalf("%v: Query(%v) = %g, want %g", tc.hier, p, g, w)
			}
		}
		wantOut := hh.Output(0.01)
		gotOut := outputOf(dec, 0.01)
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

		// Query-plane snapshots (no restore flag) round-trip too, and
		// refuse RestoreFrom.
		var qsnap HHHSnapshot
		hh.SnapshotInto(&qsnap)
		qblob, err := qsnap.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		qdec, err := DecodeHHHSnapshot(qblob)
		if err != nil {
			t.Fatal(err)
		}
		if qdec.Restorable() {
			t.Fatalf("%v: query-plane snapshot claims to be restorable", tc.hier)
		}
		for _, p := range probes {
			if w, g := hh.Query(p), qdec.Query(p); w != g {
				t.Fatalf("%v: query-plane Query(%v) = %g, want %g", tc.hier, p, g, w)
			}
		}
		if err := restored.RestoreFrom(qdec); !errors.Is(err, codec.ErrNotRestorable) {
			t.Fatalf("%v: RestoreFrom(query-plane) = %v, want ErrNotRestorable", tc.hier, err)
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

// sketchPlane is the read surface a live sketch and a snapshot share:
// the table methods every query path runs.
type sketchPlane interface {
	Query(hierarchy.Prefix) float64
	QueryBounds(hierarchy.Prefix) (float64, float64)
	Overflowed(func(hierarchy.Prefix, int32) bool)
	HeavyHitters(float64, []Item[hierarchy.Prefix]) []Item[hierarchy.Prefix]
	AbsentBounds() (float64, float64)
	EffectiveWindow() int
	Updates() uint64
}

// sameSketchAnswers asserts two sketch planes agree on every probe
// that matters: point estimates and bounds at every level, the absent
// bound, the overflow set and the heavy hitters.
func sameSketchAnswers(t *testing.T, tag string, hier hierarchy.Hierarchy, want, got sketchPlane) {
	t.Helper()
	if want.EffectiveWindow() != got.EffectiveWindow() || want.Updates() != got.Updates() {
		t.Fatalf("%s: (window, updates) = (%d, %d), want (%d, %d)", tag,
			got.EffectiveWindow(), got.Updates(), want.EffectiveWindow(), want.Updates())
	}
	wu, wl := want.AbsentBounds()
	if gu, gl := got.AbsentBounds(); gu != wu || gl != wl {
		t.Fatalf("%s: AbsentBounds = (%g,%g), want (%g,%g)", tag, gu, gl, wu, wl)
	}
	var srcs []uint32 // the stream's hot sources, then a spread of cold ones
	for a := uint32(0); a < 24; a++ {
		srcs = append(srcs, a)
	}
	for a := uint32(24); a < 1<<16; a += 97 {
		srcs = append(srcs, a)
	}
	for _, a := range srcs {
		for l := 0; l < hier.H(); l++ {
			p := hier.Prefix(hierarchy.Packet{Src: a}, l)
			if w, g := want.Query(p), got.Query(p); w != g {
				t.Fatalf("%s: Query(%v) = %g, want %g", tag, p, g, w)
			}
			wu, wl := want.QueryBounds(p)
			if gu, gl := got.QueryBounds(p); gu != wu || gl != wl {
				t.Fatalf("%s: QueryBounds(%v) = (%g,%g), want (%g,%g)", tag, p, gu, gl, wu, wl)
			}
		}
	}
	wantOv := map[hierarchy.Prefix]int32{}
	want.Overflowed(func(p hierarchy.Prefix, n int32) bool { wantOv[p] = n; return true })
	gotOv := map[hierarchy.Prefix]int32{}
	got.Overflowed(func(p hierarchy.Prefix, n int32) bool { gotOv[p] = n; return true })
	if len(wantOv) == 0 {
		t.Fatalf("%s: test vacuous: empty overflow table", tag)
	}
	if len(wantOv) != len(gotOv) {
		t.Fatalf("%s: overflow table: %d entries, want %d", tag, len(gotOv), len(wantOv))
	}
	for p, n := range wantOv {
		if gotOv[p] != n {
			t.Fatalf("%s: overflow[%v] = %d, want %d", tag, p, gotOv[p], n)
		}
	}
	for _, theta := range []float64{0.005, 0.02, 0.1} {
		w := want.HeavyHitters(theta, nil)
		g := got.HeavyHitters(theta, nil)
		if len(w) == 0 || len(w) != len(g) {
			t.Fatalf("%s: theta=%v: %d heavy hitters, want %d (> 0)", tag, theta, len(g), len(w))
		}
		wm := map[hierarchy.Prefix]float64{}
		for _, it := range w {
			wm[it.Key] = it.Estimate
		}
		for _, it := range g {
			if e, ok := wm[it.Key]; !ok || e != it.Estimate {
				t.Fatalf("%s: theta=%v: %v estimate %g, want %g (present %v)", tag, theta, it.Key, it.Estimate, e, ok)
			}
		}
	}
}

// TestSnapshotCodecRoundTrip holds the sketch section of a record: the
// decoded snapshot's Memento plane answers exactly like the source
// sketch, with and without sampling, for checkpoint- and query-plane
// captures, and only the checkpoint keeps the restore plane.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	hier := hierarchy.OneD{}
	for _, v := range []int{hier.H(), 8 * hier.H()} { // τ = 1 and τ = 1/8
		hh := loadedHHH(t, hier, v, 31)
		for _, checkpoint := range []bool{true, false} {
			var snap HHHSnapshot
			if checkpoint {
				hh.CheckpointInto(&snap)
			} else {
				hh.SnapshotInto(&snap)
			}
			blob, err := snap.AppendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeHHHSnapshot(blob)
			if err != nil {
				t.Fatalf("V=%d checkpoint=%v: decode: %v", v, checkpoint, err)
			}
			tag := fmt.Sprintf("V=%d checkpoint=%v", v, checkpoint)
			if dec.Restorable() != checkpoint {
				t.Fatalf("%s: decoded Restorable() = %v", tag, dec.Restorable())
			}
			sameSketchAnswers(t, tag, hier, hh.Sketch(), dec.Sketch())
			// The monitored counters as a set: the decoder rebuilds each
			// count bucket, so order within a bucket may differ.
			mon := map[hierarchy.Prefix]spacesaving.Counter[hierarchy.Prefix]{}
			hh.Sketch().Monitored(func(c spacesaving.Counter[hierarchy.Prefix]) bool { mon[c.Key] = c; return true })
			n := 0
			dec.Monitored(func(c spacesaving.Counter[hierarchy.Prefix]) bool {
				if mon[c.Key] != c {
					t.Fatalf("%s: monitored %+v, want %+v", tag, c, mon[c.Key])
				}
				n++
				return true
			})
			if n != len(mon) || dec.Items() != hh.Sketch().Items() {
				t.Fatalf("%s: %d monitored over %d items, want %d over %d", tag, n, dec.Items(), len(mon), hh.Sketch().Items())
			}
			if !slices.EqualFunc(dec.queues, snap.queues, slices.Equal[[]hierarchy.Prefix]) {
				t.Fatalf("%s: ring queues differ", tag)
			}
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

// outputOf is the HHH set of snap alone at threshold theta: a
// SnapshotSet over the one member at weight 1.
func outputOf(snap *HHHSnapshot, theta float64) []HeavyPrefix {
	var set SnapshotSet
	set.Reset([]*HHHSnapshot{snap}, []float64{1})
	return set.Output(snap.hier, theta*float64(snap.window), snap.comp, nil)
}

// specOf returns the SnapshotSpec a checkpoint-plane snapshot was (or
// could have been) built from, sharing nothing with it.
func specOf(snap *HHHSnapshot) SnapshotSpec[hierarchy.Prefix] {
	spec := SnapshotSpec[hierarchy.Prefix]{
		Window: snap.window, Counters: snap.k, BlockCounts: snap.blockCounts, Scale: snap.scale,
		Updates: snap.updates, Items: snap.Items(),
		Overflow: new(keyidx.Counts[hierarchy.Prefix]),
		Restore: &RestoreSpec[hierarchy.Prefix]{
			UntilBlock: snap.untilBlock, BlocksLeft: snap.blocksLeft,
			FullUpdates: snap.fullCount, ForcedDrains: snap.forcedDrains,
		},
	}
	snap.overflow.CopyInto(spec.Overflow)
	snap.Monitored(func(c spacesaving.Counter[hierarchy.Prefix]) bool {
		spec.Monitored = append(spec.Monitored, c)
		return true
	})
	snap.Queues(func(q []hierarchy.Prefix) bool {
		spec.Restore.Queues = append(spec.Restore.Queues, slices.Clone(q))
		return true
	})
	return spec
}

// appendPrefix appends p in the record's 10-byte key layout.
func appendPrefix(b []byte, p hierarchy.Prefix) []byte {
	b = binary.BigEndian.AppendUint32(b, p.Src)
	b = binary.BigEndian.AppendUint32(b, p.Dst)
	return append(b, p.SrcLen, p.DstLen)
}

// encodeSpec writes spec as a format-v1 KindHHH record over the 1D
// hierarchy with compensation comp and no validation at all — an
// independent statement of the body layout, and the way to put a
// violated invariant on the wire.
func encodeSpec(spec SnapshotSpec[hierarchy.Prefix], comp float64) []byte {
	h := codec.Header{
		Version: codec.Version, Kind: codec.KindHHH,
		Digest: codec.HHHDigest(codec.HierOneD, spec.Window, uint64(spec.Counters), spec.BlockCounts, spec.Scale),
	}
	if spec.Restore != nil {
		h.Flags = codec.FlagRestore
	}
	b := codec.AppendHeader(nil, h)
	b = append(b, codec.HierOneD)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(comp))
	b = binary.BigEndian.AppendUint64(b, spec.Window)
	b = binary.BigEndian.AppendUint64(b, spec.Updates)
	b = binary.BigEndian.AppendUint64(b, spec.BlockCounts)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(spec.Scale))
	b = binary.AppendUvarint(b, uint64(spec.Counters))
	b = binary.AppendUvarint(b, uint64(spec.Overflow.Len()))
	for _, e := range spec.Overflow.Entries() {
		b = binary.AppendUvarint(appendPrefix(b, e.Key), uint64(e.Val))
	}
	b = binary.AppendUvarint(b, uint64(len(spec.Monitored)))
	b = binary.BigEndian.AppendUint64(b, spec.Items)
	for _, c := range spec.Monitored {
		b = binary.AppendUvarint(binary.AppendUvarint(appendPrefix(b, c.Key), c.Count), c.Err)
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
				b = appendPrefix(b, key)
			}
		}
	}
	return b
}

// TestDecodeSnapshotRejectsMalformed holds the two doors a snapshot
// from outside the process comes through — bytes into
// DecodeHHHSnapshot, a spec into BuildHHHSnapshot — to one validator:
// every violated sketch invariant is refused by both with the same
// wrapped codec.ErrCorrupt message. What only bytes can get wrong
// (truncation, framing, header) is checked on the decoder alone.
func TestDecodeSnapshotRejectsMalformed(t *testing.T) {
	hier := hierarchy.OneD{}
	hh := MustNewHHH(HHHConfig{Hierarchy: hier, Window: 1 << 12, Counters: 64, V: 4 * hier.H(), Seed: 51})
	src := rng.New(52)
	for i := 0; i < 3<<12|137; i++ {
		a := uint32(src.Intn(1 << 14))
		if src.Intn(3) > 0 {
			a = uint32(src.Intn(16)) // heavy sources
		}
		hh.Update(hierarchy.Packet{Src: a})
	}
	var snap HHHSnapshot
	hh.CheckpointInto(&snap)
	valid, err := snap.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeHHHSnapshot(valid); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	comp := snap.comp
	if got := encodeSpec(specOf(&snap), comp); !bytes.Equal(got, valid) {
		t.Fatal("encodeSpec(specOf(snap)) differs from snap.AppendTo: the test's layout is not format v1")
	}
	if _, err := BuildHHHSnapshot(hier, comp, specOf(&snap)); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	k, w := snap.k, snap.window
	if k != 64 || w != 1<<12 {
		t.Fatalf("geometry k=%d W=%d, the messages below assume 64 and 4096", k, w)
	}
	if len(specOf(&snap).Monitored) < 3 || snap.overflow.Len() == 0 {
		t.Fatal("test vacuous: source sketch too empty to violate anything")
	}

	for _, tc := range []struct {
		name    string
		violate func(spec *SnapshotSpec[hierarchy.Prefix])
		want    string
	}{
		{"zero counter budget", func(sp *SnapshotSpec[hierarchy.Prefix]) { sp.Counters = 0 }, "counter budget 0 out of range"},
		{"counter budget past the cap", func(sp *SnapshotSpec[hierarchy.Prefix]) { sp.Counters = 1<<28 + 1 }, "counter budget 268435457 out of range"},
		{"zero block threshold", func(sp *SnapshotSpec[hierarchy.Prefix]) { sp.BlockCounts = 0 }, "zero block threshold"},
		{"zero window", func(sp *SnapshotSpec[hierarchy.Prefix]) { sp.Window = 0 }, "window 0 not a multiple of 64 blocks"},
		{"window not a multiple of k", func(sp *SnapshotSpec[hierarchy.Prefix]) { sp.Window++ }, "window 4097 not a multiple of 64 blocks"},
		{"scale below 1", func(sp *SnapshotSpec[hierarchy.Prefix]) { sp.Scale = 0.5 }, "scale 0.5 below 1"},
		{"zero overflow count", func(sp *SnapshotSpec[hierarchy.Prefix]) { sp.Overflow.Put(sp.Overflow.Entries()[0].Key, 0) }, "overflow count 0 out of range"},
		{"more monitored counters than budget", func(sp *SnapshotSpec[hierarchy.Prefix]) {
			sp.Counters, sp.Window = 2, 2*(w/uint64(k))
		}, "monitored counters exceed budget 2"},
		{"counters not ascending", func(sp *SnapshotSpec[hierarchy.Prefix]) {
			m := sp.Monitored
			m[0], m[len(m)-1] = m[len(m)-1], m[0]
		}, "counter order not ascending"},
		{"zero monitored count", func(sp *SnapshotSpec[hierarchy.Prefix]) { sp.Monitored[0].Count, sp.Monitored[0].Err = 0, 0 }, "restored count must be positive"},
		{"error term not below count", func(sp *SnapshotSpec[hierarchy.Prefix]) { sp.Monitored[0].Err = sp.Monitored[0].Count }, "not below count"},
		{"duplicate monitored key", func(sp *SnapshotSpec[hierarchy.Prefix]) {
			sp.Monitored[1].Key, sp.Monitored[1].Count = sp.Monitored[0].Key, sp.Monitored[0].Count
		}, "duplicate restored key"},
		{"zero frame position", func(sp *SnapshotSpec[hierarchy.Prefix]) { sp.Restore.UntilBlock = 0 }, "frame position 0 outside block of 64"},
		{"frame position past the block", func(sp *SnapshotSpec[hierarchy.Prefix]) { sp.Restore.UntilBlock = w/uint64(k) + 1 }, "frame position 65 outside block of 64"},
		{"zero blocks left", func(sp *SnapshotSpec[hierarchy.Prefix]) { sp.Restore.BlocksLeft = 0 }, "blocks left 0 outside 1..64"},
		{"blocks left past k", func(sp *SnapshotSpec[hierarchy.Prefix]) { sp.Restore.BlocksLeft = k + 1 }, "blocks left 65 outside 1..64"},
		{"one ring queue short", func(sp *SnapshotSpec[hierarchy.Prefix]) { sp.Restore.Queues = sp.Restore.Queues[:k] }, "64 ring queues, want 65"},
		{"one ring queue over", func(sp *SnapshotSpec[hierarchy.Prefix]) { sp.Restore.Queues = append(sp.Restore.Queues, nil) }, "66 ring queues, want 65"},
	} {
		spec := specOf(&snap)
		tc.violate(&spec)
		_, specErr := BuildHHHSnapshot(hier, comp, spec)
		_, wireErr := DecodeHHHSnapshot(encodeSpec(spec, comp))
		if !errors.Is(specErr, codec.ErrCorrupt) || !strings.Contains(specErr.Error(), tc.want) {
			t.Errorf("%s: BuildHHHSnapshot = %v, want ErrCorrupt naming %q", tc.name, specErr, tc.want)
		}
		if wireErr == nil || specErr == nil || wireErr.Error() != specErr.Error() {
			t.Errorf("%s: one invariant, two verdicts:\n  DecodeHHHSnapshot: %v\n  BuildHHHSnapshot:  %v", tc.name, wireErr, specErr)
		}
	}

	// What only bytes can get wrong. Every truncation fails cleanly.
	for i := 0; i < len(valid); i += 3 {
		if _, err := DecodeHHHSnapshot(valid[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	// Trailing junk fails.
	if _, err := DecodeHHHSnapshot(append(bytes.Clone(valid), 0)); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("trailing junk: %v", err)
	}
	// A duplicate overflow key (a spec's table cannot hold one).
	dup := specOf(&snap)
	dupBytes := encodeSpec(dup, comp)
	ovStart := codec.HeaderSize + 1 + 8 + 4*8 + 2 // hierarchy id, compensation, scalars, uvarint k = 64, one-byte overflow count
	copy(dupBytes[ovStart+11:ovStart+21], dupBytes[ovStart:ovStart+10])
	if dup.Overflow.Len() < 2 || dup.Overflow.Len() > 127 || dup.Overflow.Entries()[0].Val > 127 {
		t.Fatal("duplicate-key offsets assume one-byte uvarints")
	}
	if _, err := DecodeHHHSnapshot(dupBytes); !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), "duplicate overflow key") {
		t.Fatalf("duplicate overflow key: %v", err)
	}
	// Bad magic.
	bad := bytes.Clone(valid)
	bad[0] ^= 0xff
	if _, err := DecodeHHHSnapshot(bad); !errors.Is(err, codec.ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	// Future version.
	bad = bytes.Clone(valid)
	bad[4] = codec.Version + 1
	if _, err := DecodeHHHSnapshot(bad); !errors.Is(err, codec.ErrVersion) {
		t.Fatalf("version skew: %v", err)
	}
	// Wrong kind.
	bad = bytes.Clone(valid)
	bad[5] = codec.KindHHHDelta
	if _, err := DecodeHHHSnapshot(bad); !errors.Is(err, codec.ErrKind) {
		t.Fatalf("wrong kind: %v", err)
	}
	// Config tampering that keeps every invariant breaks the digest.
	bad = bytes.Clone(valid)
	bad[codec.HeaderSize+1+8+16+7] ^= 0x01 // low byte of the block threshold
	if _, err := DecodeHHHSnapshot(bad); !errors.Is(err, codec.ErrConfigMismatch) {
		t.Fatalf("block threshold tamper: %v", err)
	}
}

// TestDecodeHHHSnapshotRejectsRetiredKind pins kind 1's retirement: a
// keyed-sketch record, whose header carries the configuration digest
// without a hierarchy and whose body lacks the hierarchy id and the
// compensation, fails with ErrKind before its body is read.
func TestDecodeHHHSnapshotRejectsRetiredKind(t *testing.T) {
	const retired = 1
	hh := loadedHHH(t, hierarchy.OneD{}, 10, 53)
	var snap HHHSnapshot
	hh.CheckpointInto(&snap)
	rec, err := snap.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	old := codec.AppendHeader(nil, codec.Header{
		Version: codec.Version,
		Kind:    retired,
		Flags:   codec.FlagRestore,
		Digest:  codec.Digest(snap.window, uint64(snap.k), snap.blockCounts, math.Float64bits(snap.scale)),
	})
	old = append(old, rec[codec.HeaderSize+1+8:]...)
	if _, err := DecodeHHHSnapshot(old); !errors.Is(err, codec.ErrKind) {
		t.Fatalf("kind 1: %v, want ErrKind", err)
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
	if got, want := outputOf(dec, 0.02), hh.Output(0.02); len(got) != len(want) {
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

// decodeBody parses and validates a record's sketch section alone, as
// DecodeHHHSnapshot does after the header, hierarchy and compensation.
func decodeBody(restore bool, body []byte) (*Snapshot[hierarchy.Prefix], error) {
	var flags uint16
	if restore {
		flags = codec.FlagRestore
	}
	spec, err := parseBody(codec.NewCursor(body), flags)
	if err != nil {
		return nil, err
	}
	snap := new(Snapshot[hierarchy.Prefix])
	if err := snap.build(spec, prefixHash); err != nil {
		return nil, err
	}
	return snap, nil
}

// FuzzDecodeSnapshot spends every mutation on the sketch section of a
// record — parseBody and the Snapshot.build validator — rather than on
// the header and hierarchy bytes in front of it.
func FuzzDecodeSnapshot(f *testing.F) {
	// Small seed instances keep the engine's per-input minimization
	// cheap; the size of the source sketch doesn't change the decode
	// paths exercised.
	hh := MustNewHHH(HHHConfig{Hierarchy: hierarchy.OneD{}, Window: 1 << 8, Counters: 16 * 5, V: 20, Seed: 71})
	src := rng.New(72)
	for i := 0; i < 1<<10; i++ {
		hh.Update(hierarchy.Packet{Src: uint32(src.Intn(64))})
	}
	var snap, qsnap HHHSnapshot
	hh.CheckpointInto(&snap)
	hh.SnapshotInto(&qsnap)
	body := appendBody(nil, &snap.Snapshot)
	f.Add(true, body)
	f.Add(false, appendBody(nil, &qsnap.Snapshot))
	f.Add(false, []byte{})
	f.Add(true, body[:4*8+1]) // the scalars alone

	f.Fuzz(func(t *testing.T, restore bool, data []byte) {
		// Must never panic and never allocate beyond the body's own
		// size class; a successful decode must re-encode to a body
		// that decodes to the same answers.
		dec, err := decodeBody(restore, data)
		if err != nil {
			return
		}
		if dec.Restorable() != restore {
			t.Fatalf("Restorable() = %v for restore=%v", dec.Restorable(), restore)
		}
		dec2, err := decodeBody(restore, appendBody(nil, dec))
		if err != nil {
			t.Fatalf("re-encode of accepted body rejected: %v", err)
		}
		for a := uint32(0); a < 64; a++ {
			for l := 0; l < 5; l++ {
				p := hierarchy.OneD{}.Prefix(hierarchy.Packet{Src: a}, l)
				if dec.Query(p) != dec2.Query(p) {
					t.Fatalf("re-encode changed Query(%v)", p)
				}
			}
		}
	})
}

func FuzzDecodeHHHSnapshot(f *testing.F) {
	// Small seed instances keep the engine's per-input minimization
	// cheap; the size of the source sketch doesn't change the decode
	// paths exercised.
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
	var qsnap HHHSnapshot
	hh.SnapshotInto(&qsnap)
	qblob, err := qsnap.AppendTo(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(qblob)
	f.Add(codec.AppendHeader(nil, codec.Header{Version: codec.Version, Kind: codec.KindHHH}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic and never allocate beyond the record's own
		// size class; a successful decode must re-encode to a record
		// that decodes to the same answers.
		dec, err := DecodeHHHSnapshot(data)
		if err != nil {
			return
		}
		if math.IsNaN(dec.Compensation()) {
			t.Fatal("accepted NaN compensation")
		}
		_ = outputOf(dec, 0.05) // must not panic on any accepted record
		re, err := dec.AppendTo(nil)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		dec2, err := DecodeHHHSnapshot(re)
		if err != nil {
			t.Fatalf("re-encode of accepted record rejected: %v", err)
		}
		for a := uint32(0); a < 64; a++ {
			p := dec.hier.Fully(hierarchy.Packet{Src: a})
			if dec.Query(p) != dec2.Query(p) {
				t.Fatalf("re-encode changed Query(%v)", p)
			}
		}
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
