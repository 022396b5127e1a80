package delta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/hierarchy"
	"memento/internal/rng"
)

// newHHH builds a small deterministic H-Memento for chain tests.
func newHHH(t testing.TB, window, counters int, seed uint64) *core.HHH {
	t.Helper()
	hh, err := core.NewHHH(core.HHHConfig{
		Hierarchy: hierarchy.Flows{},
		Window:    window,
		Counters:  counters,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return hh
}

// skewedPackets generates a deterministic mixed stream: heavy flows
// over a churning uniform tail, the adversarial case for delta
// encoding.
func skewedPackets(n int, seed uint64) []hierarchy.Packet {
	src := rng.New(seed)
	out := make([]hierarchy.Packet, n)
	for i := range out {
		if src.Float64() < 0.6 {
			out[i] = hierarchy.Packet{Src: hierarchy.IPv4(10, 0, 0, byte(1+src.Intn(16)))}
		} else {
			out[i] = hierarchy.Packet{Src: src.Uint32() | 1<<31}
		}
	}
	return out
}

// snapshotEqualOutputs fails the test unless the two snapshots answer
// the HHH-set computation and point queries identically.
func snapshotEqualOutputs(t *testing.T, tag string, got, want *core.HHHSnapshot, probes []hierarchy.Prefix) {
	t.Helper()
	if got.EffectiveWindow() != want.EffectiveWindow() || got.Updates() != want.Updates() {
		t.Fatalf("%s: window/updates (%d,%d) vs (%d,%d)", tag,
			got.EffectiveWindow(), got.Updates(), want.EffectiveWindow(), want.Updates())
	}
	for _, p := range probes {
		gu, gl := got.QueryBounds(p)
		wu, wl := want.QueryBounds(p)
		if gu != wu || gl != wl {
			t.Fatalf("%s: bounds for %v: (%g,%g) vs (%g,%g)", tag, p, gu, gl, wu, wl)
		}
	}
	for _, theta := range []float64{0.01, 0.05, 0.2} {
		g := outputOf(got, theta)
		w := outputOf(want, theta)
		if len(g) != len(w) {
			t.Fatalf("%s: theta %g: %d entries vs %d", tag, theta, len(g), len(w))
		}
		gm := map[hierarchy.Prefix]core.HeavyPrefix{}
		for _, e := range g {
			gm[e.Prefix] = e
		}
		for _, e := range w {
			ge, ok := gm[e.Prefix]
			if !ok || ge.Estimate != e.Estimate || ge.Conditioned != e.Conditioned {
				t.Fatalf("%s: theta %g: entry %v mismatch (%+v vs %+v)", tag, theta, e.Prefix, ge, e)
			}
		}
	}
}

// TestChainExactReplication drives the adversarial skewed stream and
// checks, at every cadence, that a Floor-0 chain follower's
// materialized snapshot matches a follower receiving the full encoded
// snapshot — across frame flushes, evictions and overflow churn.
func TestChainExactReplication(t *testing.T) {
	hh := newHHH(t, 1<<12, 64, 7)
	tr, err := NewTracker(hh, TrackerConfig{Chain: 42})
	if err != nil {
		t.Fatal(err)
	}
	st := NewState()
	packets := skewedPackets(1<<14, 99) // 4 windows worth
	probes := make([]hierarchy.Prefix, 0, 64)
	for i := 0; i < 16; i++ {
		probes = append(probes, hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, byte(1+i)), SrcLen: 4})
	}
	const cadence = 1 << 10
	var buf []byte
	var full core.HHHSnapshot
	var wire []byte
	var base bool
	bases := 0
	for off := 0; off < len(packets); off += cadence {
		hh.UpdateBatch(packets[off : off+cadence])
		buf, base, err = tr.Append(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if base {
			bases++
		}
		if err := st.Apply(buf); err != nil {
			t.Fatalf("apply at offset %d: %v", off, err)
		}
		// The reference follower decodes a complete snapshot record of
		// the same instant.
		hh.SnapshotInto(&full)
		wire, err = full.AppendTo(wire[:0])
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.DecodeHHHSnapshot(wire)
		if err != nil {
			t.Fatal(err)
		}
		mat, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snapshotEqualOutputs(t, fmt.Sprintf("offset %d", off), mat, ref, probes)
	}
	if bases != 1 {
		t.Fatalf("expected exactly one base, got %d", bases)
	}
	if st.Epoch() != tr.epoch {
		t.Fatalf("epoch skew: state %d tracker %d", st.Epoch(), tr.epoch)
	}
}

// TestChainRestorePlane replicates a checkpoint chain (restore plane
// on) and rehydrates a live instance from the follower's materialized
// state; the restored instance must answer queries identically and
// keep sliding deterministically (V = H makes every update a Full
// update, so the continued streams match exactly).
func TestChainRestorePlane(t *testing.T) {
	hh := newHHH(t, 1<<10, 32, 3)
	tr, err := NewTracker(hh, TrackerConfig{Chain: 7, Restore: true})
	if err != nil {
		t.Fatal(err)
	}
	st := NewState()
	packets := skewedPackets(5000, 5)
	var buf []byte
	for off := 0; off+500 <= len(packets); off += 500 {
		hh.UpdateBatch(packets[off : off+500])
		buf, _, err = tr.Append(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Apply(buf); err != nil {
			t.Fatal(err)
		}
	}
	if !st.Restorable() {
		t.Fatal("checkpoint chain not restorable")
	}
	mat, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := newHHH(t, 1<<10, 32, 3)
	if err := restored.RestoreFrom(mat); err != nil {
		t.Fatal(err)
	}
	tail := skewedPackets(3000, 8)
	for _, p := range tail {
		hh.Update(p)
		restored.Update(p)
	}
	for i := 0; i < 16; i++ {
		p := hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, byte(1+i)), SrcLen: 4}
		if g, w := restored.Query(p), hh.Query(p); g != w {
			t.Fatalf("continued query for %v: %g vs %g", p, g, w)
		}
	}
}

// TestEpochGapForcesResync drops a record mid-chain and checks the
// follower rejects everything after it with ErrEpochGap until a fresh
// base arrives.
func TestEpochGapForcesResync(t *testing.T) {
	hh := newHHH(t, 1<<10, 32, 11)
	tr, err := NewTracker(hh, TrackerConfig{Chain: 9})
	if err != nil {
		t.Fatal(err)
	}
	st := NewState()
	step := func() []byte {
		hh.UpdateBatch(skewedPackets(300, uint64(hh.Sketch().Updates())+1))
		out, _, err := tr.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if err := st.Apply(step()); err != nil { // base
		t.Fatal(err)
	}
	if err := st.Apply(step()); err != nil { // delta e+1
		t.Fatal(err)
	}
	dropped := step() // never delivered
	_ = dropped
	next := step()
	if err := st.Apply(next); !errors.Is(err, ErrEpochGap) {
		t.Fatalf("gap not detected: %v", err)
	}
	// The state survives a detected gap (stale but queryable)...
	if _, err := st.Snapshot(); err != nil {
		t.Fatalf("state unusable after detected gap: %v", err)
	}
	// ...and a fresh base resynchronizes.
	tr.ForceBase()
	rebase := step()
	if err := st.Apply(rebase); err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(step()); err != nil {
		t.Fatalf("delta after resync: %v", err)
	}

	// A record from a different chain is a gap, not corruption.
	other := newHHH(t, 1<<10, 32, 12)
	otr, err := NewTracker(other, TrackerConfig{Chain: 1234})
	if err != nil {
		t.Fatal(err)
	}
	other.UpdateBatch(skewedPackets(300, 1))
	obase, _, err := otr.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(obase); err != nil {
		t.Fatal(err) // bases always install
	}
	other.UpdateBatch(skewedPackets(300, 2))
	odelta, _, err := otr.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	st2 := NewState()
	if err := st2.Apply(odelta); !errors.Is(err, ErrEpochGap) {
		t.Fatalf("delta without base: %v", err)
	}
}

// TestConfigMismatchRejected pins that a delta from a differently
// configured instance cannot silently apply.
func TestConfigMismatchRejected(t *testing.T) {
	a := newHHH(t, 1<<10, 32, 1)
	b := newHHH(t, 1<<10, 64, 1) // different counter budget
	ta, err := NewTracker(a, TrackerConfig{Chain: 5})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTracker(b, TrackerConfig{Chain: 5})
	if err != nil {
		t.Fatal(err)
	}
	st := NewState()
	a.UpdateBatch(skewedPackets(200, 1))
	base, _, err := ta.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(base); err != nil {
		t.Fatal(err)
	}
	b.UpdateBatch(skewedPackets(200, 1))
	if _, _, err := tb.Append(nil); err != nil { // tb's base, discarded
		t.Fatal(err)
	}
	b.UpdateBatch(skewedPackets(200, 2))
	delta, _, err := tb.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(delta); !errors.Is(err, codec.ErrConfigMismatch) {
		t.Fatalf("config mismatch not detected: %v", err)
	}
}

// TestFloorTradesBytesForTail checks the fidelity floor: chain bytes
// shrink by an order of magnitude on a churning stream while heavy
// flows stay byte-exact; only sub-floor tail state may differ.
func TestFloorTradesBytesForTail(t *testing.T) {
	run := func(floor uint64) (deltaBytes int, st *State) {
		hh := newHHH(t, 1<<12, 256, 21)
		tr, err := NewTracker(hh, TrackerConfig{Chain: 3, Floor: floor})
		if err != nil {
			t.Fatal(err)
		}
		st = NewState()
		packets := skewedPackets(1<<14, 77)
		var buf []byte
		for off := 0; off < len(packets); off += 1 << 10 {
			hh.UpdateBatch(packets[off : off+1<<10])
			var base bool
			buf, base, err = tr.Append(buf[:0])
			if err != nil {
				t.Fatal(err)
			}
			if !base {
				deltaBytes += len(buf)
			}
			if err := st.Apply(buf); err != nil {
				t.Fatal(err)
			}
		}
		return deltaBytes, st
	}
	exactBytes, exactSt := run(0)
	blockCounts := uint64(1<<12) / 256 // W/k, tau = 1
	flooredBytes, flooredSt := run(blockCounts)
	if flooredBytes*4 > exactBytes {
		t.Fatalf("floor saved too little: %d vs exact %d bytes", flooredBytes, exactBytes)
	}
	exactSnap, err := exactSt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	flooredSnap, err := flooredSt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		p := hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, byte(1+i)), SrcLen: 4}
		ge := flooredSnap.Query(p)
		we := exactSnap.Query(p)
		// Heavy flows ride the overflow table, whose replication is
		// always exact; the in-frame remainder term differs by at most
		// the floor for keys that were briefly sub-floor.
		if math.Abs(ge-we) > float64(blockCounts) {
			t.Fatalf("heavy flow %v drifted: %g vs %g", p, ge, we)
		}
	}
}

// TestCheckpointerChain exercises the on-disk chain lifecycle: bases,
// deltas, rebase-and-prune, discovery, and restore ordering.
func TestCheckpointerChain(t *testing.T) {
	dir := t.TempDir()
	hh := newHHH(t, 1<<10, 32, 13)
	tr, err := NewTracker(hh, TrackerConfig{Chain: 99, Restore: true})
	if err != nil {
		t.Fatal(err)
	}
	src := trackerSource{tr: tr, hh: hh}
	cp, err := NewCheckpointer(dir, src, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		hh.UpdateBatch(skewedPackets(200, uint64(i)+1))
		if _, err := cp.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	chain, err := FindChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	if chain == nil {
		t.Fatal("no chain found")
	}
	// 7 ticks with baseEvery=4: base@1, deltas@2-5, base@6 (pruning
	// 1-5), delta@7.
	if filepath.Base(chain.Base) != "chain-0000000000000006.base" || len(chain.Deltas) != 1 {
		t.Fatalf("unexpected chain: %+v", chain)
	}
	st := NewState()
	applyFile := func(path string) error {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Apply(data)
	}
	if err := applyFile(chain.Base); err != nil {
		t.Fatal(err)
	}
	for _, d := range chain.Deltas {
		if err := applyFile(d); err != nil {
			t.Fatal(err)
		}
	}
	mat, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := newHHH(t, 1<<10, 32, 13)
	if err := restored.RestoreFrom(mat); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		p := hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, byte(1+i)), SrcLen: 4}
		if g, w := restored.Query(p), hh.Query(p); g != w {
			t.Fatalf("restored query for %v: %g vs %g", p, g, w)
		}
	}
	// Old chain files are pruned once a new base lands.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("prune left %d files, want 2", len(files))
	}
}

// trackerSource adapts a single Tracker to the Checkpointer's Source.
type trackerSource struct {
	tr *Tracker
	hh *core.HHH
}

func (s trackerSource) WriteChain(w io.Writer, rebase bool) (bool, error) {
	if rebase {
		s.tr.ForceBase()
	}
	out, base, err := s.tr.Append(nil)
	if err != nil {
		return false, err
	}
	_, err = w.Write(out)
	return base, err
}

// TestResetForcesBase pins that a sketch Reset (or RestoreFrom)
// invalidates the chain and the next record is a base.
func TestResetForcesBase(t *testing.T) {
	hh := newHHH(t, 1<<10, 32, 17)
	tr, err := NewTracker(hh, TrackerConfig{Chain: 15})
	if err != nil {
		t.Fatal(err)
	}
	hh.UpdateBatch(skewedPackets(300, 1))
	if _, base, err := tr.Append(nil); err != nil || !base {
		t.Fatalf("first record: base=%v err=%v", base, err)
	}
	hh.UpdateBatch(skewedPackets(300, 2))
	if _, base, err := tr.Append(nil); err != nil || base {
		t.Fatalf("second record: base=%v err=%v", base, err)
	}
	hh.Reset()
	hh.UpdateBatch(skewedPackets(300, 3))
	if _, base, err := tr.Append(nil); err != nil || !base {
		t.Fatalf("post-reset record: base=%v err=%v", base, err)
	}
}

// TestTruncatedDeltaUnbasesState pins Apply's failure contract: a
// delta that fails mid-application leaves the chain unbased so the
// follower must resync rather than query half-patched state.
func TestTruncatedDeltaUnbasesState(t *testing.T) {
	hh := newHHH(t, 1<<10, 32, 19)
	tr, err := NewTracker(hh, TrackerConfig{Chain: 21})
	if err != nil {
		t.Fatal(err)
	}
	st := NewState()
	hh.UpdateBatch(skewedPackets(500, 1))
	base, _, err := tr.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(base); err != nil {
		t.Fatal(err)
	}
	hh.UpdateBatch(skewedPackets(500, 2))
	delta, _, err := tr.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) < codec.HeaderSize+20 {
		t.Skip("delta too small to truncate meaningfully")
	}
	truncated := delta[:len(delta)-7]
	if err := st.Apply(truncated); err == nil {
		t.Fatal("truncated delta applied")
	}
	if st.based {
		t.Fatal("state still based after failed mid-delta apply")
	}
	if _, err := st.Snapshot(); err == nil {
		t.Fatal("snapshot of unbased state succeeded")
	}
}

// TestInvalidDeltaLeavesReplica pins that a delta which parses but
// would break the replica is refused before it writes anything: one
// that names a monitored key twice, and one whose entries would leave
// more monitored counters than the counter budget. Each unbases the
// chain, and the replica keeps answering with the last good state.
func TestInvalidDeltaLeavesReplica(t *testing.T) {
	hh := newHHH(t, 1<<10, 32, 37)
	tr, err := NewTracker(hh, TrackerConfig{Chain: 39})
	if err != nil {
		t.Fatal(err)
	}
	hh.UpdateBatch(skewedPackets(2000, 1))
	base, _, err := tr.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	h, body, err := codec.ReadHeader(base)
	if err != nil {
		t.Fatal(err)
	}
	mem := hh.Sketch()
	if mem.Slots() < 2 {
		t.Fatalf("base monitors %d keys, need two", mem.Slots())
	}
	monitored := mem.Slot(0)
	// record builds the next delta of the chain around the given entries.
	record := func(n int, entries []byte) []byte {
		rec := codec.AppendHeader(nil, codec.Header{Version: codec.Version, Kind: codec.KindHHHDelta, Digest: h.Digest})
		rec = append(rec, body[:8]...)
		rec = binary.BigEndian.AppendUint64(rec, binary.BigEndian.Uint64(body[8:16])+1)
		rec = binary.BigEndian.AppendUint64(rec, mem.Updates())
		rec = binary.BigEndian.AppendUint64(rec, mem.Items())
		rec = binary.AppendUvarint(rec, uint64(n))
		return append(rec, entries...)
	}
	twice := appendEntry(nil, monitored.Key, monitored.Count+1, 0, 0)
	twice = appendEntry(twice, monitored.Key, monitored.Count+2, 0, 0)
	var over []byte
	for i := 0; i <= mem.Counters(); i++ {
		over = appendEntry(over, hierarchy.Prefix{Src: hierarchy.IPv4(192, 0, 2, byte(i)), SrcLen: 4}, 3, 0, 0)
	}
	probes := []hierarchy.Prefix{monitored.Key, mem.Slot(1).Key, {Src: hierarchy.IPv4(192, 0, 2, 1), SrcLen: 4}}
	for _, c := range []struct {
		name string
		rec  []byte
	}{
		{"key named twice", record(2, twice)},
		{"over budget", record(mem.Counters()+1, over)},
	} {
		st := NewState()
		if err := st.Apply(base); err != nil {
			t.Fatal(err)
		}
		before, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Apply(c.rec); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("%s: Apply = %v, want ErrCorrupt", c.name, err)
		}
		if st.based {
			t.Fatalf("%s: chain still based", c.name)
		}
		if err := st.Replica().Sketch().Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		snapshotEqualOutputs(t, c.name, st.Replica(), before, probes)
	}
}

// TestUnknownFlagsRejected pins that Apply refuses a record carrying a
// header flag outside FlagRestore|FlagBase|FlagClearMonitored as
// corruption before touching the state: the epoch and every answer
// stay as they were, and the same record with its flags intact still
// applies.
func TestUnknownFlagsRejected(t *testing.T) {
	hh := newHHH(t, 1<<10, 32, 29)
	tr, err := NewTracker(hh, TrackerConfig{Chain: 33})
	if err != nil {
		t.Fatal(err)
	}
	st := NewState()
	for i := uint64(1); i <= 2; i++ { // a base, then a delta
		hh.UpdateBatch(skewedPackets(500, i))
		rec, _, err := tr.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	probes := make([]hierarchy.Prefix, 0, 16)
	for i := 0; i < 16; i++ {
		probes = append(probes, hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, byte(1+i)), SrcLen: 4})
	}
	before, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	epoch := st.Epoch()

	hh.UpdateBatch(skewedPackets(500, 3))
	next, base, err := tr.Append(nil)
	if err != nil || base {
		t.Fatalf("next record: base=%v err=%v", base, err)
	}
	for _, bit := range []uint16{1 << 3, 1 << 15} {
		bad := append([]byte(nil), next...)
		flags := binary.BigEndian.Uint16(bad[6:8]) | bit
		binary.BigEndian.PutUint16(bad[6:8], flags)
		if err := st.Apply(bad); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("flag %#x: Apply = %v, want ErrCorrupt", bit, err)
		}
		if !st.based || st.Epoch() != epoch {
			t.Fatalf("flag %#x: based=%v epoch %d, want based at epoch %d", bit, st.based, st.Epoch(), epoch)
		}
		after, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snapshotEqualOutputs(t, fmt.Sprintf("flag %#x", bit), after, before, probes)
	}
	if err := st.Apply(next); err != nil {
		t.Fatalf("valid record after rejected ones: %v", err)
	}
	if st.Epoch() != epoch+1 {
		t.Fatalf("epoch %d after the valid record, want %d", st.Epoch(), epoch+1)
	}
}

// TestForceBaseAgainstPendingCapture pins what ForceBase does to a
// capture already cut: a restore-plane chain holds a state copy and
// re-bases at once (a sharded chain set decides its flavor after
// capturing); a query-plane chain holds only its diff, ships it, and
// re-bases on the next step. An abandoned capture re-bases either way.
func TestForceBaseAgainstPendingCapture(t *testing.T) {
	for _, restore := range []bool{false, true} {
		hh := newHHH(t, 1<<10, 32, 23)
		tr, err := NewTracker(hh, TrackerConfig{Chain: 31, Restore: restore})
		if err != nil {
			t.Fatal(err)
		}
		st := NewState()
		step := func(force bool) bool {
			hh.UpdateBatch(skewedPackets(300, hh.Sketch().Updates()+1))
			if err := tr.Capture(); err != nil {
				t.Fatal(err)
			}
			if force {
				tr.ForceBase()
				if got := tr.PendingBase(); got != restore {
					t.Fatalf("restore=%v: PendingBase %v after forcing a pending capture", restore, got)
				}
			}
			rec, base, err := tr.AppendCaptured(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Apply(rec); err != nil {
				t.Fatalf("restore=%v: %v", restore, err)
			}
			return base
		}
		if !step(false) {
			t.Fatal("first record is not a base")
		}
		if step(false) {
			t.Fatal("second record is a base")
		}
		if base := step(true); base != restore {
			t.Fatalf("restore=%v: forced pending capture encoded base=%v", restore, base)
		}
		if base := step(false); base == restore {
			t.Fatalf("restore=%v: record after the forced one encoded base=%v", restore, base)
		}
		if err := tr.Capture(); err != nil { // abandoned
			t.Fatal(err)
		}
		if !step(false) {
			t.Fatalf("restore=%v: record after an abandoned capture is not a base", restore)
		}
	}
}

// TestBaseReleasesCapture pins the tracker's memory between bases: a
// query-plane chain drops its copy of the sketch once the base is
// encoded (its deltas diff the live sketch), and a forced re-base after
// that captures afresh and still replicates exactly. A restore-plane
// chain keeps its copy, which every one of its records reads.
func TestBaseReleasesCapture(t *testing.T) {
	for _, restore := range []bool{false, true} {
		hh := newHHH(t, 1<<12, 64, 29)
		tr, err := NewTracker(hh, TrackerConfig{Chain: 37, Restore: restore})
		if err != nil {
			t.Fatal(err)
		}
		st := NewState()
		packets := skewedPackets(1<<14, 101)
		probes := make([]hierarchy.Prefix, 0, 16)
		for i := 0; i < 16; i++ {
			probes = append(probes, hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, byte(1+i)), SrcLen: 4})
		}
		const cadence = 1 << 10
		var buf, wire []byte
		var full core.HHHSnapshot
		bases := 0
		for step, off := 0, 0; off < len(packets); step, off = step+1, off+cadence {
			hh.UpdateBatch(packets[off : off+cadence])
			if step == 5 || step == 11 {
				tr.ForceBase()
			}
			var base bool
			buf, base, err = tr.Append(buf[:0])
			if err != nil {
				t.Fatal(err)
			}
			if base {
				bases++
			}
			if held := !reflect.ValueOf(&tr.snap).Elem().IsZero(); held != restore {
				t.Fatalf("restore=%v step %d (base=%v): tracker holds a capture: %v", restore, step, base, held)
			}
			if err := st.Apply(buf); err != nil {
				t.Fatalf("restore=%v: apply at offset %d: %v", restore, off, err)
			}
			hh.SnapshotInto(&full)
			wire, err = full.AppendTo(wire[:0])
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.DecodeHHHSnapshot(wire)
			if err != nil {
				t.Fatal(err)
			}
			mat, err := st.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snapshotEqualOutputs(t, fmt.Sprintf("restore=%v offset %d", restore, off), mat, ref, probes)
		}
		if bases != 3 {
			t.Fatalf("restore=%v: %d bases, want the first and two forced", restore, bases)
		}
	}
}

// outputOf is the HHH set of snap alone at threshold theta: a
// SnapshotSet over the one member at weight 1.
func outputOf(snap *core.HHHSnapshot, theta float64) []core.HeavyPrefix {
	var set core.SnapshotSet
	set.Reset([]*core.HHHSnapshot{snap}, []float64{1})
	return set.Output(snap.Hierarchy(), theta*float64(snap.EffectiveWindow()), snap.Compensation(), nil)
}
