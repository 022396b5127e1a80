package delta

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/hierarchy"
	"memento/internal/rng"
	"memento/internal/spacesaving"
)

// refTracker is the key-addressed chain encoder the slot-addressed
// Tracker replaced, kept as the differential reference: two Go-map
// shadows of the follower's tables and one diff decision per key. The
// original restricted the diff to the keys a dirty set named; this one
// diffs every key either side knows, which decides the same entries
// (a key nothing touched compares equal) and so depends on no tracking
// but the flush and reset counts.
type refTracker struct {
	hh  *core.HHH
	cfg TrackerConfig

	epoch  uint64
	based  bool
	force  bool
	hierID uint8
	digest uint64

	snap  core.HHHSnapshot
	dirty core.DirtySet[hierarchy.Prefix]

	mon  map[hierarchy.Prefix]refCounter
	over map[hierarchy.Prefix]int32
}

type refCounter struct{ count, err uint64 }

func newRefTracker(t testing.TB, hh *core.HHH, cfg TrackerConfig) *refTracker {
	id, err := codec.HierID(hh.Hierarchy())
	if err != nil {
		t.Fatal(err)
	}
	hh.EnableDeltaTracking()
	return &refTracker{
		hh: hh, cfg: cfg, hierID: id,
		mon:  map[hierarchy.Prefix]refCounter{},
		over: map[hierarchy.Prefix]int32{},
	}
}

// Append is one chain step: capture, then a base or a delta.
func (r *refTracker) Append(t testing.TB) (rec []byte, base bool) {
	if r.cfg.Restore {
		r.hh.CheckpointInto(&r.snap)
	} else {
		r.hh.SnapshotInto(&r.snap)
	}
	if err := r.hh.DeltaDrainInto(&r.dirty); err != nil {
		t.Fatal(err)
	}
	if r.dirty.WasReset() {
		r.force = true
	}
	mem := r.snap.Sketch()
	curMon := map[hierarchy.Prefix]refCounter{}
	mem.Monitored(func(c spacesaving.Counter[hierarchy.Prefix]) bool {
		curMon[c.Key] = refCounter{c.Count, c.Err}
		return true
	})
	curOver := map[hierarchy.Prefix]int32{}
	mem.Overflowed(func(key hierarchy.Prefix, b int32) bool {
		curOver[key] = b
		return true
	})
	r.epoch++
	flags := uint16(0)
	if r.cfg.Restore {
		flags |= codec.FlagRestore
	}

	if !r.based || r.force {
		r.digest = hhhDigest(r.hierID, uint64(mem.EffectiveWindow()), mem.Counters(), mem.BlockCounts(), mem.Scale())
		rec = codec.AppendHeader(nil, codec.Header{Version: codec.Version, Kind: codec.KindHHHDelta, Flags: flags | codec.FlagBase, Digest: r.digest})
		rec = binary.BigEndian.AppendUint64(rec, r.cfg.Chain)
		rec = binary.BigEndian.AppendUint64(rec, r.epoch)
		embedded, err := r.snap.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		rec = binary.AppendUvarint(rec, uint64(len(embedded)))
		rec = append(rec, embedded...)
		r.mon, r.over = curMon, curOver
		r.based, r.force = true, false
		return rec, true
	}

	if r.dirty.Flushed() {
		flags |= codec.FlagClearMonitored
		clear(r.mon)
	}
	keys := map[hierarchy.Prefix]struct{}{}
	for key := range r.mon {
		keys[key] = struct{}{}
	}
	for key := range r.over {
		keys[key] = struct{}{}
	}
	for key := range curMon {
		keys[key] = struct{}{}
	}
	for key := range curOver {
		keys[key] = struct{}{}
	}
	var entries []byte
	n := 0
	for key := range keys {
		cur, monitored := curMon[key]
		b := curOver[key]
		shadow, shipped := r.mon[key]
		if monitored && cur.count-cur.err < r.cfg.Floor && !shipped && b == 0 {
			// Guaranteed count below the fidelity floor and never
			// shipped: stays local.
			monitored = false
		}
		if !monitored {
			cur = refCounter{}
		}
		prevB := r.over[key]
		if cur.count == shadow.count && (cur.count == 0 || cur.err == shadow.err) && b == prevB {
			continue // the follower is current
		}
		entries = appendEntry(entries, key, cur.count, cur.err, b)
		n++
		if cur.count > 0 {
			r.mon[key] = cur
		} else if shipped {
			delete(r.mon, key)
		}
		if b > 0 {
			r.over[key] = b
		} else if prevB > 0 {
			delete(r.over, key)
		}
	}
	rec = codec.AppendHeader(nil, codec.Header{Version: codec.Version, Kind: codec.KindHHHDelta, Flags: flags, Digest: r.digest})
	rec = binary.BigEndian.AppendUint64(rec, r.cfg.Chain)
	rec = binary.BigEndian.AppendUint64(rec, r.epoch)
	rec = binary.BigEndian.AppendUint64(rec, mem.Updates())
	rec = binary.BigEndian.AppendUint64(rec, mem.Items())
	rec = binary.AppendUvarint(rec, uint64(n))
	rec = append(rec, entries...)
	if r.cfg.Restore {
		rec = binary.BigEndian.AppendUint64(rec, mem.UntilBlock())
		rec = binary.AppendUvarint(rec, uint64(mem.BlocksLeft()))
		rec = binary.BigEndian.AppendUint64(rec, mem.FullUpdates())
		rec = binary.BigEndian.AppendUint64(rec, mem.ForcedDrains())
		nq := 0
		mem.Queues(func([]hierarchy.Prefix) bool { nq++; return true })
		rec = binary.AppendUvarint(rec, uint64(nq))
		mem.Queues(func(q []hierarchy.Prefix) bool {
			rec = binary.AppendUvarint(rec, uint64(len(q)))
			for _, key := range q {
				rec = prefixKeys.AppendKey(rec, key)
			}
			return true
		})
	}
	return rec, false
}

// followerPair is the two encoders over twin sketches — same seed,
// same operations — each with its own follower.
type followerPair struct {
	t        *testing.T
	hh, twin *core.HHH
	tr       *Tracker
	ref      *refTracker
	st, rst  *State
	ckpt     [2]core.HHHSnapshot // restore points of hh and twin
	haveCkpt bool
	buf      []byte
	records  int
	probes   []hierarchy.Prefix
}

// newFollowerPair builds the twins and their encoders; floored sets
// the fidelity floor to the sketch's block threshold (netwide's
// default) instead of 0.
func newFollowerPair(t *testing.T, hier hierarchy.Hierarchy, window, counters int, seed uint64, cfg TrackerConfig, floored bool) *followerPair {
	t.Helper()
	mk := func() *core.HHH {
		hh, err := core.NewHHH(core.HHHConfig{Hierarchy: hier, Window: window, Counters: counters, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return hh
	}
	p := &followerPair{t: t, hh: mk(), twin: mk(), st: NewState(), rst: NewState()}
	if floored {
		cfg.Floor = p.hh.Sketch().BlockCounts()
	}
	tr, err := NewTracker(p.hh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.tr = tr
	p.ref = newRefTracker(t, p.twin, cfg)
	return p
}

func (p *followerPair) feed(ps ...hierarchy.Packet) {
	for _, pkt := range ps {
		p.hh.Update(pkt)
		p.twin.Update(pkt)
	}
}

func (p *followerPair) reset() {
	p.hh.Reset()
	p.twin.Reset()
}

func (p *followerPair) forceBase() {
	p.tr.ForceBase()
	p.ref.force = true
}

// checkpoint records a restore point; restore rehydrates both sketches
// from it (RestoreFrom resets, so the chain must re-base).
func (p *followerPair) checkpoint() {
	p.hh.CheckpointInto(&p.ckpt[0])
	p.twin.CheckpointInto(&p.ckpt[1])
	p.haveCkpt = true
}

func (p *followerPair) restore() {
	if !p.haveCkpt {
		return
	}
	if err := p.hh.RestoreFrom(&p.ckpt[0]); err != nil {
		p.t.Fatal(err)
	}
	if err := p.twin.RestoreFrom(&p.ckpt[1]); err != nil {
		p.t.Fatal(err)
	}
}

// step cuts one record from each encoder, applies each to its follower
// and requires the two followers — and the two records' sizes — to be
// identical. It reports whether the step was a base.
func (p *followerPair) step() bool {
	t := p.t
	t.Helper()
	p.records++
	tag := fmt.Sprintf("record %d", p.records)
	var base bool
	var err error
	p.buf, base, err = p.tr.Append(p.buf[:0])
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	ref, refBase := p.ref.Append(t)
	if base != refBase {
		t.Fatalf("%s: base %v, reference %v", tag, base, refBase)
	}
	if len(p.buf) != len(ref) {
		t.Fatalf("%s (base %v): %d bytes, reference %d", tag, base, len(p.buf), len(ref))
	}
	if err := p.st.Apply(p.buf); err != nil {
		t.Fatalf("%s: apply: %v", tag, err)
	}
	if err := p.rst.Apply(ref); err != nil {
		t.Fatalf("%s: apply reference: %v", tag, err)
	}
	requireSameState(t, tag, p.st, p.rst)
	got, err := p.st.Snapshot()
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	want, err := p.rst.Snapshot()
	if err != nil {
		t.Fatalf("%s: reference: %v", tag, err)
	}
	snapshotEqualOutputs(t, tag, got, want, p.probes)
	if p.tr.cfg.Floor == 0 {
		requireMirrorsLive(t, tag, p.st, p.hh)
	}
	return base
}

// requireSameState fails unless two followers hold the same scalars,
// monitored counters and overflow table.
func requireSameState(t *testing.T, tag string, a, b *State) {
	t.Helper()
	ra, rb := a.Replica().Sketch(), b.Replica().Sketch()
	if a.epoch != b.epoch || ra.Updates() != rb.Updates() || ra.Items() != rb.Items() {
		t.Fatalf("%s: scalars (%d,%d,%d) vs (%d,%d,%d)", tag, a.epoch, ra.Updates(), ra.Items(), b.epoch, rb.Updates(), rb.Items())
	}
	if ra.Slots() != rb.Slots() {
		t.Fatalf("%s: %d monitored vs %d", tag, ra.Slots(), rb.Slots())
	}
	for i := range ra.Slots() {
		c := ra.Slot(i)
		if j := rb.SlotOf(c.Key); j < 0 || rb.Slot(j) != c {
			t.Fatalf("%s: monitored %+v missing or different in reference follower", tag, c)
		}
	}
	if ra.OverflowEntries() != rb.OverflowEntries() {
		t.Fatalf("%s: %d overflow entries vs %d", tag, ra.OverflowEntries(), rb.OverflowEntries())
	}
	ra.Overflowed(func(key hierarchy.Prefix, val int32) bool {
		if w := rb.OverflowCount(key); w != val {
			t.Fatalf("%s: overflow[%v] = %d, reference follower has %d", tag, key, val, w)
		}
		return true
	})
	if a.Restorable() != b.Restorable() {
		t.Fatalf("%s: restorable %v vs %v", tag, a.Restorable(), b.Restorable())
	}
	if a.Restorable() {
		if ra.UntilBlock() != rb.UntilBlock() || ra.BlocksLeft() != rb.BlocksLeft() || ra.FullUpdates() != rb.FullUpdates() {
			t.Fatalf("%s: restore planes differ", tag)
		}
		var qa, qb []string
		ra.Queues(func(q []hierarchy.Prefix) bool { qa = append(qa, fmt.Sprint(q)); return true })
		rb.Queues(func(q []hierarchy.Prefix) bool { qb = append(qb, fmt.Sprint(q)); return true })
		if !slices.Equal(qa, qb) {
			t.Fatalf("%s: ring queues differ", tag)
		}
	}
}

// requireMirrorsLive fails unless an exact (Floor 0) follower holds
// precisely the live sketch's counters and overflow table.
func requireMirrorsLive(t *testing.T, tag string, st *State, hh *core.HHH) {
	t.Helper()
	mem, rep := hh.Sketch(), st.Replica().Sketch()
	if rep.Slots() != mem.Slots() || rep.OverflowEntries() != mem.OverflowEntries() {
		t.Fatalf("%s: follower has %d counters, %d overflow entries; live sketch %d, %d",
			tag, rep.Slots(), rep.OverflowEntries(), mem.Slots(), mem.OverflowEntries())
	}
	for i := range mem.Slots() {
		c := mem.Slot(i)
		if j := rep.SlotOf(c.Key); j < 0 || rep.Slot(j) != c {
			t.Fatalf("%s: live counter %+v missing or different in follower", tag, c)
		}
		if b := rep.OverflowCount(c.Key); b != mem.OverflowCount(c.Key) {
			t.Fatalf("%s: overflow[%v] = %d, live %d", tag, c.Key, b, mem.OverflowCount(c.Key))
		}
	}
}

func flow(id int) hierarchy.Packet { return hierarchy.Packet{Src: hierarchy.IPv4(10, 0, 0, byte(id))} }

func flowKey(id int) hierarchy.Prefix { return hierarchy.Flows{}.Fully(flow(id)) }

func repeat(p hierarchy.Packet, n int) []hierarchy.Packet {
	out := make([]hierarchy.Packet, n)
	for i := range out {
		out[i] = p
	}
	return out
}

// TestFollowerEquivalenceReadmission walks the two cases where a key's
// shipped state has to follow it: evicted and re-admitted into another
// slot inside one interval (the correction must ship from the new
// slot, once, even below the floor), and evicted in one interval and
// re-admitted in a later one (by then an ordinary below-floor key).
// Flows with V = 1 makes every packet a Full update of its source, so
// the stream places keys in slots exactly.
func TestFollowerEquivalenceReadmission(t *testing.T) {
	for _, floored := range []bool{false, true} {
		t.Run(fmt.Sprintf("floored=%v", floored), func(t *testing.T) {
			// 4 counters, 16-count blocks: the frame is 64 packets long.
			p := newFollowerPair(t, hierarchy.Flows{}, 64, 4, 3, TrackerConfig{Chain: 5}, floored)
			for id := 1; id <= 6; id++ {
				p.probes = append(p.probes, flowKey(id))
			}
			slotOf := func(id int) int {
				slot, _ := p.hh.Sketch().DeltaProbe(flowKey(id))
				return slot
			}
			// Key 1 overflows (16 counts), so it ships under either floor;
			// keys 2-4 fill the other slots.
			p.feed(repeat(flow(1), 16)...)
			p.feed(flow(2), flow(3), flow(4))
			if !p.step() {
				t.Fatal("first record is not a base")
			}
			home := slotOf(4)

			// One interval: 5 evicts 4 (the newest minimum), then 4 comes
			// back and evicts another minimum — a different slot.
			p.feed(flow(5))
			if slotOf(4) >= 0 {
				t.Fatal("key 4 was not evicted")
			}
			p.feed(flow(4))
			if moved := slotOf(4); moved < 0 || moved == home {
				t.Fatalf("key 4 re-admitted into slot %d, was %d: not the case under test", moved, home)
			}
			p.step()

			// Eviction and re-admission in different intervals.
			home = slotOf(4)
			p.feed(flow(6), flow(2), flow(3))
			if slotOf(4) >= 0 {
				t.Fatal("key 4 was not evicted a second time")
			}
			p.step()
			p.feed(flow(4))
			if slotOf(4) < 0 {
				t.Fatal("key 4 was not re-admitted")
			}
			p.step()

			// And across a frame flush: slots are handed out afresh.
			p.feed(repeat(flow(1), 40)...)
			p.feed(flow(4), flow(2))
			p.step()
		})
	}
}

// TestFollowerEquivalenceRandom drives both encoders with the same
// random streams and operations — intervals shorter and longer than a
// frame, Reset and RestoreFrom mid-interval, forced re-bases — over a
// sketch small enough that evictions, slot reuse and overflow churn
// happen in every interval, with the fidelity floor and the restore
// plane each on and off.
func TestFollowerEquivalenceRandom(t *testing.T) {
	hiers := []hierarchy.Hierarchy{hierarchy.Flows{}, hierarchy.OneD{}}
	for seed := uint64(1); seed <= 6; seed++ {
		for _, floored := range []bool{false, true} {
			for _, restore := range []bool{false, true} {
				hier := hiers[seed%2]
				t.Run(fmt.Sprintf("seed=%d/floored=%v/restore=%v/%s", seed, floored, restore, hier), func(t *testing.T) {
					const window, counters = 1 << 9, 16
					p := newFollowerPair(t, hier, window, counters, seed, TrackerConfig{Chain: 9, Restore: restore}, floored)
					for id := 0; id < 40; id++ {
						for i := 0; i < hier.H(); i++ {
							p.probes = append(p.probes, hier.Prefix(flow(id), i))
						}
					}
					src := rng.New(seed * 977)
					packet := func() hierarchy.Packet {
						// A few heavy flows over a tail wide enough to churn
						// sixteen counters.
						if src.Float64() < 0.5 {
							return flow(src.Intn(4))
						}
						return flow(4 + src.Intn(36))
					}
					bases := 0
					for rec := 0; rec < 120; rec++ {
						n := 1 + src.Intn(window/4)
						if src.Intn(8) == 0 {
							n = window/2 + src.Intn(window) // crosses a frame boundary, sometimes two
						}
						for i := 0; i < n; i++ {
							p.feed(packet())
							switch src.Intn(2000) {
							case 0:
								p.reset()
							case 1:
								p.restore()
							case 2:
								p.checkpoint()
							}
						}
						if src.Intn(25) == 0 {
							p.forceBase()
						}
						if p.step() {
							bases++
						}
					}
					if bases == 0 || bases > 60 {
						t.Fatalf("%d bases in 120 records: the stream is not exercising deltas", bases)
					}
				})
			}
		}
	}
}
