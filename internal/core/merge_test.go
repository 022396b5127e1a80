package core

import (
	"math"
	"testing"

	"memento/internal/hhhset"
	"memento/internal/hierarchy"
	"memento/internal/keyidx"
	"memento/internal/rng"
	"memento/internal/spacesaving"
)

// randomHHHSnapshot assembles a snapshot whose tracked prefixes and
// counts are drawn at random from a small address pool: estimates are
// not monotone along the hierarchy, so ancestors lighter than their
// descendants — the case the read plane's ancestor rule exists for —
// are common.
func randomHHHSnapshot(t *testing.T, src *rng.Source, hier hierarchy.Hierarchy, comp float64) *HHHSnapshot {
	t.Helper()
	const k, blockCounts = 16, 8
	prefix := func() hierarchy.Prefix {
		addr := func() uint32 {
			return hierarchy.IPv4(byte(1+src.Intn(2)), byte(src.Intn(2)), byte(src.Intn(2)), byte(src.Intn(2)))
		}
		p := hierarchy.Prefix{SrcLen: uint8(src.Intn(5))}
		p.Src = hierarchy.MaskBytes(addr(), p.SrcLen)
		if hier.Dims() == 2 {
			p.DstLen = uint8(src.Intn(5))
			p.Dst = hierarchy.MaskBytes(addr(), p.DstLen)
		}
		return p
	}
	spec := SnapshotSpec[hierarchy.Prefix]{
		Window: k * 512, Counters: k, BlockCounts: blockCounts, Scale: float64(hier.H()), Updates: 1 << 20,
	}
	spec.Overflow = keyidx.MustNewCounts[hierarchy.Prefix](150, prefixHash)
	for i, n := 0, src.Intn(150); i < n; i++ {
		p := prefix()
		if _, dup := spec.Overflow.Get(p); !dup {
			// Mostly light keys, a few heavy ones.
			b := int32(1 + src.Intn(3))
			if src.Intn(8) == 0 {
				b = int32(1 + src.Intn(40))
			}
			spec.Overflow.Put(p, b)
		}
	}
	// Half the snapshots are saturated (k monitored counters), so Min()
	// is positive and an overflow key that is no longer monitored can
	// sit below the absent-key default.
	seen := map[hierarchy.Prefix]bool{}
	count := uint64(1 + src.Intn(40))
	monitored := src.Intn(k)
	if src.Intn(2) == 0 {
		monitored = k
	}
	for len(spec.Monitored) < monitored {
		if p := prefix(); !seen[p] {
			seen[p] = true
			count += uint64(src.Intn(6))
			spec.Monitored = append(spec.Monitored, spacesaving.Counter[hierarchy.Prefix]{Key: p, Count: count})
			spec.Items += count
		}
	}
	snap, err := BuildHHHSnapshot(hier, comp, spec)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestSnapshotSetOutputMatchesFullScan is the read plane's exactness
// property: over random member sets — one member (the HHHSnapshot
// case) or several with unequal weights — SnapshotSet.Output equals
// the estimator-driven hhhset.Compute over every tracked prefix, which
// has neither the sweep's admission test nor the ancestor rule. The
// thresholds cover both sizings: T − Σd > 0, where the sweep filters
// (and where, in two dimensions, some trial must select a prefix below
// T through a glb add-back), and T − Σd ≤ 0, where it admits
// everything.
func TestSnapshotSetOutputMatchesFullScan(t *testing.T) {
	src := rng.New(33)
	var set SnapshotSet // one set across all trials: reuse must not leak state
	for _, hier := range []hierarchy.Hierarchy{hierarchy.OneD{}, hierarchy.TwoD{}} {
		filtered, degenerate, lifted := 0, 0, 0
		for trial := 0; trial < 300; trial++ {
			n := 1 + src.Intn(4)
			comp := float64(src.Intn(500))
			snaps := make([]*HHHSnapshot, n)
			weights := make([]float64, n)
			for i := range snaps {
				snaps[i] = randomHHHSnapshot(t, src, hier, comp)
				weights[i] = 1
				if n > 1 {
					weights[i] = 0.25 + float64(src.Intn(8))/4
				}
			}
			set.Reset(snaps, weights)

			// tracked lists (key, member) pairs; entries counts the
			// members' table entries, which is what the sweep reports —
			// a key both overflowed and monitored is two entries.
			var tracked []hierarchy.Prefix
			entries := 0
			for _, snap := range snaps {
				snap.Sketch().ForEachEstimate(func(p hierarchy.Prefix, _, _ float64) bool {
					tracked = append(tracked, p)
					return true
				})
				entries += snap.Sketch().TrackedKeys()
			}
			// Thresholds from below the summed absent defaults to well
			// above them.
			absent, _ := set.Bounds(hierarchy.Prefix{Src: 0xdeadbeef, SrcLen: 4, Dst: 0xdeadbeef, DstLen: uint8(4 * (hier.Dims() - 1))})
			for _, threshold := range []float64{comp + absent/2, comp + absent*2, comp + absent*6} {
				got := set.Output(hier, threshold, comp, nil)
				want := hhhset.Compute(hier, &set, tracked, threshold, comp)
				if len(got) != len(want) {
					t.Fatalf("%v trial %d n=%d threshold %g: read plane selected %d, full scan %d",
						hier, trial, n, threshold, len(got), len(want))
				}
				swept, admitted := set.Selectivity()
				if swept != entries {
					t.Fatalf("%v trial %d: swept %d entries, members hold %d", hier, trial, swept, entries)
				}
				if admitted > len(tracked) {
					t.Fatalf("%v trial %d: admitted %d pairs, members track %d", hier, trial, admitted, len(tracked))
				}
				filtering := admitted < len(tracked)
				if filtering {
					filtered++
				} else if threshold-comp <= absent {
					degenerate++
				}
				for i, w := range want {
					g := got[i]
					if g.Prefix != w.Prefix || !closeRel(g.Estimate, w.Estimate) || !closeRel(g.Conditioned, w.Conditioned) {
						t.Fatalf("%v trial %d n=%d threshold %g entry %d: read plane %+v, full scan %+v",
							hier, trial, n, threshold, i, g, w)
					}
					if filtering && w.Estimate+comp < threshold {
						lifted++
					}
				}
			}
		}
		if filtered == 0 || degenerate == 0 {
			t.Fatalf("%v: test vacuous: %d filtering queries, %d admit-everything queries", hier, filtered, degenerate)
		}
		if hier.Dims() == 2 && lifted == 0 {
			t.Fatal("test vacuous: no prefix below T was selected through a glb add-back while the sweep filtered")
		}
	}
}

// TestSnapshotSetCandidatesCarryTrackedBounds pins phase 2's
// resolution: over random member sets (one to four members, unequal
// weights), every candidate Output hands to the HHH-set scan carries
// exactly Tracked(p)'s bounds, to the bit, although the members that
// admitted p lend the bounds their sweep reported and only the others
// are probed; each candidate appears once, and every tracked prefix
// whose merged upper bound reaches T is one. Some trial must hold a
// candidate that a member tracks below its floor, so that the probe
// and the lent bounds meet in one sum.
func TestSnapshotSetCandidatesCarryTrackedBounds(t *testing.T) {
	src := rng.New(45)
	var set SnapshotSet
	mixed := 0
	for _, hier := range []hierarchy.Hierarchy{hierarchy.OneD{}, hierarchy.TwoD{}} {
		for trial := 0; trial < 200; trial++ {
			n := 1 + src.Intn(4)
			comp := float64(src.Intn(500))
			snaps := make([]*HHHSnapshot, n)
			weights := make([]float64, n)
			for i := range snaps {
				snaps[i] = randomHHHSnapshot(t, src, hier, comp)
				weights[i] = 0.25 + float64(src.Intn(8))/4 + src.Float64()/16
			}
			set.Reset(snaps, weights)
			absent, _ := set.Bounds(hierarchy.Prefix{Src: 0xdeadbeef, SrcLen: 4, Dst: 0xdeadbeef, DstLen: uint8(4 * (hier.Dims() - 1))})
			threshold := comp + absent*(0.5+6*src.Float64())
			set.Output(hier, threshold, comp, nil)

			held := map[hierarchy.Prefix]bool{}
			for _, c := range set.cands {
				if held[c.Prefix] {
					t.Fatalf("%v trial %d: %v handed to the scan twice", hier, trial, c.Prefix)
				}
				held[c.Prefix] = true
				upper, lower, ok := set.Tracked(c.Prefix)
				if !ok || c.Upper != upper || c.Lower != lower {
					t.Fatalf("%v trial %d n=%d: candidate %v carries (%v, %v), Tracked says (%v, %v, %v)",
						hier, trial, n, c.Prefix, c.Upper, c.Lower, upper, lower, ok)
				}
			}
			for k, e := range set.pending {
				for i, snap := range snaps {
					if _, _, ok := snap.trackedBoundsH(e.p, snap.hash(e.p)); ok && !set.admits[k*n+i].ok && held[e.p] {
						mixed++
					}
				}
			}
			for _, snap := range snaps {
				snap.Sketch().ForEachEstimate(func(p hierarchy.Prefix, _, _ float64) bool {
					if upper, _, _ := set.Tracked(p); upper >= threshold-comp && !held[p] {
						t.Fatalf("%v trial %d: %v reaches T = %v with %v but is no candidate", hier, trial, p, threshold-comp, upper)
					}
					return true
				})
			}
		}
	}
	if mixed == 0 {
		t.Fatal("test vacuous: no candidate was tracked below the floor on a member that did not admit it")
	}
}

// TestSnapshotSetTrim pins the pool hygiene hook: scratch above the
// limit is dropped, scratch below it is kept.
func TestSnapshotSetTrim(t *testing.T) {
	var set SnapshotSet
	set.pending = make([]hashedPrefix, 0, 64)
	set.admits = make([]memberBounds, 0, 64)
	set.cands = make([]hhhset.Candidate, 0, 64)
	set.held = keyidx.MustNew(8, prefixHash)
	set.Trim(32)
	if set.pending != nil || set.admits != nil || set.cands != nil {
		t.Fatalf("oversized phase-2 scratch retained: pending cap %d, admits cap %d, candidates cap %d",
			cap(set.pending), cap(set.admits), cap(set.cands))
	}
	if set.held == nil {
		t.Fatal("small candidate index not kept")
	}
	set.pending = make([]hashedPrefix, 0, 16)
	set.admits = make([]memberBounds, 0, 16)
	set.Trim(32)
	if set.pending == nil || set.admits == nil {
		t.Fatal("small phase-2 scratch not kept")
	}
}

// hashedMembers builds one H-Memento member over hier by every path a
// table is made: a live table's view (OutputTo reads it), SnapshotInto,
// a Clone of a CheckpointInto capture, AppendTo → DecodeHHHSnapshot,
// BuildHHHSnapshot from a Spec, a replica patched forward by
// ApplyPatch, and a capture of an instance rehydrated by RestoreFrom.
// The sources run under different seeds, among them the ones a sharded
// instance gives its shards, and differ in traffic.
func hashedMembers(t *testing.T, hier hierarchy.Hierarchy) (names []string, snaps []*HHHSnapshot) {
	t.Helper()
	add := func(name string, snap *HHHSnapshot) {
		names = append(names, name)
		snaps = append(snaps, snap)
	}
	// shardSeed is the seed a sharded instance gives its shard i.
	shardSeed := func(i uint64) uint64 { return defaultSeed + i*0x9e3779b97f4a7c15 }
	live := loadedHHH(t, hier, 0, 1)
	add("live view", &HHHSnapshot{Snapshot: Snapshot[hierarchy.Prefix]{table: live.mem.table}, hier: hier, comp: live.comp})

	captured := new(HHHSnapshot)
	loadedHHH(t, hier, 0, 2).SnapshotInto(captured)
	add("SnapshotInto", captured)

	checkpoint := new(HHHSnapshot)
	loadedHHH(t, hier, 0, shardSeed(1)).CheckpointInto(checkpoint)
	add("Clone", checkpoint.Clone())

	record, err := captured.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeHHHSnapshot(record)
	if err != nil {
		t.Fatal(err)
	}
	add("DecodeHHHSnapshot", decoded)

	shardLike := new(HHHSnapshot)
	loadedHHH(t, hier, 0, shardSeed(3)).SnapshotInto(shardLike)
	built, err := BuildHHHSnapshot(hier, shardLike.comp, shardLike.Spec(nil))
	if err != nil {
		t.Fatal(err)
	}
	add("BuildHHHSnapshot", built)

	source := loadedHHH(t, hier, 0, 5)
	old, cur := new(HHHSnapshot), new(HHHSnapshot)
	source.SnapshotInto(old)
	replica, err := BuildHHHSnapshot(hier, old.comp, old.Spec(nil))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(6)
	for i := 0; i < 1<<11; i++ {
		source.Update(hierarchy.Packet{Src: uint32(src.Intn(40)), Dst: uint32(src.Intn(40))})
	}
	source.SnapshotInto(cur)
	if err := replica.ApplyPatch(patchBetween(old, cur)); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*HHHSnapshot{old, cur} {
		s.Sketch().ForEachEstimate(func(p hierarchy.Prefix, _, _ float64) bool {
			gu, gl, gok := replica.trackedBoundsH(p, replica.hash(p))
			wu, wl, wok := cur.trackedBoundsH(p, cur.hash(p))
			if gu != wu || gl != wl || gok != wok {
				t.Fatalf("patched replica: %v bounds (%v, %v, %v), source (%v, %v, %v)", p, gu, gl, gok, wu, wl, wok)
			}
			return true
		})
	}
	add("ApplyPatch replica", replica)

	restored := MustNewHHH(HHHConfig{Hierarchy: hier, Window: 1 << 12, Counters: 128 * hier.H(), Seed: 77})
	if err := restored.RestoreFrom(checkpoint); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1<<10; i++ {
		restored.Update(hierarchy.Packet{Src: uint32(src.Intn(1 << 10)), Dst: uint32(src.Intn(8))})
	}
	rehydrated := new(HHHSnapshot)
	restored.SnapshotInto(rehydrated)
	add("RestoreFrom", rehydrated)
	return names, snaps
}

// patchBetween returns the Patch that takes a replica of old to cur:
// every key cur monitors or has overflowed with its state, and every
// key old overflowed that cur no longer has, with B 0.
func patchBetween(old, cur *HHHSnapshot) *Patch[hierarchy.Prefix] {
	p := &Patch[hierarchy.Prefix]{ClearMonitored: true, Updates: cur.Updates(), Items: cur.Items()}
	named := map[hierarchy.Prefix]bool{}
	cur.Monitored(func(c spacesaving.Counter[hierarchy.Prefix]) bool {
		p.Entries = append(p.Entries, PatchEntry[hierarchy.Prefix]{Key: c.Key, Count: c.Count, Err: c.Err, B: cur.OverflowCount(c.Key)})
		named[c.Key] = true
		return true
	})
	for _, s := range []*HHHSnapshot{cur, old} {
		for _, e := range s.overflow.Entries() {
			if !named[e.Key] {
				p.Entries = append(p.Entries, PatchEntry[hierarchy.Prefix]{Key: e.Key, B: cur.OverflowCount(e.Key)})
				named[e.Key] = true
			}
		}
	}
	return p
}

// TestHHHTablesShareOneHasher: whichever way an H-Memento table was
// made, the table, its overflow table B and its Space Saving index all
// hash every prefix as prefixHash does — the premise on which a merged
// read hashes a prefix once and probes every member with that value.
func TestHHHTablesShareOneHasher(t *testing.T) {
	for _, hier := range []hierarchy.Hierarchy{hierarchy.OneD{}, hierarchy.TwoD{}} {
		names, snaps := hashedMembers(t, hier)
		for i, snap := range snaps {
			checked := 0
			snap.Sketch().ForEachEstimate(func(p hierarchy.Prefix, _, _ float64) bool {
				want := prefixHash(p)
				if snap.hash(p) != want || snap.overflow.Hash(p) != want || snap.y.Hash(p) != want {
					t.Fatalf("%v %s: %v hashes (table %#x, B %#x, y %#x), prefixHash %#x",
						hier, names[i], p, snap.hash(p), snap.overflow.Hash(p), snap.y.Hash(p), want)
				}
				checked++
				return true
			})
			if checked == 0 {
				t.Fatalf("%v %s: test vacuous: the member tracks nothing", hier, names[i])
			}
		}
	}
}

// memberBoundsSum is the merged estimator by its definition, probing
// each member through its own trackedBoundsH (under its own hasher) and
// summing as SnapshotSet does, in member order.
type memberBoundsSum struct {
	snaps   []*HHHSnapshot
	weights []float64
}

func (m memberBoundsSum) Bounds(p hierarchy.Prefix) (upper, lower float64) {
	upper, lower, _ = m.Tracked(p)
	return upper, lower
}

func (m memberBoundsSum) Tracked(p hierarchy.Prefix) (upper, lower float64, tracked bool) {
	var totalU, totalL, defU, defL float64
	for i, snap := range m.snaps {
		du, dl := snap.AbsentBounds()
		totalU += du * m.weights[i]
		totalL += dl * m.weights[i]
	}
	for i, snap := range m.snaps {
		u, l, ok := snap.trackedBoundsH(p, snap.hash(p))
		if !ok {
			continue
		}
		tracked = true
		du, dl := snap.AbsentBounds()
		upper += u * m.weights[i]
		lower += l * m.weights[i]
		defU += du * m.weights[i]
		defL += dl * m.weights[i]
	}
	return upper + (totalU - defU), lower + (totalL - defL), tracked
}

// mergedMismatches counts the prefixes — every one a member tracks and
// each of their ancestors — on which the set's Tracked differs from
// the per-member reference, and fails unless Output equals the
// reference's full scan over every tracked prefix.
func mergedMismatches(t *testing.T, hier hierarchy.Hierarchy, snaps []*HHHSnapshot, weights []float64) int {
	t.Helper()
	var set SnapshotSet
	set.Reset(snaps, weights)
	ref := memberBoundsSum{snaps, weights}
	var tracked, probes []hierarchy.Prefix
	for _, snap := range snaps {
		snap.Sketch().ForEachEstimate(func(p hierarchy.Prefix, _, _ float64) bool {
			tracked = append(tracked, p)
			probes = p.Ancestors(append(probes, p))
			return true
		})
	}
	bad := 0
	for _, p := range probes {
		gu, gl, gok := set.Tracked(p)
		wu, wl, wok := ref.Tracked(p)
		if gu != wu || gl != wl || gok != wok {
			bad++
		}
	}
	if bad > 0 {
		return bad
	}
	absent, _ := ref.Bounds(hierarchy.Prefix{Src: 0xdeadbeef, SrcLen: 4, Dst: 0xdeadbeef, DstLen: uint8(4 * (hier.Dims() - 1))})
	comp := snaps[0].Compensation()
	selected := 0
	for _, threshold := range []float64{comp + absent/2, comp + absent*2, comp + absent*6} {
		got := set.Output(hier, threshold, comp, nil)
		selected += len(got)
		want := hhhset.Compute(hier, ref, tracked, threshold, comp)
		if len(got) != len(want) {
			t.Fatalf("%v threshold %g: read plane selected %d, per-member reference %d", hier, threshold, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Prefix != w.Prefix || !closeRel(g.Estimate, w.Estimate) || !closeRel(g.Conditioned, w.Conditioned) {
				t.Fatalf("%v threshold %g entry %d: read plane %+v, per-member reference %+v", hier, threshold, i, g, w)
			}
		}
	}
	if selected == 0 {
		t.Fatalf("%v: test vacuous: no threshold selected a prefix", hier)
	}
	return 0
}

// closeRel reports whether a and b agree to a relative 1e-9: the read
// plane and a full scan add the same terms, not always in one order.
func closeRel(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

// TestSnapshotSetMixedPathsMatchMemberProbes: a SnapshotSet whose
// members were made by every path hashedMembers knows, at unequal
// weights, answers Tracked for every tracked prefix and its ancestors
// to the bit as a reference that probes each member under its own
// hasher, and Output as the reference's full scan. A member whose
// tables hash under another hasher must be caught: the set's one-hash
// probes miss its keys.
func TestSnapshotSetMixedPathsMatchMemberProbes(t *testing.T) {
	for _, hier := range []hierarchy.Hierarchy{hierarchy.OneD{}, hierarchy.TwoD{}} {
		_, snaps := hashedMembers(t, hier)
		weights := make([]float64, len(snaps))
		for i := range weights {
			weights[i] = 0.5 + float64(i)/4
		}
		if bad := mergedMismatches(t, hier, snaps, weights); bad != 0 {
			t.Fatalf("%v: %d prefixes merged differently from the per-member reference", hier, bad)
		}
		foreign := &HHHSnapshot{hier: hier, comp: snaps[1].comp}
		spec := snaps[1].Spec(nil)
		ov := keyidx.MustNewCounts[hierarchy.Prefix](max(spec.Overflow.Len(), 1), hierarchy.PrefixHasher(7))
		for _, e := range spec.Overflow.Entries() {
			ov.Put(e.Key, e.Val)
		}
		spec.Overflow = ov
		if err := foreign.build(spec, hierarchy.PrefixHasher(7)); err != nil {
			t.Fatal(err)
		}
		snaps[1] = foreign
		if mergedMismatches(t, hier, snaps, weights) == 0 {
			t.Fatalf("%v: a member hashing under another hasher went unnoticed", hier)
		}
	}
}
