// Merger edge cases: degenerate partition sets the production paths
// (per-process shards, netwide snapshot fleets, mementoctl merge) can
// hand the merged-estimate math — empty partitions, a single
// partition, and partitions whose update counts are wildly skewed
// (one saw a full window, another barely started sliding).

package shard

import (
	"math"
	"testing"

	"memento/internal/core"
	"memento/internal/hierarchy"
)

// snapOf captures one instance's query-plane snapshot.
func snapOf(hh *core.HHH) *core.HHHSnapshot {
	snap := new(core.HHHSnapshot)
	hh.SnapshotInto(snap)
	return snap
}

// newFlowsHHH builds a small single-instance H-Memento.
func newFlowsHHH(t *testing.T, window, counters int, seed uint64) *core.HHH {
	t.Helper()
	hh, err := core.NewHHH(core.HHHConfig{
		Hierarchy: hierarchy.Flows{}, Window: window, Counters: counters, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return hh
}

// TestMergerNoSnapshots pins the empty merge: no partitions, no
// output, zero window, and no panic.
func TestMergerNoSnapshots(t *testing.T) {
	var m Merger
	if out := m.Output(hierarchy.Flows{}, nil, 0.01, nil); len(out) != 0 {
		t.Fatalf("empty merge produced %d entries", len(out))
	}
	if m.Window() != 0 {
		t.Fatalf("empty merge window %d", m.Window())
	}
}

// TestMergerZeroUpdateShards merges active partitions with completely
// idle ones: the idle partitions must not dilute, scale, or corrupt
// the result — the merged set must equal the active-only merge with
// the idle windows added to the denominatorless window sum.
func TestMergerZeroUpdateShards(t *testing.T) {
	active := newFlowsHHH(t, 1<<10, 64, 1)
	idle := newFlowsHHH(t, 1<<10, 64, 2)
	heavy := hierarchy.Packet{Src: hierarchy.IPv4(10, 0, 0, 1)}
	for i := 0; i < 1<<10; i++ {
		active.Update(heavy)
	}
	var m Merger
	out := m.Output(hierarchy.Flows{}, []*core.HHHSnapshot{snapOf(active), snapOf(idle)}, 0.1, nil)
	if m.Window() != 2<<10 {
		t.Fatalf("merged window %d, want %d", m.Window(), 2<<10)
	}
	found := false
	for _, e := range out {
		if e.Prefix == (hierarchy.Prefix{Src: heavy.Src, SrcLen: 4}) {
			found = true
			if math.IsNaN(e.Estimate) || math.IsInf(e.Estimate, 0) || e.Estimate <= 0 {
				t.Fatalf("degenerate estimate %g", e.Estimate)
			}
			// The idle partition contributes only its absent-key
			// default; the heavy flow's merged estimate stays within
			// the active partition's own bounds plus that default.
			au, _ := snapOf(active).QueryBounds(e.Prefix)
			iu, _ := snapOf(idle).QueryBounds(e.Prefix)
			if e.Estimate != au+iu {
				t.Fatalf("estimate %g, want active %g + idle default %g", e.Estimate, au, iu)
			}
		}
	}
	if !found {
		t.Fatal("heavy flow missing from merged set")
	}

	// All partitions idle: no candidates, no output, finite window.
	out = m.Output(hierarchy.Flows{}, []*core.HHHSnapshot{snapOf(idle), snapOf(newFlowsHHH(t, 1<<10, 64, 3))}, 0.1, nil)
	if len(out) != 0 {
		t.Fatalf("all-idle merge produced %d entries", len(out))
	}
}

// TestMergerSingleShardDegenerate pins that merging exactly one
// partition reproduces that partition's own HHH set: skew correction
// collapses to 1, the compensation to the partition's own, and the
// entries to a SnapshotSet's over that partition alone.
func TestMergerSingleShardDegenerate(t *testing.T) {
	hh := newFlowsHHH(t, 1<<11, 64, 7)
	for i, p := range chainPackets(1<<12, 11) {
		_ = i
		hh.Update(p)
	}
	snap := snapOf(hh)
	var m Merger
	got := m.Output(hierarchy.Flows{}, []*core.HHHSnapshot{snap}, 0.05, nil)
	want := outputOf(snap, 0.05)
	outputsEqual(t, got, want)
	if m.Window() != snap.EffectiveWindow() {
		t.Fatalf("window %d vs %d", m.Window(), snap.EffectiveWindow())
	}
	if m.Compensation() != snap.Compensation() {
		t.Fatalf("compensation %g vs %g", m.Compensation(), snap.Compensation())
	}
}

// TestMergerSkewNoSlides merges a partition that filled its window
// with one that barely started (saw no slides past its first frame):
// the skew correction must derive from the captured update counts —
// the under-filled partition's raw estimates are not inflated by the
// window ratio, because its effective span is clamped to what it
// actually saw.
func TestMergerSkewNoSlides(t *testing.T) {
	full := newFlowsHHH(t, 1<<10, 64, 21)
	fresh := newFlowsHHH(t, 1<<10, 64, 22)
	heavyA := hierarchy.Packet{Src: hierarchy.IPv4(10, 0, 0, 1)}
	heavyB := hierarchy.Packet{Src: hierarchy.IPv4(10, 0, 0, 2)}
	for i := 0; i < 2<<10; i++ { // two windows: full has slid
		full.Update(heavyA)
	}
	for i := 0; i < 32; i++ { // far below one window: no slides yet
		fresh.Update(heavyB)
	}
	fs, qs := snapOf(full), snapOf(fresh)
	var m Merger
	out := m.Output(hierarchy.Flows{}, []*core.HHHSnapshot{fs, qs}, 0.01, nil)
	byPrefix := map[hierarchy.Prefix]core.HeavyPrefix{}
	for _, e := range out {
		byPrefix[e.Prefix] = e
	}
	pa := hierarchy.Prefix{Src: heavyA.Src, SrcLen: 4}
	pb := hierarchy.Prefix{Src: heavyB.Src, SrcLen: 4}
	if _, ok := byPrefix[pa]; !ok {
		t.Fatal("full partition's heavy flow missing")
	}
	// Reproduce the skew math the Merger must apply: update-count
	// shares with the span clamped at each partition's own updates.
	total := fs.Updates() + qs.Updates()
	window := fs.EffectiveWindow() + qs.EffectiveWindow()
	scaleOf := func(s *core.HHHSnapshot) float64 {
		span := float64(s.Updates()) / float64(total) * float64(window)
		if span > float64(s.Updates()) {
			span = float64(s.Updates())
		}
		winLen := float64(s.EffectiveWindow())
		if float64(s.Updates()) < winLen {
			winLen = float64(s.Updates())
		}
		return span / winLen
	}
	for p, snaps := range map[hierarchy.Prefix][2]*core.HHHSnapshot{pa: {fs, qs}, pb: {fs, qs}} {
		e, ok := byPrefix[p]
		if !ok {
			continue // pb may fall below theta; the estimate check below still runs via Bounds
		}
		u0, _ := snaps[0].QueryBounds(p)
		u1, _ := snaps[1].QueryBounds(p)
		want := u0*scaleOf(snaps[0]) + u1*scaleOf(snaps[1])
		if math.Abs(e.Estimate-want) > 1e-9 {
			t.Fatalf("skew-corrected estimate for %v: %g, want %g", p, e.Estimate, want)
		}
	}
	// The fresh partition's 32 updates must not be inflated toward a
	// window's worth (a naive window/updates rescale would multiply
	// them 32×): both clamps pin its scale just below 1.
	if got := scaleOf(qs); got > 1 || got < 0.9 {
		t.Fatalf("no-slide partition scale %g outside (0.9, 1]", got)
	}
}

// outputOf is the HHH set of snap alone at threshold theta: a
// SnapshotSet over the one member at weight 1.
func outputOf(snap *core.HHHSnapshot, theta float64) []core.HeavyPrefix {
	var set core.SnapshotSet
	set.Reset([]*core.HHHSnapshot{snap}, []float64{1})
	return set.Output(snap.Hierarchy(), theta*float64(snap.EffectiveWindow()), snap.Compensation(), nil)
}
