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
	spec.Overflow = keyidx.MustNewCounts[hierarchy.Prefix](150, hierarchy.PrefixHasher(0))
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
	close := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
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
					if g.Prefix != w.Prefix || !close(g.Estimate, w.Estimate) || !close(g.Conditioned, w.Conditioned) {
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

// TestSnapshotSetTrim pins the pool hygiene hook: scratch above the
// limit is dropped, scratch below it is kept.
func TestSnapshotSetTrim(t *testing.T) {
	var set SnapshotSet
	set.cands = make([]hhhset.Candidate, 0, 64)
	set.held = keyidx.MustNew(8, hierarchy.PrefixHasher(0))
	set.Trim(32)
	if set.cands != nil {
		t.Fatalf("oversized candidate scratch retained with cap %d", cap(set.cands))
	}
	if set.held == nil {
		t.Fatal("small candidate index not kept")
	}
}
