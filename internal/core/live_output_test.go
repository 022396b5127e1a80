package core

import (
	"fmt"
	"reflect"
	"testing"

	"memento/internal/hhhset"
	"memento/internal/hierarchy"
	"memento/internal/rng"
)

// liveScan is the live read plane's reference: hhhset.ComputeCandidates
// over every prefix the sketch tracks, each with its QueryBounds. It has
// neither the sweep's admission test nor the ancestor rule. It also
// returns how many distinct prefixes the sketch tracks.
func liveScan(hh *HHH, theta float64) (want []HeavyPrefix, tracked int) {
	seen := map[hierarchy.Prefix]bool{}
	var cands []hhhset.Candidate
	for _, p := range hh.Candidates(nil) {
		if seen[p] {
			continue
		}
		seen[p] = true
		u, l := hh.QueryBounds(p)
		cands = append(cands, hhhset.Candidate{Prefix: p, Upper: u, Lower: l})
	}
	var sc hhhset.Scratch
	threshold := theta * float64(hh.EffectiveWindow())
	return hhhset.ComputeCandidates(hh.Hierarchy(), hh.Sketch(), cands, threshold, hh.Compensation(), &sc, nil), len(cands)
}

// liveCoverage counts what the checks of one test exercised, so a
// sizing that never filters, never admits everything or never selects
// anything fails loudly instead of passing vacuously.
type liveCoverage struct {
	configs, filtered, admitAll, selected int
}

// checkLiveOutput requires hh.OutputTo to equal the full scan element
// for element, and the view it reads through to be gone afterwards.
func checkLiveOutput(t *testing.T, tag string, hh *HHH, theta float64, dst []HeavyPrefix, cov *liveCoverage) []HeavyPrefix {
	t.Helper()
	got := hh.OutputTo(theta, dst[:0])
	if !reflect.ValueOf(&hh.view).Elem().IsZero() {
		t.Fatalf("%s θ=%g: OutputTo left its view of the live table behind", tag, theta)
	}
	want, tracked := liveScan(hh, theta)
	if len(got) != len(want) {
		t.Fatalf("%s θ=%g: live Output selected %d, full scan %d:\n%v\n%v", tag, theta, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s θ=%g entry %d: live Output %+v, full scan %+v", tag, theta, i, got[i], want[i])
		}
	}
	if _, admitted := hh.solo.set.Selectivity(); admitted < tracked {
		cov.filtered++
	} else if tracked > 0 {
		cov.admitAll++
	}
	if len(want) > 0 {
		cov.selected++
	}
	return got
}

// liveThetas are the thresholds a check runs at: 0.3, 0.1 and 0.03,
// each raised to at least the largest θ at which the sweep admits every
// tracked prefix (θ·W less the compensation reaches the absent-key
// upper bound), and that θ itself, without repeats. A lower θ takes the
// same admit-everything path and selects no fewer prefixes, and in two
// dimensions the reference scan is quadratic in those.
func liveThetas(hh *HHH) []float64 {
	absent, _ := hh.Sketch().AbsentBounds()
	admitAll := (hh.Compensation() + absent) / float64(hh.EffectiveWindow()) * (1 - 1e-9)
	var thetas []float64
	for _, theta := range []float64{0.3, 0.1, 0.03} {
		if theta > admitAll {
			thetas = append(thetas, theta)
		}
	}
	return append(thetas, admitAll)
}

// liveOutputConfigs are the sketches the live read plane is checked
// on, by hierarchy: every packet a Full update or (in one dimension)
// one in eight, and a compensation that admits everything up to θ near
// 0.3 or one small enough to leave the sweep filtering.
func liveOutputConfigs(hier hierarchy.Hierarchy) []HHHConfig {
	h := hier.H()
	vs, counters := []int{h, 8 * h}, 32*h
	if hier.Dims() == 2 {
		// One sample in eight leaves every tracked 2D prefix heavy at
		// this window, and fewer counters keep the reference scan fast.
		vs, counters = vs[:1], 16*h
	}
	var cfgs []HHHConfig
	for _, v := range vs {
		for _, delta := range []float64{0.001, 0.45} {
			cfgs = append(cfgs, HHHConfig{
				Hierarchy: hier, Window: 1 << 13, Counters: counters, V: v, Delta: delta,
				Seed: uint64(len(cfgs) + 1),
			})
		}
	}
	return cfgs
}

// liveStream draws packets from a few heavy subnets over a uniform
// tail; which subnets are heavy shifts with shift, so restored and
// reset sketches see other traffic than they held. In two dimensions
// both the heavy hosts and the tail come from a small universe: at an
// admit-everything θ every tracked fully specified prefix is selected,
// and the two-dimensional reference scan is quadratic in those.
func liveStream(src *rng.Source, dims, shift int) hierarchy.Packet {
	heavy := byte(10 + (src.Intn(6)+shift)%12)
	if dims == 2 {
		if src.Intn(5) < 3 {
			return hierarchy.Packet{
				Src: hierarchy.IPv4(heavy, 0, 0, byte(src.Intn(4))),
				Dst: hierarchy.IPv4(20, heavy, 0, byte(src.Intn(4))),
			}
		}
		a := uint32(src.Intn(32))
		return hierarchy.Packet{Src: a*0x9e3779b1 | 1<<31, Dst: a * 0x85ebca6b}
	}
	if src.Intn(5) < 3 {
		return hierarchy.Packet{Src: hierarchy.IPv4(heavy, byte(src.Intn(4)), byte(src.Intn(8)), byte(src.Intn(16)))}
	}
	return hierarchy.Packet{Src: src.Uint32() | 1<<31}
}

// liveHierarchies are the prefix domains both tests run over.
var liveHierarchies = []hierarchy.Hierarchy{hierarchy.OneD{}, hierarchy.TwoD{}}

// checkCoverage fails a test whose checks over one hierarchy never
// filtered, never admitted everything or never selected a prefix. It
// judges only a full run: a -run pattern that selects some of the
// configurations leaves the rest unexercised.
func checkCoverage(t *testing.T, hier hierarchy.Hierarchy, cov liveCoverage) {
	t.Helper()
	if cov.configs < len(liveOutputConfigs(hier)) {
		return
	}
	if cov.filtered == 0 || cov.admitAll == 0 || cov.selected == 0 {
		t.Fatalf("%v: test vacuous: %d filtering queries, %d admit-everything, %d with a selection",
			hier, cov.filtered, cov.admitAll, cov.selected)
	}
}

// TestLiveOutputMatchesFullScan pins the live read plane: HHH.OutputTo
// runs SnapshotSet.Output over a view of its own table, and that must
// equal the full scan over every tracked prefix at every θ from 0.3
// down to an admit-everything value, in one and two dimensions: on a
// filling and sliding sketch, right after each frame flush, after
// Reset, and after RestoreFrom.
func TestLiveOutputMatchesFullScan(t *testing.T) {
	for _, hier := range liveHierarchies {
		var cov liveCoverage
		for _, cfg := range liveOutputConfigs(hier) {
			t.Run(fmt.Sprintf("%v V=%d δ=%g", hier, cfg.V, cfg.Delta), func(t *testing.T) {
				cov.configs++
				hh := MustNewHHH(cfg)
				dims := hier.Dims()
				src := rng.New(cfg.Seed + 100)
				var dst []HeavyPrefix
				checkAll := func(tag string) {
					for _, theta := range liveThetas(hh) {
						dst = checkLiveOutput(t, tag, hh, theta, dst, &cov)
					}
				}
				checkAll("empty")

				// Half the chunks go through UpdateBatch, half packet by
				// packet; a frame flush is checked the moment Items
				// drops, or at the end of the batch it fell in.
				var ck HHHSnapshot
				batch := make([]hierarchy.Packet, 0, 2048)
				flushes := 0
				flushed := func(items uint64, tag string) {
					if hh.Sketch().Items() < items {
						flushes++
						dst = checkLiveOutput(t, tag, hh, liveThetas(hh)[0], dst, &cov)
					}
				}
				for fed := 0; fed < 4*cfg.Window; {
					n := 1 + src.Intn(2048)
					if src.Intn(2) == 0 {
						batch = batch[:0]
						for range n {
							batch = append(batch, liveStream(src, dims, 0))
						}
						items := hh.Sketch().Items()
						hh.UpdateBatch(batch)
						flushed(items, "batch across a flush")
					} else {
						for range n {
							items := hh.Sketch().Items()
							hh.Update(liveStream(src, dims, 0))
							flushed(items, "flush")
						}
					}
					fed += n
					checkAll(fmt.Sprintf("after %d packets", fed))
					if ck.Updates() == 0 && fed >= 2*cfg.Window {
						hh.CheckpointInto(&ck)
					}
				}
				if flushes == 0 {
					t.Fatal("test vacuous: no frame flush checked")
				}

				hh.Reset()
				checkAll("reset")
				for range cfg.Window / 2 {
					hh.Update(liveStream(src, dims, 5))
				}
				checkAll("refilled after reset")
				if err := hh.RestoreFrom(&ck); err != nil {
					t.Fatal(err)
				}
				checkAll("restored")
				for range cfg.Window / 2 {
					hh.Update(liveStream(src, dims, 7))
				}
				checkAll("sliding after restore")
			})
		}
		checkCoverage(t, hier, cov)
	}
}

// TestLiveOutputInterleavedMutations interleaves random mutations with
// OutputTo calls on one sketch and requires every answer to equal a
// fresh full scan, so no view of an earlier state, or of slabs growth
// has since replaced, can answer a later query.
func TestLiveOutputInterleavedMutations(t *testing.T) {
	for _, hier := range liveHierarchies {
		var cov liveCoverage
		for _, cfg := range liveOutputConfigs(hier) {
			t.Run(fmt.Sprintf("%v V=%d δ=%g", hier, cfg.V, cfg.Delta), func(t *testing.T) {
				cov.configs++
				hh := MustNewHHH(cfg)
				dims, h := hier.Dims(), hier.H()
				src := rng.New(cfg.Seed + 200)
				var dst []HeavyPrefix
				var ck HHHSnapshot
				batch := make([]hierarchy.Packet, 0, 512)
				shift := 0
				for op := 0; op < 600; op++ {
					switch r := src.Intn(100); {
					case r < 30:
						batch = batch[:0]
						for range 1 + src.Intn(512) {
							batch = append(batch, liveStream(src, dims, shift))
						}
						hh.UpdateBatch(batch)
					case r < 55:
						for range 1 + src.Intn(256) {
							hh.Update(liveStream(src, dims, shift))
						}
					case r < 65:
						// A burst of distinct prefixes grows the overflow
						// table and churns Space Saving.
						for range 1 + src.Intn(64) {
							hh.FullUpdatePrefix(hier.Prefix(liveStream(src, dims, shift), src.Intn(h)))
						}
					case r < 70:
						hh.WindowAdvance(1 + src.Intn(cfg.Window))
					case r < 72:
						hh.Reset()
						shift++
					case r < 75:
						hh.CheckpointInto(&ck)
					case r < 78:
						if ck.Restorable() {
							if err := hh.RestoreFrom(&ck); err != nil {
								t.Fatal(err)
							}
						}
					default:
						thetas := liveThetas(hh)
						dst = checkLiveOutput(t, fmt.Sprintf("op %d", op), hh, thetas[src.Intn(len(thetas))], dst, &cov)
					}
				}
			})
		}
		checkCoverage(t, hier, cov)
	}
}
