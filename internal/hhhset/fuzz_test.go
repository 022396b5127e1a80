package hhhset

import (
	"fmt"
	"testing"

	"memento/internal/hierarchy"
	"memento/internal/rng"
)

// FuzzComputeTracked holds the scan's two intakes to the reference on
// any candidate set: fuzz bytes become a 1D or 2D set over a small
// address pool, with arbitrary non-negative bounds (a lower above its
// upper included, and nothing monotone along the hierarchy), a
// threshold, a compensation and the bounds of untracked prefixes.
// ComputeTracked over the high candidates, ComputeCandidates over all
// of them and referenceCompute must agree entry for entry.
func FuzzComputeTracked(f *testing.F) {
	src := rng.New(5)
	for range 8 {
		seed := make([]byte, 4+4*(8+src.Intn(40)))
		for i := range seed {
			seed[i] = byte(src.Intn(256))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		var h hierarchy.Hierarchy = hierarchy.OneD{}
		if data[0]&1 == 1 {
			h = hierarchy.TwoD{}
		}
		threshold, comp := float64(data[1])*8, float64(data[2])*4
		est := boundsTable{m: map[hierarchy.Prefix][2]float64{}, upper: float64(data[3]) * 4, lower: float64(data[3])}
		// poolPrefix maps one byte to a prefix of a 16-address pool:
		// the low four bits pick the address, the rest its length.
		poolPrefix := func(b byte) (uint32, uint8) {
			keep := (b >> 4) % 5
			return hierarchy.MaskBytes(hierarchy.IPv4(1+b&1, b>>1&1, b>>2&1, b>>3&1), keep), keep
		}
		var prefixes []hierarchy.Prefix
		var all, high []Candidate
		for b := data[4:]; len(b) >= 4; b = b[4:] {
			var p hierarchy.Prefix
			p.Src, p.SrcLen = poolPrefix(b[0])
			if h.Dims() == 2 {
				p.Dst, p.DstLen = poolPrefix(b[1])
			}
			if _, dup := est.m[p]; dup {
				continue
			}
			c := Candidate{Prefix: p, Upper: float64(b[2]) * 8, Lower: float64(b[3]) * 8}
			est.m[p] = [2]float64{c.Upper, c.Lower}
			prefixes = append(prefixes, p)
			all = append(all, c)
			if c.Upper+comp >= threshold {
				high = append(high, c)
			}
		}
		want := referenceCompute(h, est, prefixes, threshold, comp)
		var sc Scratch
		what := fmt.Sprintf("%v threshold %v compensation %v:", h, threshold, comp)
		sameEntries(t, what+" ComputeCandidates", ComputeCandidates(h, est, all, threshold, comp, &sc, nil), want)
		sameEntries(t, what+" ComputeTracked", ComputeTracked(h, est, high, threshold, comp, &sc, nil), want)
	})
}
