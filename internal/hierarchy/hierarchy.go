// Package hierarchy models the IP prefix hierarchies over which
// Hierarchical Heavy Hitters are defined (paper Section 4.2).
//
// Prefixes are byte-granularity, as in the paper's evaluation: a source
// hierarchy has H = 5 prefix patterns (/32, /24, /16, /8, /0) and a
// two-dimensional source×destination hierarchy has H = 25 patterns and
// 9 depth levels (L = 9). The package provides the generalization
// partial order (Definition 4.1), greatest lower bounds (Definition
// 4.3), and the G(q|P) "closest descendants" operator used by the HHH
// output computation (Algorithms 2–4).
package hierarchy

import (
	"fmt"
	"strings"

	"memento/internal/keyidx"
)

// AddrBytes is the number of bytes in an IPv4 address; prefix lengths
// range over 0..AddrBytes kept bytes.
const AddrBytes = 4

// Packet is a fully specified item: a source address and, for
// two-dimensional hierarchies, a destination address.
type Packet struct {
	Src uint32
	Dst uint32
}

// Prefix identifies a byte-granularity prefix (or prefix tuple).
// SrcLen and DstLen count *kept* leading bytes (0..4); masked-out bytes
// of Src/Dst are zero. A one-dimensional prefix has DstLen == 0 and
// Dst == 0, and is distinguished from a 2D fully-wildcarded destination
// only by which Hierarchy produced it (the two never mix in one sketch).
//
// Prefix is comparable and is used directly as a sketch key.
type Prefix struct {
	Src    uint32
	Dst    uint32
	SrcLen uint8
	DstLen uint8
}

// PrefixHasher returns a fast seeded hash over Prefix values for the
// flat key indexes (internal/keyidx) that replace Go maps on the hot
// paths. A Prefix packs into a word and a half, so two SplitMix
// finalizer rounds beat the generic maphash path by several
// nanoseconds per lookup — which matters ×H for the MST/RHHH
// baselines and for every H-Memento Full update. The seed only
// perturbs table layout; equal prefixes always hash equal. Every
// H-Memento table, in every shard, replica and decoded snapshot,
// indexes under PrefixHasher(0), so a read that merges several of
// them hashes a prefix once for all; the other seeds serve the
// baselines' per-instance tables and audit sampling.
func PrefixHasher(seed uint64) func(Prefix) uint64 {
	return func(p Prefix) uint64 {
		k1 := uint64(p.Src)<<32 | uint64(p.Dst)
		k2 := uint64(p.SrcLen)<<8 | uint64(p.DstLen)
		return keyidx.Mix64(k1 ^ keyidx.Mix64(k2^seed))
	}
}

// MaskBytes returns addr with only the leading n bytes kept.
func MaskBytes(addr uint32, n uint8) uint32 {
	switch {
	case n == 0:
		return 0
	case n >= AddrBytes:
		return addr
	default:
		shift := uint(8 * (AddrBytes - n))
		return addr >> shift << shift
	}
}

// Canonical reports whether p's address bits are consistent with its
// lengths (no bits set beyond the kept bytes).
func (p Prefix) Canonical() bool {
	return MaskBytes(p.Src, p.SrcLen) == p.Src && MaskBytes(p.Dst, p.DstLen) == p.Dst
}

// Generalizes reports whether p ⪯ q in the paper's notation: p is an
// ancestor of (or equal to) q. It requires p to keep no more bytes than
// q in each dimension and to agree with q on the kept bytes.
func (p Prefix) Generalizes(q Prefix) bool {
	if p.SrcLen > q.SrcLen || p.DstLen > q.DstLen {
		return false
	}
	return MaskBytes(q.Src, p.SrcLen) == p.Src && MaskBytes(q.Dst, p.DstLen) == p.Dst
}

// StrictlyGeneralizes reports p ≺ q: p generalizes q and p ≠ q.
func (p Prefix) StrictlyGeneralizes(q Prefix) bool {
	return p != q && p.Generalizes(q)
}

// Depth returns the generalization depth of p: fully specified prefixes
// have depth 0 and each wildcarded byte adds one (Section 4.2). The
// result is relative to the hierarchy's full specification, so a 1D
// prefix must be interpreted by a 1D hierarchy.
func (p Prefix) depth(dims int) int {
	d := int(AddrBytes - p.SrcLen)
	if dims == 2 {
		d += int(AddrBytes - p.DstLen)
	}
	return d
}

// GLB returns the greatest lower bound of a and b (Definition 4.3): the
// unique most-general common descendant. ok is false when a and b have
// no common descendant (their kept bytes disagree on the overlap).
func GLB(a, b Prefix) (Prefix, bool) {
	src, slen, ok := glbDim(a.Src, a.SrcLen, b.Src, b.SrcLen)
	if !ok {
		return Prefix{}, false
	}
	dst, dlen, ok := glbDim(a.Dst, a.DstLen, b.Dst, b.DstLen)
	if !ok {
		return Prefix{}, false
	}
	return Prefix{Src: src, Dst: dst, SrcLen: slen, DstLen: dlen}, true
}

// glbDim computes the per-dimension greatest lower bound.
func glbDim(a uint32, alen uint8, b uint32, blen uint8) (uint32, uint8, bool) {
	if alen < blen {
		a, alen, b, blen = b, blen, a, alen
	}
	// a is now at least as specific; b must agree with a on b's bytes.
	if MaskBytes(a, blen) != b {
		return 0, 0, false
	}
	return a, alen, true
}

// Ancestors appends every strict generalization of p — each way of
// keeping fewer leading bytes in either dimension, at most
// (AddrBytes+1)² − 1 = 24 prefixes — to dst and returns it. A 1D
// prefix (DstLen == 0) yields 1D ancestors only.
func (p Prefix) Ancestors(dst []Prefix) []Prefix {
	for sl := uint8(0); sl <= p.SrcLen; sl++ {
		for dl := uint8(0); dl <= p.DstLen; dl++ {
			if sl == p.SrcLen && dl == p.DstLen {
				continue
			}
			dst = append(dst, Prefix{
				Src: MaskBytes(p.Src, sl), Dst: MaskBytes(p.Dst, dl), SrcLen: sl, DstLen: dl,
			})
		}
	}
	return dst
}

// Closest computes G(q|P) (Section 4.2): the subset of P strictly
// generalized by q that is maximal, i.e. h ∈ P with h ≺ q and no
// h' ∈ P with h ≺ h' ≺ q, in P's order. The result reuses the out
// slice's backing array when possible. It is the tests' reference
// definition of G: the HHH-set scan (internal/hhhset) keeps each
// candidate's G incrementally instead, and the core and hhhset tests
// hold it to this one.
func Closest(q Prefix, P []Prefix, out []Prefix) []Prefix {
	out = out[:0]
	for _, h := range P {
		if !q.StrictlyGeneralizes(h) {
			continue
		}
		out = append(out, h)
	}
	// Filter non-maximal elements: drop h if some other descendant h'
	// of q strictly generalizes h.
	kept := out[:0]
	for i, h := range out {
		maximal := true
		for j, h2 := range out {
			if i == j {
				continue
			}
			if h2.StrictlyGeneralizes(h) {
				maximal = false
				break
			}
		}
		if maximal {
			kept = append(kept, h)
		}
	}
	return kept
}

// Hierarchy enumerates the prefix patterns of a measurement domain.
// Implementations are OneD (source hierarchy, H = 5) and TwoD
// (source×destination, H = 25).
type Hierarchy interface {
	// Dims is 1 for source-only and 2 for source×destination domains.
	Dims() int
	// H returns the number of prefix patterns (the paper's H).
	H() int
	// Levels returns the number of generalization depths (the paper's
	// L+1 loop bound: 5 in 1D, 9 in 2D).
	Levels() int
	// Prefix returns pattern i of p, for i in [0, H()). Pattern 0 is the
	// fully specified item; patterns are ordered by non-decreasing depth.
	Prefix(p Packet, i int) Prefix
	// PatternIndex returns the pattern number (the i that Prefix would
	// have been called with) for pr, or -1 if pr does not belong to
	// this hierarchy.
	PatternIndex(pr Prefix) int
	// Depth returns the generalization depth of pr under this hierarchy.
	Depth(pr Prefix) int
	// Fully returns the fully specified prefix of p.
	Fully(p Packet) Prefix
	// String returns a human-readable name ("src" or "src×dst").
	String() string
}

// OneD is the one-dimensional byte-granularity source hierarchy
// (H = 5). The zero value is ready to use.
type OneD struct{}

// Dims implements Hierarchy.
func (OneD) Dims() int { return 1 }

// H implements Hierarchy.
func (OneD) H() int { return AddrBytes + 1 }

// Levels implements Hierarchy.
func (OneD) Levels() int { return AddrBytes + 1 }

// Prefix implements Hierarchy; pattern i keeps 4-i source bytes.
func (OneD) Prefix(p Packet, i int) Prefix {
	keep := uint8(AddrBytes - i)
	return Prefix{Src: MaskBytes(p.Src, keep), SrcLen: keep}
}

// PatternIndex implements Hierarchy: pattern i keeps 4-i bytes.
func (OneD) PatternIndex(pr Prefix) int {
	if pr.SrcLen > AddrBytes || pr.DstLen != 0 || pr.Dst != 0 {
		return -1
	}
	return AddrBytes - int(pr.SrcLen)
}

// Depth implements Hierarchy.
func (OneD) Depth(pr Prefix) int { return pr.depth(1) }

// Fully implements Hierarchy.
func (OneD) Fully(p Packet) Prefix { return Prefix{Src: p.Src, SrcLen: AddrBytes} }

// String implements Hierarchy.
func (OneD) String() string { return "src" }

// TwoD is the two-dimensional byte-granularity source×destination
// hierarchy (H = 25, 9 levels). The zero value is ready to use.
type TwoD struct{}

// Dims implements Hierarchy.
func (TwoD) Dims() int { return 2 }

// H implements Hierarchy.
func (TwoD) H() int { return (AddrBytes + 1) * (AddrBytes + 1) }

// Levels implements Hierarchy.
func (TwoD) Levels() int { return 2*AddrBytes + 1 }

// twoDPatterns lists (srcKeep, dstKeep) pairs ordered by non-decreasing
// depth so that pattern 0 is fully specified.
var twoDPatterns = func() [25][2]uint8 {
	var pats [25][2]uint8
	idx := 0
	for depth := 0; depth <= 2*AddrBytes; depth++ {
		for ws := 0; ws <= AddrBytes; ws++ { // wildcarded source bytes
			wd := depth - ws
			if wd < 0 || wd > AddrBytes {
				continue
			}
			pats[idx] = [2]uint8{uint8(AddrBytes - ws), uint8(AddrBytes - wd)}
			idx++
		}
	}
	return pats
}()

// twoDIndex inverts twoDPatterns: twoDIndex[srcKeep][dstKeep] is the
// pattern number.
var twoDIndex = func() [5][5]int {
	var idx [5][5]int
	for i, pat := range twoDPatterns {
		idx[pat[0]][pat[1]] = i
	}
	return idx
}()

// Prefix implements Hierarchy.
func (TwoD) Prefix(p Packet, i int) Prefix {
	pat := twoDPatterns[i]
	return Prefix{
		Src:    MaskBytes(p.Src, pat[0]),
		Dst:    MaskBytes(p.Dst, pat[1]),
		SrcLen: pat[0],
		DstLen: pat[1],
	}
}

// PatternIndex implements Hierarchy.
func (TwoD) PatternIndex(pr Prefix) int {
	if pr.SrcLen > AddrBytes || pr.DstLen > AddrBytes {
		return -1
	}
	return twoDIndex[pr.SrcLen][pr.DstLen]
}

// Depth implements Hierarchy.
func (TwoD) Depth(pr Prefix) int { return pr.depth(2) }

// Fully implements Hierarchy.
func (TwoD) Fully(p Packet) Prefix {
	return Prefix{Src: p.Src, Dst: p.Dst, SrcLen: AddrBytes, DstLen: AddrBytes}
}

// String implements Hierarchy.
func (TwoD) String() string { return "src×dst" }

// Flows is the degenerate hierarchy with H = 1: the only "prefix" of a
// packet is its fully specified source. Under Flows, H-Memento reduces
// to plain Memento and D-H-Memento to D-Memento, which is exactly how
// the paper treats the network-wide HH problem (Theorem 5.5 "applies
// for D-Memento (using H = 1)"). The zero value is ready to use.
type Flows struct{}

// Dims implements Hierarchy.
func (Flows) Dims() int { return 1 }

// H implements Hierarchy.
func (Flows) H() int { return 1 }

// Levels implements Hierarchy.
func (Flows) Levels() int { return 1 }

// Prefix implements Hierarchy; the only pattern is the full source.
func (Flows) Prefix(p Packet, i int) Prefix {
	return Prefix{Src: p.Src, SrcLen: AddrBytes}
}

// PatternIndex implements Hierarchy.
func (Flows) PatternIndex(pr Prefix) int {
	if pr.SrcLen == AddrBytes && pr.DstLen == 0 && pr.Dst == 0 {
		return 0
	}
	return -1
}

// Depth implements Hierarchy: every valid prefix is fully specified.
func (Flows) Depth(pr Prefix) int {
	if pr.SrcLen == AddrBytes && pr.DstLen == 0 && pr.Dst == 0 {
		return 0
	}
	return -1
}

// Fully implements Hierarchy.
func (Flows) Fully(p Packet) Prefix { return Prefix{Src: p.Src, SrcLen: AddrBytes} }

// String implements Hierarchy.
func (Flows) String() string { return "flows" }

// Same reports whether two hierarchies describe the same prefix
// domain, without relying on interface comparability (a caller's
// Hierarchy may be an uncomparable type). The durable codec and the
// sharded restore paths use it to validate that snapshots and their
// targets agree.
func Same(a, b Hierarchy) bool {
	return a.Dims() == b.Dims() && a.H() == b.H() &&
		a.Levels() == b.Levels() && a.String() == b.String()
}

// FormatAddr renders a masked address with keep kept bytes in the
// paper's wildcard notation, e.g. "181.7.*.*".
func FormatAddr(addr uint32, keep uint8) string {
	var b strings.Builder
	for i := 0; i < AddrBytes; i++ {
		if i > 0 {
			b.WriteByte('.')
		}
		if i < int(keep) {
			fmt.Fprintf(&b, "%d", byte(addr>>uint(8*(AddrBytes-1-i))))
		} else {
			b.WriteByte('*')
		}
	}
	return b.String()
}

// String renders the prefix; 2D prefixes render as a tuple.
func (p Prefix) String() string {
	src := FormatAddr(p.Src, p.SrcLen)
	if p.DstLen == 0 && p.Dst == 0 {
		return src
	}
	return "(" + src + ", " + FormatAddr(p.Dst, p.DstLen) + ")"
}

// IPv4 packs four octets into the uint32 address representation used
// throughout the repository.
func IPv4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}
