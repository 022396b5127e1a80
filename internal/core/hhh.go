// H-Memento: hierarchical heavy hitters on sliding windows
// (paper Section 4.2, Algorithms 2-4).

package core

import (
	"errors"
	"fmt"
	"math"

	"memento/internal/hhhset"
	"memento/internal/hierarchy"
	"memento/internal/rng"
	"memento/internal/spacesaving"
	"memento/internal/stats"
)

// HHHConfig parameterizes an H-Memento instance.
type HHHConfig struct {
	// Hierarchy selects the prefix domain (hierarchy.OneD or
	// hierarchy.TwoD). Required.
	Hierarchy hierarchy.Hierarchy

	// Window is W, the sliding window size in packets. Required.
	Window int

	// Counters is the total number of counters across all prefix
	// patterns (the paper's 64H/512H/4096H notation multiplies out to
	// this; an algorithmic error bound εa stands for 4·H/εa). Required.
	Counters int

	// V is the sampling ratio: each specific prefix of a packet is
	// sampled with probability 1/V, so a packet triggers a Full update
	// with probability H/V (Table 1: V = H/τ). V < H is invalid; V == 0
	// defaults to H (a Full update for every packet, the τ = 1 analog).
	V int

	// Delta is the confidence parameter δ used in the output
	// computation's sampling compensation 2·Z_{1−δ}·√(V·W)
	// (Algorithm 2, line 8). Zero defaults to 0.001.
	Delta float64

	// Seed makes sampling deterministic; 0 selects a fixed default.
	Seed uint64
}

// HeavyPrefix is one entry of an HHH set: the prefix, its upper-bound
// window frequency estimate f̂+ and the conservative conditioned
// frequency C_{p|P} that crossed the threshold (sampling compensation
// included). It is the type the HHH-set computation produces, so
// outputs are appended to the caller's slice with no conversion.
type HeavyPrefix = hhhset.Entry

// HHH is an H-Memento instance: a single Memento sketch over sampled
// prefixes, updated in constant time per packet.
type HHH struct {
	hier hierarchy.Hierarchy
	mem  *Sketch[hierarchy.Prefix]
	h    int
	v    uint64
	comp float64 // 2·Z_{1−δ}·√(V·W), precomputed
	src  *rng.Source
	geo  *rng.Geometric
	skip int // batched path: packets left until the next sampled prefix (-1: not drawn)

	// OutputTo's read plane: view is a shallow copy of mem's table,
	// taken at call time and zeroed before OutputTo returns. Its slabs
	// alias the live ones, so it is never handed out and never a copy
	// destination; zeroing it keeps a slab that growth replaced from
	// being pinned.
	view HHHSnapshot
	solo soloSet
}

// prefixHash is the one prefix hasher of every H-Memento table — live
// (NewHHH, so every shard), captured (SnapshotInto, Clone), decoded,
// built (BuildHHHSnapshot, ApplyPatch replicas) or restored
// (RestoreFrom re-inserts under the live table's) — and of
// SnapshotSet's candidate index. One hasher lets a merged read hash a
// prefix once and probe every member's B and y with that value. It is
// hierarchy.PrefixHasher(0), made once: building the closure per
// snapshot would cost every materialized one an allocation.
var prefixHash = hierarchy.PrefixHasher(0)

// NewHHH validates cfg and returns a ready H-Memento.
func NewHHH(cfg HHHConfig) (*HHH, error) {
	if cfg.Hierarchy == nil {
		return nil, errors.New("core: HHHConfig.Hierarchy is required")
	}
	h := cfg.Hierarchy.H()
	v := cfg.V
	if v == 0 {
		v = h
	}
	if v < h {
		return nil, fmt.Errorf("core: V=%d below hierarchy size H=%d", cfg.V, h)
	}
	k := cfg.Counters
	if k <= 0 {
		return nil, errors.New("core: HHHConfig.Counters must be positive")
	}
	delta := cfg.Delta
	if delta == 0 {
		delta = 0.001
	}
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("core: Delta %v outside (0, 1)", cfg.Delta)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	mem, err := NewWithHash(Config{
		Window:   cfg.Window,
		Counters: k,
		Tau:      float64(h) / float64(v),
		Scale:    float64(v),
		Seed:     seed + 1,
	}, prefixHash)
	if err != nil {
		return nil, err
	}
	z, err := stats.Z(1 - delta)
	if err != nil {
		return nil, err
	}
	hh := &HHH{
		hier: cfg.Hierarchy,
		mem:  mem,
		h:    h,
		v:    uint64(v),
		comp: 2 * z * math.Sqrt(float64(v)*float64(mem.EffectiveWindow())),
		src:  rng.New(seed),
		skip: -1,
	}
	hh.geo = rng.NewGeometric(hh.src, float64(h)/float64(v))
	return hh, nil
}

// MustNewHHH is NewHHH for statically valid configurations.
func MustNewHHH(cfg HHHConfig) *HHH {
	h, err := NewHHH(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// EffectiveWindow returns the window actually maintained.
func (hh *HHH) EffectiveWindow() int { return hh.mem.EffectiveWindow() }

// Hierarchy returns the configured prefix domain.
func (hh *HHH) Hierarchy() hierarchy.Hierarchy { return hh.hier }

// Sketch exposes the underlying Memento instance (read-only use:
// diagnostics and the network-wide controller drive it directly).
func (hh *HHH) Sketch() *Sketch[hierarchy.Prefix] { return hh.mem }

// Update processes one packet in constant time (Algorithm 2): it draws
// a single integer i uniform in [0, V); if i < H the i-th prefix of the
// packet receives a Full update, otherwise only the window slides.
//
//memento:noalloc
func (hh *HHH) Update(p hierarchy.Packet) {
	// Multiply-shift maps a 32-bit uniform draw to [0, V); the bias is
	// at most V/2^32 per outcome, negligible for the V values in use.
	i := int(uint64(hh.src.Uint32()) * hh.v >> 32)
	if i < hh.h {
		hh.FullUpdatePrefix(hh.hier.Prefix(p, i))
	} else {
		hh.mem.WindowUpdate()
	}
}

// UpdateBatch processes a batch of packets, distributionally
// equivalent to calling Update once per packet: a packet samples one
// of its prefixes with probability H/V, and conditional on sampling
// the prefix pattern is uniform. Instead of drawing per packet, the
// number of packets until the next sampled one comes from a geometric
// distribution and the window slides over the skipped packets in bulk
// (Sketch.WindowAdvance). The pending skip count persists across
// calls, so results are independent of batch segmentation and
// deterministic under a fixed Seed.
//
//memento:noalloc
func (hh *HHH) UpdateBatch(ps []hierarchy.Packet) {
	i := 0
	for i < len(ps) {
		if hh.skip < 0 {
			hh.skip = hh.geo.Next()
		}
		if rem := len(ps) - i; hh.skip >= rem {
			hh.mem.WindowAdvance(rem)
			hh.skip -= rem
			return
		}
		hh.mem.WindowAdvance(hh.skip)
		i += hh.skip
		hh.skip = -1
		lvl := 0
		if hh.h > 1 {
			lvl = hh.src.Intn(hh.h)
		}
		hh.FullUpdatePrefix(hh.hier.Prefix(ps[i], lvl))
		i++
	}
}

// FullUpdatePrefix and WindowUpdate let external drivers (the
// network-wide controller) replay sampled prefixes directly. The
// prefix is hashed once here and the value serves the Space Saving
// index and, on an overflow, the B table.
//
//memento:noalloc
func (hh *HHH) FullUpdatePrefix(p hierarchy.Prefix) {
	hh.mem.FullUpdate(p)
}

// WindowAdvance slides the window by n packets in bulk — n
// WindowUpdate calls with per-chunk instead of per-packet expiry.
func (hh *HHH) WindowAdvance(n int) { hh.mem.WindowAdvance(n) }

// Query returns the upper-bound window frequency estimate for prefix p.
func (hh *HHH) Query(p hierarchy.Prefix) float64 { return hh.mem.Query(p) }

// QueryBounds returns conservative upper/lower bounds for prefix p.
func (hh *HHH) QueryBounds(p hierarchy.Prefix) (upper, lower float64) {
	return hh.mem.QueryBounds(p)
}

// Output computes the approximate HHH set for threshold theta
// (Algorithm 2, lines 3-10): levels are scanned bottom-up; a prefix
// joins the set when its conservative conditioned frequency (including
// the 2·Z·√(VW) sampling compensation) reaches theta·W.
func (hh *HHH) Output(theta float64) []HeavyPrefix { return hh.OutputTo(theta, nil) }

// OutputTo is Output appending to caller-provided dst. It is the read
// plane every snapshot answers through (SnapshotSet.Output over one
// member) run on a view of the live table, so the sweep hands on only
// the prefixes that can reach θ·W − compensation and nothing is
// copied; callers that recycle dst query without allocating. Call it
// under the lock guarding hh.
func (hh *HHH) OutputTo(theta float64, dst []HeavyPrefix) []HeavyPrefix {
	hh.view.table = hh.mem.table
	hh.view.hier = hh.hier
	hh.view.comp = hh.comp
	dst = hh.solo.output(&hh.view, theta, dst)
	hh.view = HHHSnapshot{}
	return dst
}

// Candidates appends every prefix the sketch currently tracks — the
// overflow table (every heavy hitter is guaranteed to be there) plus
// the monitored counters — and returns the extended slice; a key in
// both appears twice. It is the full candidate list the read plane's
// differential tests scan as their reference.
func (hh *HHH) Candidates(dst []hierarchy.Prefix) []hierarchy.Prefix {
	hh.mem.Overflowed(func(p hierarchy.Prefix, _ int32) bool {
		dst = append(dst, p)
		return true
	})
	hh.mem.Monitored(func(c spacesaving.Counter[hierarchy.Prefix]) bool {
		dst = append(dst, c.Key)
		return true
	})
	return dst
}

// Compensation returns the sampling compensation term 2·Z_{1−δ}·√(V·W)
// applied by Output (Algorithm 2, line 8).
func (hh *HHH) Compensation() float64 { return hh.comp }

// Reset restores the instance to its initial empty state.
func (hh *HHH) Reset() {
	hh.mem.Reset()
	hh.skip = -1
}

// HHHSnapshot is an immutable point-in-time copy of an H-Memento's
// queryable state: the underlying sketch's Snapshot — whose reads
// (Query, QueryBounds, EffectiveWindow, Updates, Restorable, …) it
// answers as is — plus the hierarchy and sampling compensation. Take
// it under the lock guarding the instance (SnapshotInto is a few slab
// memmoves); everything afterwards is lock-free. Its HHH set comes
// from a SnapshotSet over it (the shard front-end's, the fleet
// controller's). Not safe for concurrent use by multiple queries —
// pool snapshots instead.
type HHHSnapshot struct {
	Snapshot[hierarchy.Prefix]
	hier hierarchy.Hierarchy
	comp float64
}

// soloSet is a SnapshotSet over one snapshot at weight 1.
type soloSet struct {
	set     SnapshotSet
	snaps   [1]*HHHSnapshot
	weights [1]float64
}

// SnapshotInto captures the instance's queryable state into snap,
// reusing snap's buffers. Call it under the lock guarding hh.
//
//memento:noalloc
func (hh *HHH) SnapshotInto(snap *HHHSnapshot) {
	hh.mem.SnapshotInto(&snap.Snapshot)
	snap.hier = hh.hier
	snap.comp = hh.comp
}

// Sketch exposes the captured Memento state.
func (snap *HHHSnapshot) Sketch() *Snapshot[hierarchy.Prefix] { return &snap.Snapshot }

// Compensation returns the captured sampling compensation term.
func (snap *HHHSnapshot) Compensation() float64 { return snap.comp }

// output is SnapshotSet.Output over snap alone at weight 1.
func (q *soloSet) output(snap *HHHSnapshot, theta float64, dst []HeavyPrefix) []HeavyPrefix {
	q.snaps[0], q.weights[0] = snap, 1
	q.set.Reset(q.snaps[:], q.weights[:])
	return q.set.Output(snap.hier, theta*float64(snap.window), snap.comp, dst)
}
