// Package baseline implements the algorithms the paper compares
// Memento and H-Memento against (Sections 2, 4.2 and 6):
//
//   - MST (Mitzenmacher, Steinke, Thaler): interval HHH with one Space
//     Saving instance per prefix pattern and H updates per packet.
//   - RHHH (Ben Basat et al., SIGCOMM'17): MST's structure with a
//     single randomized update per packet, using geometric skipping —
//     the fastest known interval algorithm.
//   - Baseline: the window HHH the paper constructs by replacing MST's
//     underlying HH algorithm with WCSS (= Memento with τ = 1), costing
//     H Full window updates per packet.
//
// All three expose the same Output computation as H-Memento through
// the shared hhhset machinery, so accuracy comparisons isolate the
// data-structure differences, exactly as in the paper's evaluation.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"memento/internal/core"
	"memento/internal/hhhset"
	"memento/internal/hierarchy"
	"memento/internal/rng"
	"memento/internal/spacesaving"
	"memento/internal/stats"
)

// MST is the interval HHH algorithm of Mitzenmacher et al.: H Space
// Saving instances, all updated on every packet.
type MST struct {
	hier     hierarchy.Hierarchy
	sketches []*spacesaving.Sketch[hierarchy.Prefix]
	n        uint64

	cands []hierarchy.Prefix // Output candidate scratch
}

// NewMST allocates an MST with countersPerInstance counters in each of
// the H per-pattern instances.
func NewMST(h hierarchy.Hierarchy, countersPerInstance int) (*MST, error) {
	if h == nil {
		return nil, errors.New("baseline: hierarchy is required")
	}
	m := &MST{hier: h, sketches: make([]*spacesaving.Sketch[hierarchy.Prefix], h.H())}
	for i := range m.sketches {
		s, err := spacesaving.NewWithHash(countersPerInstance, hierarchy.PrefixHasher(uint64(i)))
		if err != nil {
			return nil, err
		}
		m.sketches[i] = s
	}
	return m, nil
}

// Update feeds one packet: every prefix pattern receives an update
// (the O(H) cost the paper's Figure 6 baseline pays).
func (m *MST) Update(p hierarchy.Packet) {
	m.n++
	for i := range m.sketches {
		m.sketches[i].Add(m.hier.Prefix(p, i))
	}
}

// Items returns the number of packets in the current interval.
func (m *MST) Items() uint64 { return m.n }

// Bounds implements hhhset.Estimator.
func (m *MST) Bounds(p hierarchy.Prefix) (upper, lower float64) {
	i := m.hier.PatternIndex(p)
	if i < 0 {
		return 0, 0
	}
	u, l := m.sketches[i].QueryBounds(p)
	return float64(u), float64(l)
}

// Query returns the upper-bound estimate for prefix p over the current
// interval.
func (m *MST) Query(p hierarchy.Prefix) float64 {
	u, _ := m.Bounds(p)
	return u
}

// Output returns the approximate HHH set at threshold theta relative
// to the current interval length.
func (m *MST) Output(theta float64) []hhhset.Entry {
	m.cands = collectCandidates(m.sketches, m.cands[:0])
	return hhhset.Compute(m.hier, m, m.cands, theta*float64(m.n), 0)
}

// collectCandidates appends every monitored prefix across the
// instances to dst and returns it.
func collectCandidates(sketches []*spacesaving.Sketch[hierarchy.Prefix], dst []hierarchy.Prefix) []hierarchy.Prefix {
	for _, s := range sketches {
		s.Iterate(func(c spacesaving.Counter[hierarchy.Prefix]) bool {
			dst = append(dst, c.Key)
			return true
		})
	}
	return dst
}

// Reset starts a new measurement interval.
func (m *MST) Reset() {
	for _, s := range m.sketches {
		s.Flush()
	}
	m.n = 0
}

// RHHH is the randomized interval HHH algorithm: per packet it updates
// at most one instance, chosen uniformly, with overall update
// probability H/V, implemented with geometric skipping.
type RHHH struct {
	hier     hierarchy.Hierarchy
	sketches []*spacesaving.Sketch[hierarchy.Prefix]
	v        int
	n        uint64 // packets seen
	skip     int
	src      *rng.Source
	geo      *rng.Geometric
	z        float64 // Z_{1−δ} for query compensation

	cands []hierarchy.Prefix // Output candidate scratch
}

// RHHHConfig parameterizes RHHH.
type RHHHConfig struct {
	// Hierarchy selects the prefix domain. Required.
	Hierarchy hierarchy.Hierarchy
	// CountersPerInstance sizes each of the H Space Saving instances.
	CountersPerInstance int
	// V is the sampling ratio (V ≥ H); a packet performs an update with
	// probability H/V. V == 0 defaults to H (update every packet).
	V int
	// Delta is the confidence for the sampling compensation; defaults
	// to 0.001.
	Delta float64
	// Seed fixes the randomness; 0 selects a default.
	Seed uint64
}

// NewRHHH validates cfg and allocates the algorithm.
func NewRHHH(cfg RHHHConfig) (*RHHH, error) {
	if cfg.Hierarchy == nil {
		return nil, errors.New("baseline: hierarchy is required")
	}
	h := cfg.Hierarchy.H()
	v := cfg.V
	if v == 0 {
		v = h
	}
	if v < h {
		return nil, fmt.Errorf("baseline: V=%d below H=%d", cfg.V, h)
	}
	delta := cfg.Delta
	if delta == 0 {
		delta = 0.001
	}
	z, err := stats.Z(1 - delta)
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x52484848 // "RHHH"
	}
	r := &RHHH{
		hier:     cfg.Hierarchy,
		sketches: make([]*spacesaving.Sketch[hierarchy.Prefix], h),
		v:        v,
		src:      rng.New(seed),
		z:        z,
	}
	for i := range r.sketches {
		s, err := spacesaving.NewWithHash(cfg.CountersPerInstance, hierarchy.PrefixHasher(seed+uint64(i)))
		if err != nil {
			return nil, err
		}
		r.sketches[i] = s
	}
	r.geo = rng.NewGeometric(r.src, float64(h)/float64(v))
	r.skip = r.geo.Next()
	return r, nil
}

// Update feeds one packet. Most packets are skipped outright (the
// geometric sampler pre-computed how many); a sampled packet updates
// one uniformly chosen prefix pattern.
func (r *RHHH) Update(p hierarchy.Packet) {
	r.n++
	if r.skip > 0 {
		r.skip--
		return
	}
	r.skip = r.geo.Next()
	i := r.src.Intn(len(r.sketches))
	r.sketches[i].Add(r.hier.Prefix(p, i))
}

// Bounds implements hhhset.Estimator: counts scale by V, and a
// ±Z·√(V·N) sampling envelope keeps the bounds conservative.
func (r *RHHH) Bounds(p hierarchy.Prefix) (upper, lower float64) {
	i := r.hier.PatternIndex(p)
	if i < 0 {
		return 0, 0
	}
	u, l := r.sketches[i].QueryBounds(p)
	envelope := r.z * math.Sqrt(float64(r.v)*float64(r.n))
	upper = float64(u)*float64(r.v) + envelope
	lower = float64(l)*float64(r.v) - envelope
	if lower < 0 {
		lower = 0
	}
	return upper, lower
}

// Output returns the approximate HHH set at threshold theta relative
// to the current interval length.
func (r *RHHH) Output(theta float64) []hhhset.Entry {
	comp := 2 * r.z * math.Sqrt(float64(r.v)*float64(r.n))
	r.cands = collectCandidates(r.sketches, r.cands[:0])
	return hhhset.Compute(r.hier, r, r.cands, theta*float64(r.n), comp)
}

// Window is the paper's "Baseline" sliding-window HHH: MST with the
// underlying HH algorithm replaced by WCSS, i.e. H Memento instances
// at τ = 1, each receiving a Full update for every packet.
type Window struct {
	hier     hierarchy.Hierarchy
	sketches []*core.Sketch[hierarchy.Prefix]
	window   int

	cands []hierarchy.Prefix // Output candidate scratch
}

// NewWindow allocates the Baseline with countersPerInstance counters
// per pattern instance and window size w.
func NewWindow(h hierarchy.Hierarchy, w, countersPerInstance int) (*Window, error) {
	if h == nil {
		return nil, errors.New("baseline: hierarchy is required")
	}
	b := &Window{hier: h, sketches: make([]*core.Sketch[hierarchy.Prefix], h.H())}
	for i := range b.sketches {
		s, err := core.NewWithHash(core.Config{
			Window:   w,
			Counters: countersPerInstance,
			Tau:      1,
		}, hierarchy.PrefixHasher(uint64(i)))
		if err != nil {
			return nil, err
		}
		b.sketches[i] = s
	}
	b.window = b.sketches[0].EffectiveWindow()
	return b, nil
}

// Update feeds one packet: H Full window updates (the cost H-Memento's
// single constant-time update removes).
func (b *Window) Update(p hierarchy.Packet) {
	for i := range b.sketches {
		b.sketches[i].FullUpdate(b.hier.Prefix(p, i))
	}
}

// Bounds implements hhhset.Estimator.
func (b *Window) Bounds(p hierarchy.Prefix) (upper, lower float64) {
	i := b.hier.PatternIndex(p)
	if i < 0 {
		return 0, 0
	}
	return b.sketches[i].QueryBounds(p)
}

// Query returns the upper-bound window estimate for prefix p.
func (b *Window) Query(p hierarchy.Prefix) float64 {
	u, _ := b.Bounds(p)
	return u
}

// Output returns the approximate window HHH set at threshold theta.
func (b *Window) Output(theta float64) []hhhset.Entry {
	cands := b.cands[:0]
	for _, s := range b.sketches {
		s.Overflowed(func(p hierarchy.Prefix, _ int32) bool {
			cands = append(cands, p)
			return true
		})
	}
	b.cands = cands
	return hhhset.Compute(b.hier, b, cands, theta*float64(b.window), 0)
}
