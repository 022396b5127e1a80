// Section 4.3's Sample/Batch methods, written once: Agent and
// Controller run them over TCP, and internal/netsim runs m samplers and
// one absorber in memory.

package netwide

import (
	"math"

	"memento/internal/core"
	"memento/internal/hierarchy"
	"memento/internal/rng"
)

// Sampler is the agent half: it τ-samples observed packets into batches
// of b samples (b = 1 is the Sample method). Not safe for concurrent
// use; Agent holds its sampler under its observe lock.
type Sampler struct {
	coin     uint64 // ⌈τ·2⁵³⌉: Uint64()>>11 < coin is Float64() < τ, minus a call
	b        int
	src      *rng.Source
	buf      []hierarchy.Packet
	observed uint64 // packets since the last cut
}

// NewSampler returns a sampler for normalized params p whose coins
// come from src.
func NewSampler(p Params, src *rng.Source) *Sampler {
	return &Sampler{coin: uint64(math.Ceil(p.Tau() * (1 << 53))), b: p.BatchSize, src: src}
}

// Observe counts one packet, samples it with probability τ, and
// reports whether the batch is full and due for Cut.
func (s *Sampler) Observe(p hierarchy.Packet) bool {
	s.observed++
	if s.src.Uint64()>>11 < s.coin {
		s.buf = append(s.buf, p)
	}
	return len(s.buf) >= s.b
}

// Pending returns the packets observed since the last cut.
func (s *Sampler) Pending() uint64 { return s.observed }

// Cut returns the batch covering every packet observed since the last
// cut. The sampler starts a fresh buffer, so the caller owns the
// batch's samples and may hand them to another goroutine.
func (s *Sampler) Cut() Batch {
	b := Batch{Covered: s.observed, Samples: s.buf}
	s.buf = make([]hierarchy.Packet, 0, s.b)
	s.observed = 0
	return b
}

// Absorber is the controller half, D-Memento / D-H-Memento: it folds
// batches into one externally driven (H-)Memento sketch. Not safe for
// concurrent use; Controller holds its absorber under its ingest lock.
type Absorber struct {
	hier hierarchy.Hierarchy
	h    int
	hh   *core.HHH
	src  *rng.Source
}

// NewAbsorber builds the sketch for normalized params p over hier with
// the given counters, output confidence delta (0: core's default) and
// sketch seed. V = H/τ (at least H), so a Full update on one uniformly
// chosen prefix pattern per sample samples each pattern at τ/H = 1/V.
// src draws those patterns.
func NewAbsorber(hier hierarchy.Hierarchy, p Params, counters int, delta float64, seed uint64, src *rng.Source) (*Absorber, error) {
	h := hier.H()
	hh, err := core.NewHHH(core.HHHConfig{
		Hierarchy: hier,
		Window:    p.Window,
		Counters:  counters,
		V:         max(int(math.Round(float64(h)/p.Tau())), h),
		Delta:     delta,
		Seed:      seed,
	})
	if err != nil {
		return nil, err
	}
	return &Absorber{hier: hier, h: h, hh: hh, src: src}, nil
}

// Sketch returns the absorber's sketch.
func (a *Absorber) Sketch() *core.HHH { return a.hh }

// Absorb makes a Full update per sample on a uniformly chosen prefix
// pattern, then slides the window by the packets the batch covered but
// did not sample, in one bulk advance.
func (a *Absorber) Absorb(b Batch) {
	for _, pkt := range b.Samples {
		i := 0
		if a.h > 1 {
			i = a.src.Intn(a.h)
		}
		a.hh.FullUpdatePrefix(a.hier.Prefix(pkt, i))
	}
	// Covered is a u64 read off the wire, so the slide one frame buys is
	// bounded here: W + W/k packets without a Full update rotate every
	// ring queue out, which empties B, and flush y; from there on only
	// the frame position (pos + n) mod W depends on n (core's
	// TestLongSlideLeavesOnlyPosition).
	n := b.Covered - uint64(len(b.Samples))
	if w := uint64(a.hh.EffectiveWindow()); n > 3*w {
		n = 2*w + n%w
	}
	a.hh.WindowAdvance(int(n))
}
