package main

import (
	"fmt"
	"math"

	"memento/internal/core"
	"memento/internal/hierarchy"
	"memento/internal/netwide"
	"memento/internal/trace"
)

// Flood recipe shared by every workload (paper §6.4, scaled to the window).
const (
	floodSubnets = 10
	floodRate    = 0.7
	ticksPerW    = 64 // a control tick every K = W/64 packets
	agents       = 2  // measurement points of a fleet
)

// spec is one workload: the instance it builds and the load it applies.
type spec struct {
	Name string
	Why  string

	Hier     hierarchy.Hierarchy
	Window   int
	Theta    float64
	Counters int // total sketch counters (per agent on the delta fleet)
	V        int // sampling ratio of the instance that takes the Full updates

	// Single-device workloads (shard.HHH).
	Shards    int
	Batch     int
	Producers int     // steady-phase producer goroutines, flat out
	PacedMpps float64 // > 0: one open-loop producer at this rate instead
	TickHz    int     // > 0: timer-driven steady control tick; 0: back to back

	// Fleet workloads (netwide.Controller + agents on loopback TCP).
	Fleet  bool
	Mode   netwide.ReportMode
	Params netwide.Params
}

func (s *spec) tickEvery() int { return s.Window / ticksPerW }

// sampled and delta tell the two fleets apart. (Mode's zero value is
// ReportSampled, so a bare comparison would also match the device workloads.)
func (s *spec) sampled() bool { return s.Fleet && s.Mode == netwide.ReportSampled }
func (s *spec) delta() bool   { return s.Fleet && s.Mode == netwide.ReportDelta }

// tau is the share of packets that cause a Full update.
func (s *spec) tau() float64 { return float64(s.Hier.H()) / float64(s.V) }

func specs() []*spec {
	oneD, twoD := hierarchy.OneD{}, hierarchy.TwoD{}
	// The paper's Batch protocol: B = 1 byte per packet, b = 44 samples per
	// report, so tau = 44/(64+4·44) = 0.18. Normalize fills in the default
	// overhead and sample sizes Tau needs; it cannot fail on these constants.
	sampled := netwide.Params{Budget: 1, BatchSize: 44, Window: 1 << 20}
	_ = sampled.Normalize(1)
	return []*spec{
		{
			Name: "dev1d-ingest",
			Why:  "two flat-out producers into a sampled (tau=1/32) 1D sharded sketch: hash+route, staging and the Window-update path do the work, the query plane almost none",
			Hier: oneD, Window: 1 << 22, Theta: 0.05, Counters: 512 * oneD.H(), V: 32 * oneD.H(),
			Shards: 4, Batch: 256, Producers: 2, TickHz: 20,
		},
		{
			Name: "dev2d-query",
			Why:  "back-to-back 2D OutputTo beside one open-loop 0.5 Mpkt/s producer: snapshot copy, merged table and the quadratic 2D HHH-set scan dominate while ingest idles",
			Hier: twoD, Window: 1 << 20, Theta: 0.05, Counters: 256 * twoD.H(), V: twoD.H(),
			Shards: 4, Batch: 256, PacedMpps: 0.5,
		},
		{
			Name: "fleet-delta-flood",
			Why:  "two delta-reporting agents over loopback TCP: every packet is a Full update and each tick walks delta capture, codec, socket, State.Apply and shard.Merger",
			Hier: oneD, Window: 1 << 20, Theta: 0.05, Counters: 2048, V: oneD.H(),
			Fleet: true, Mode: netwide.ReportDelta, Params: netwide.Params{Budget: 1, BatchSize: 1, Window: 1 << 20},
		},
		{
			Name: "fleet-sampled-flood",
			Why:  "same fleet and stream with coin-flip agents and batch frames: the controller's own sketch takes the Full updates and delta, snapshot codec and Merger are bypassed",
			Hier: oneD, Window: 1 << 20, Theta: 0.05, Counters: 4096,
			V:     int(math.Round(float64(oneD.H()) / sampled.Tau())),
			Fleet: true, Mode: netwide.ReportSampled, Params: sampled,
		},
	}
}

func specByName(name string) (*spec, error) {
	for _, s := range specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sizing is the recorded non-degeneracy evidence of a run.
type sizing struct {
	Theta    float64 `json:"theta"`
	V        int     `json:"v"`
	Window   int     `json:"window"`
	Counters int     `json:"counters"`
	Comp     float64 `json:"comp"`   // sampling compensation 2·Z·sqrt(V·W), merged over partitions
	Margin   float64 `json:"margin"` // theta·W − comp; the pre-filter works only when positive
	Band     float64 `json:"band"`   // algorithmic error band: 4·W/k per partition, summed, in packets
}

// partition returns the configuration of one independent sketch of the
// workload — a shard, an agent's local sketch, or the sampled controller's
// sketch — and how many of them split the stream.
func (s *spec) partition(seed uint64) (core.HHHConfig, int) {
	n := 1
	switch {
	case !s.Fleet:
		n = s.Shards
	case s.delta():
		n = agents
	}
	counters := s.Counters
	if !s.Fleet {
		counters = (s.Counters + n - 1) / n
	}
	return core.HHHConfig{
		Hierarchy: s.Hier,
		Window:    (s.Window + n - 1) / n,
		Counters:  counters,
		V:         s.V,
		Seed:      seed,
	}, n
}

// size computes the sizing from the same constructors the instances use and
// fails on a degenerate configuration, before anything is timed: with
// theta·W − comp <= 0 the output pre-filter is off and one query can take
// minutes.
func (s *spec) size() (sizing, error) {
	cfg, n := s.partition(1)
	hh, err := core.NewHHH(cfg)
	if err != nil {
		return sizing{}, fmt.Errorf("%s: %w", s.Name, err)
	}
	// Independent partitions: variances add, so comp merges as a root sum
	// of squares (shard.HHH.Compensation, shard.Merger.Compensation).
	comp := hh.Compensation() * math.Sqrt(float64(n))
	z := sizing{
		Theta: s.Theta, V: s.V, Window: s.Window, Counters: s.Counters,
		Comp:   comp,
		Margin: s.Theta*float64(s.Window) - comp,
		Band:   float64(n) * 4 * float64(hh.EffectiveWindow()) / float64(cfg.Counters),
	}
	if z.Margin <= 0 {
		return z, fmt.Errorf("%s: degenerate configuration: theta*W - comp = %.0f <= 0 (theta=%g W=%d V=%d comp=%.0f)",
			s.Name, z.Margin, s.Theta, s.Window, s.V, comp)
	}
	return z, nil
}

// input is the generated packet stream of one run: W flood-free packets, then
// 2·W packets with the flood mixed in.
type input struct {
	pkts    []hierarchy.Packet
	isFlood []bool
	subnets []uint32
	window  int
}

// makeInput derives the whole stream from seed. The program under test sees
// only these packets.
func makeInput(seed uint64, w int) (*input, error) {
	gen, err := trace.NewGenerator(trace.Backbone, seed)
	if err != nil {
		return nil, err
	}
	// After the start line 30% of the output is base traffic; 10% slack
	// covers the binomial noise of that share many times over.
	base := gen.Generate(w+int(float64(2*w)*(1-floodRate)*1.1), nil)
	fl, err := trace.Inject(base, trace.FloodConfig{Subnets: floodSubnets, Rate: floodRate, Start: w, Seed: seed + 1})
	if err != nil {
		return nil, err
	}
	if len(fl.Packets) < 3*w {
		return nil, fmt.Errorf("flood trace too short: %d < %d", len(fl.Packets), 3*w)
	}
	return &input{pkts: fl.Packets[:3*w], isFlood: fl.IsFlood[:3*w], subnets: fl.Subnets, window: w}, nil
}

// mixed returns the flood-mixed part of the stream, which the steady phase
// loops and the per-layer replays slice.
func (in *input) mixed() []hierarchy.Packet { return in.pkts[in.window:] }
