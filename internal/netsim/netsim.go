// Package netsim is a deterministic, event-driven simulation of the
// paper's network-wide measurement system (Sections 4.3, 6.3 and 6.4):
// m measurement points observe disjoint parts of a global packet
// stream and report to a central controller under a per-packet
// bandwidth budget of B bytes, using one of three communication
// methods:
//
//   - Sample: report each sampled packet immediately (one sample per
//     message), τ = B/(O+E).
//   - Batch: accumulate b samples per message, τ = B·b/(O+E·b) —
//     better payload ratio, higher reporting delay.
//   - Aggregation: the idealized baseline — agents keep *exact* local
//     sliding windows and ship their entire tables whenever the
//     accumulated byte budget covers the message; the controller
//     merges with no accuracy loss. All of its error comes from
//     staleness, exactly as the paper constructs it.
//
// Sample and Batch run the fleet protocol's own code: each measurement
// point is a netwide.Sampler, and the controller runs netwide's
// absorber (D-Memento / D-H-Memento: Full updates for reported
// samples, Window updates for the packets the report covers, Section
// 4.3 "Controller algorithm"), exchanging batches in memory.
//
// Time is the global packet index; report delivery is immediate
// (Section 5.2: in-datacenter RTT is negligible against window sizes).
// Everything is deterministic given the seed.
package netsim

import (
	"errors"
	"fmt"

	"memento/internal/exact"
	"memento/internal/hierarchy"
	"memento/internal/netwide"
	"memento/internal/obs"
	"memento/internal/rng"
)

// Method selects the communication scheme.
type Method int

// Communication methods of Section 4.3.
const (
	Aggregation Method = iota
	Sample
	Batch
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Aggregation:
		return "Aggregation"
	case Sample:
		return "Sample"
	case Batch:
		return "Batch"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Config parameterizes a simulation.
type Config struct {
	// Method is the communication scheme.
	Method Method
	// Points is m, the number of measurement points.
	Points int
	// Params are the fleet's deployment constants: budget B, overhead
	// O, sample size E, batch size b (Batch only; Sample forces 1) and
	// window W, with netwide's defaults.
	Params netwide.Params
	// Hier is the prefix domain (hierarchy.Flows for plain HH).
	Hier hierarchy.Hierarchy
	// Counters sizes the controller sketch (Sample/Batch).
	Counters int
	// Delta is the output confidence (default 0.001).
	Delta float64
	// Seed fixes all randomness.
	Seed uint64
}

// agent is one measurement point.
type agent struct {
	sampler *netwide.Sampler // Sample/Batch
	// Aggregation state.
	win    *exact.SlidingWindow[hierarchy.Packet]
	credit float64
	view   map[hierarchy.Prefix]float64 // controller's copy, per agent
}

// Sim is a network-wide measurement simulation.
type Sim struct {
	cfg    Config
	hier   hierarchy.Hierarchy
	tau    float64
	agents []agent
	rr     int

	abs *netwide.Absorber // controller (Sample/Batch)

	packets   uint64
	reports   uint64
	bytesSent float64
}

// New validates cfg and builds a simulation.
func New(cfg Config) (*Sim, error) {
	if cfg.Hier == nil {
		return nil, errors.New("netsim: hierarchy is required")
	}
	if cfg.Points <= 0 {
		return nil, errors.New("netsim: need at least one measurement point")
	}
	switch cfg.Method {
	case Sample:
		cfg.Params.BatchSize = 1
	case Batch:
		if cfg.Params.BatchSize <= 0 {
			return nil, errors.New("netsim: Batch needs BatchSize > 0")
		}
	case Aggregation:
	default:
		return nil, fmt.Errorf("netsim: unknown method %v", cfg.Method)
	}
	if err := cfg.Params.Normalize(cfg.Hier.Dims()); err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x6e657473696d // "netsim"
	}
	s := &Sim{
		cfg:    cfg,
		hier:   cfg.Hier,
		agents: make([]agent, cfg.Points),
	}
	switch cfg.Method {
	case Sample, Batch:
		// One source for every coin and pattern draw, in stream order.
		src := rng.New(seed)
		abs, err := netwide.NewAbsorber(cfg.Hier, cfg.Params, cfg.Counters, cfg.Delta, seed+1, src)
		if err != nil {
			return nil, err
		}
		s.abs = abs
		s.tau = cfg.Params.Tau()
		for i := range s.agents {
			s.agents[i].sampler = netwide.NewSampler(cfg.Params, src)
		}
	case Aggregation:
		local := cfg.Params.Window / cfg.Points
		if local < 1 {
			local = 1
		}
		for i := range s.agents {
			w, err := exact.NewSlidingWindow[hierarchy.Packet](local)
			if err != nil {
				return nil, err
			}
			s.agents[i].win = w
			s.agents[i].view = map[hierarchy.Prefix]float64{}
		}
	}
	return s, nil
}

// Method returns the configured communication method.
func (s *Sim) Method() Method { return s.cfg.Method }

// BytesPerPacket returns the realized control bandwidth use.
func (s *Sim) BytesPerPacket() float64 {
	if s.packets == 0 {
		return 0
	}
	return s.bytesSent / float64(s.packets)
}

// Register exposes the sim's transfer ledger in r under
// <prefix>_<name> (memento_<layer>_<name> convention; pick a prefix
// that distinguishes method and run, e.g. memento_netsim_sample).
// Values are read at scrape time; the simulation itself is
// single-threaded, so scrape after (or between) Feed calls.
func (s *Sim) Register(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	r.RegisterFunc(prefix+"_packets_total", func() float64 { return float64(s.packets) })
	r.RegisterFunc(prefix+"_reports_total", func() float64 { return float64(s.reports) })
	r.RegisterFunc(prefix+"_bytes_sent_total", func() float64 { return s.bytesSent })
	r.RegisterFunc(prefix+"_bytes_per_packet", s.BytesPerPacket)
	r.RegisterFunc(prefix+"_tau", func() float64 { return s.tau })
}

// Feed processes one global packet: it is assigned round-robin to a
// measurement point, which samples/accumulates and possibly emits a
// report that the controller consumes immediately.
func (s *Sim) Feed(p hierarchy.Packet) {
	s.packets++
	a := &s.agents[s.rr]
	s.rr++
	if s.rr == len(s.agents) {
		s.rr = 0
	}
	switch s.cfg.Method {
	case Sample, Batch:
		if a.sampler.Observe(p) {
			b := a.sampler.Cut()
			s.reports++
			s.bytesSent += s.cfg.Params.OverheadBytes + s.cfg.Params.SampleBytes*float64(len(b.Samples))
			s.abs.Absorb(b)
		}
	case Aggregation:
		a.win.Add(p)
		a.credit += s.cfg.Params.Budget
		cost := s.cfg.Params.OverheadBytes + s.cfg.Params.SampleBytes*float64(a.win.Distinct())
		if a.credit >= cost {
			s.deliverTable(a, cost)
		}
	}
}

// deliverTable ships an agent's full exact table (Aggregation): the
// controller replaces its per-agent view with prefix-level sums, with
// no merge loss — the idealized baseline of Section 4.3.
func (s *Sim) deliverTable(a *agent, cost float64) {
	s.reports++
	s.bytesSent += cost
	a.credit -= cost
	clear(a.view)
	a.win.Each(func(pkt hierarchy.Packet, c int) bool {
		hp := hierarchy.Packet{Src: pkt.Src, Dst: pkt.Dst}
		for i := range s.hier.H() {
			a.view[s.hier.Prefix(hp, i)] += float64(c)
		}
		return true
	})
}

// Estimate returns the controller's current frequency estimate for a
// prefix, in packets over the network-wide window.
func (s *Sim) Estimate(p hierarchy.Prefix) float64 {
	switch s.cfg.Method {
	case Sample, Batch:
		return s.abs.Sketch().Query(p)
	default:
		total := 0.0
		for i := range s.agents {
			total += s.agents[i].view[p]
		}
		return total
	}
}
