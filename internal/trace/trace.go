// Package trace generates the synthetic packet traces the evaluation
// runs on, standing in for the paper's real captures (CAIDA backbone,
// university datacenter, UCLA edge — Section 6 "Traces"), which are not
// redistributable. See DESIGN.md §2 for the substitution rationale.
//
// Two properties of the real traces matter to every experiment:
//
//  1. The flow-size distribution's skew (how concentrated traffic is on
//     elephant flows), which drives both sketch accuracy and Space
//     Saving churn. Profiles parameterize a Zipf popularity law.
//  2. The aggregation structure of addresses (flows clustering into
//     subnets), which drives the HHH experiments. Addresses are built
//     octet-by-octet from skewed per-octet distributions, producing
//     realistic heavy subnets at every prefix length.
//
// Generators are deterministic given (profile, seed); recorded runs
// (DESIGN.md §7) note both.
package trace

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"memento/internal/hierarchy"
	"memento/internal/rng"
)

// Profile describes a synthetic workload family.
type Profile struct {
	// Name labels output rows ("Backbone", "Datacenter", "Edge").
	Name string
	// FlowSkew is the Zipf exponent of flow popularity. Higher values
	// concentrate traffic on fewer flows.
	FlowSkew float64
	// Flows is the number of distinct flows in the universe.
	Flows int
	// OctetSkew is the Zipf exponent used to draw each address octet;
	// it shapes how strongly flows aggregate into heavy subnets.
	OctetSkew float64
}

// The three evaluation profiles. Skews are chosen so that the relative
// ordering matches the paper's observations: the Datacenter trace is
// the most skewed ("mainly evident in the skewed Datacenter trace",
// Fig. 5), the Backbone trace is heavy-tailed with a large universe,
// and the Edge trace sits in between with moderate skew.
var (
	Backbone   = Profile{Name: "Backbone", FlowSkew: 1.0, Flows: 1 << 20, OctetSkew: 0.8}
	Datacenter = Profile{Name: "Datacenter", FlowSkew: 1.3, Flows: 1 << 16, OctetSkew: 1.2}
	Edge       = Profile{Name: "Edge", FlowSkew: 0.9, Flows: 1 << 18, OctetSkew: 1.0}
)

// Profiles lists the built-in workload families in presentation order.
func Profiles() []Profile { return []Profile{Edge, Datacenter, Backbone} }

// ProfileByName resolves a profile by its (case-sensitive) name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown profile %q", name)
}

// Generator produces a deterministic packet stream for a profile.
type Generator struct {
	src     *rng.Source
	flows   []hierarchy.Packet
	popular *rng.Alias
}

// NewGenerator builds the flow universe and popularity table.
func NewGenerator(p Profile, seed uint64) (*Generator, error) {
	if p.Flows <= 0 {
		return nil, errors.New("trace: profile needs a positive flow count")
	}
	if p.FlowSkew < 0 || p.OctetSkew < 0 {
		return nil, errors.New("trace: negative skew")
	}
	src := rng.New(seed ^ 0x74726163652e2e2e) // "trace..."
	g := &Generator{
		src:   src,
		flows: make([]hierarchy.Packet, p.Flows),
	}
	// Per-octet skewed distributions with independent random
	// permutations per position, so heavy subnets land on arbitrary
	// byte values rather than always 0.
	octetAlias, err := rng.NewAlias(src, rng.ZipfWeights(256, p.OctetSkew))
	if err != nil {
		return nil, err
	}
	var perms [8][256]byte
	for d := range perms {
		for i := range perms[d] {
			perms[d][i] = byte(i)
		}
		for i := 255; i > 0; i-- {
			j := src.Intn(i + 1)
			perms[d][i], perms[d][j] = perms[d][j], perms[d][i]
		}
	}
	drawAddr := func(permBase int) uint32 {
		var a uint32
		for b := 0; b < 4; b++ {
			a = a<<8 | uint32(perms[permBase+b][octetAlias.Next()])
		}
		return a
	}
	for i := range g.flows {
		g.flows[i] = hierarchy.Packet{Src: drawAddr(0), Dst: drawAddr(4)}
	}
	g.popular, err = rng.NewAlias(src, rng.ZipfWeights(p.Flows, p.FlowSkew))
	if err != nil {
		return nil, err
	}
	return g, nil
}

// MustNewGenerator panics on error; for tests and examples.
func MustNewGenerator(p Profile, seed uint64) *Generator {
	g, err := NewGenerator(p, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// Next returns the next packet of the stream.
func (g *Generator) Next() hierarchy.Packet {
	return g.flows[g.popular.Next()]
}

// Generate appends n packets to dst and returns it.
func (g *Generator) Generate(n int, dst []hierarchy.Packet) []hierarchy.Packet {
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, g.Next())
	}
	return dst
}

// FloodConfig parameterizes the HTTP-flood injection of Section 6.4.
type FloodConfig struct {
	// Subnets is the number of attacking /8 subnets (the paper uses
	// 50 randomly chosen 8-bit subnets).
	Subnets int
	// Rate is the probability that an output line is a flood packet
	// once the flood starts (the paper uses 0.7, making the attack 70%
	// of traffic).
	Rate float64
	// Start is the base-trace line at which the flood begins. Negative
	// means "choose uniformly in [0, StartMax)".
	Start int
	// StartMax bounds the random start (the paper draws from (0, 10⁶)).
	StartMax int
	// Seed fixes the injection randomness.
	Seed uint64
}

// Flood is an injected attack overlaid on a base trace.
type Flood struct {
	// Packets is the combined trace.
	Packets []hierarchy.Packet
	// Subnets holds the attacking /8 network addresses (first octet
	// significant, rest zero).
	Subnets []uint32
	// Start is the index in Packets where the flood begins.
	Start int
	// IsFlood marks, per packet, whether it belongs to the attack.
	IsFlood []bool
}

// Inject overlays a flood on base following the paper's recipe:
// until the start line the trace is unmodified; from there on, each
// output line is a flood packet with probability Rate (from a uniformly
// chosen attacking subnet, random host within it) and otherwise the
// next original line.
func Inject(base []hierarchy.Packet, cfg FloodConfig) (*Flood, error) {
	if cfg.Subnets <= 0 {
		return nil, errors.New("trace: flood needs at least one subnet")
	}
	if cfg.Rate <= 0 || cfg.Rate >= 1 {
		return nil, errors.New("trace: flood rate must be in (0, 1)")
	}
	src := rng.New(cfg.Seed ^ 0x666c6f6f64) // "flood"
	start := cfg.Start
	if start < 0 {
		max := cfg.StartMax
		if max <= 0 || max > len(base) {
			max = len(base)
		}
		if max == 0 {
			return nil, errors.New("trace: empty base trace")
		}
		start = src.Intn(max)
	}
	if start > len(base) {
		start = len(base)
	}
	f := &Flood{Start: start}
	seen := map[byte]bool{}
	for len(f.Subnets) < cfg.Subnets {
		b := byte(src.Uint32())
		if seen[b] {
			continue
		}
		seen[b] = true
		f.Subnets = append(f.Subnets, uint32(b)<<24)
	}
	// Each line after start is a flood packet with probability Rate, so
	// the base's rest stretches to (len(base)−start)/(1−Rate) lines on
	// average; reserve that plus four standard deviations of the flood
	// count, so the output is sized once rather than grown by doubling.
	rest := float64(len(base) - start)
	n := start + int(math.Ceil((rest+4*math.Sqrt(rest*cfg.Rate))/(1-cfg.Rate)))
	f.Packets = append(make([]hierarchy.Packet, 0, n), base[:start]...)
	f.IsFlood = make([]bool, start, n)
	for next := start; next < len(base); {
		if src.Float64() < cfg.Rate {
			subnet := f.Subnets[src.Intn(len(f.Subnets))]
			host := subnet | (uint32(src.Uint64()) & 0x00ffffff)
			f.Packets = append(f.Packets, hierarchy.Packet{Src: host, Dst: base[next].Dst})
			f.IsFlood = append(f.IsFlood, true)
		} else {
			f.Packets = append(f.Packets, base[next])
			f.IsFlood = append(f.IsFlood, false)
			next++
		}
	}
	return f, nil
}
