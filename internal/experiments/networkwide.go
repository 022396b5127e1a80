// Network-wide experiment drivers: Figure 9 (accuracy vs communication
// method at a fixed bandwidth budget) and Figure 10 (HTTP flood
// detection).

package experiments

import (
	"errors"
	"fmt"
	"strings"

	"memento/internal/exact"
	"memento/internal/hierarchy"
	"memento/internal/netsim"
	"memento/internal/netwide"
	"memento/internal/obs"
	"memento/internal/trace"
)

// obsPrefix builds the metric prefix for one simulated estimator:
// memento_<sim>_<run>_<method>, lowercased ("" run parts drop out).
func obsPrefix(sim, run, method string) string {
	p := "memento_" + sim
	if run != "" {
		p += "_" + run
	}
	return strings.ToLower(p + "_" + method)
}

// Fig9Row is one point of Figure 9: the controller's per-prefix-length
// on-arrival RMSE for one communication method at a fixed budget.
type Fig9Row struct {
	Trace     string
	Method    string
	PrefixLen int
	RMSE      float64
}

// Fig9Config parameterizes the Figure 9 evaluation.
type Fig9Config struct {
	Profile   trace.Profile
	Window    int
	Packets   int
	Points    int     // m measurement points
	Budget    float64 // B bytes per ingress packet
	BatchSize int     // b for the Batch method
	Counters  int     // controller sketch counters
	EvalEvery int
	Seed      uint64
	// Obs, when set, registers each method's simulated control-plane
	// ledger as memento_netsim_<trace>_<method>_* funcs.
	Obs *obs.Registry
}

// Figure9 runs the three communication methods over the same trace and
// measures the controller's error against an exact global window, per
// prefix length.
func Figure9(cfg Fig9Config) ([]Fig9Row, error) {
	var hier hierarchy.OneD
	gen, err := trace.NewGenerator(cfg.Profile, cfg.Seed)
	if err != nil {
		return nil, err
	}
	pkts := gen.Generate(cfg.Packets, nil)
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}

	var rows []Fig9Row
	for _, method := range []netsim.Method{netsim.Aggregation, netsim.Sample, netsim.Batch} {
		sim, err := netsim.New(netsim.Config{
			Method: method, Points: cfg.Points,
			Params:   netwide.Params{Budget: cfg.Budget, BatchSize: cfg.BatchSize, Window: cfg.Window},
			Hier:     hier,
			Counters: cfg.Counters, Seed: cfg.Seed + 7,
		})
		if err != nil {
			return nil, err
		}
		sim.Register(cfg.Obs, obsPrefix("netsim", cfg.Profile.Name, method.String()))
		oracles := make([]*exact.SlidingWindow[hierarchy.Prefix], hier.H())
		for i := range oracles {
			oracles[i], err = exact.NewSlidingWindow[hierarchy.Prefix](cfg.Window)
			if err != nil {
				return nil, err
			}
		}
		sums := make([]float64, hier.H())
		counts := make([]int, hier.H())
		for i, p := range pkts {
			sim.Feed(p)
			for lvl := 0; lvl < hier.H(); lvl++ {
				oracles[lvl].Add(hier.Prefix(p, lvl))
			}
			if i < cfg.Window || i%evalEvery != 0 {
				continue
			}
			for lvl := 0; lvl < hier.H(); lvl++ {
				pre := hier.Prefix(p, lvl)
				d := sim.Estimate(pre) - float64(oracles[lvl].Count(pre))
				sums[lvl] += d * d
				counts[lvl]++
			}
		}
		for lvl := 0; lvl < hier.H(); lvl++ {
			if counts[lvl] == 0 {
				return nil, fmt.Errorf("experiments: no Figure 9 samples at level %d", lvl)
			}
			rows = append(rows, Fig9Row{
				Trace: cfg.Profile.Name, Method: method.String(),
				PrefixLen: hierarchy.AddrBytes - lvl,
				RMSE:      sqrt(sums[lvl] / float64(counts[lvl])),
			})
		}
	}
	return rows, nil
}

// Fig10Point is one sample of the detection-over-time curve.
type Fig10Point struct {
	// SinceStart is packets elapsed since the flood began.
	SinceStart int
	// Detected is the number of attacking subnets identified by then.
	Detected int
}

// Fig10Result summarizes one method's flood-detection run.
type Fig10Result struct {
	Method string
	// Curve samples the number of detected subnets over time.
	Curve []Fig10Point
	// MissedPackets counts attack packets that arrived before their
	// subnet was detected.
	MissedPackets int
	// TotalAttackPackets counts all attack packets after the flood
	// start.
	TotalAttackPackets int
	// MissedFraction is MissedPackets/TotalAttackPackets.
	MissedFraction float64
	// MeanDelay is the mean per-subnet detection delay in packets
	// (undetected subnets count the full post-start horizon).
	MeanDelay float64
	// DetectedSubnets of the total attacking subnets.
	DetectedSubnets int
}

// Fig10Config parameterizes the flood experiment of Section 6.4.
type Fig10Config struct {
	Profile    trace.Profile
	Window     int
	Packets    int // base trace length before injection
	Subnets    int // attacking /8 count (the paper uses 50)
	FloodRate  float64
	FloodStart int // -1 for random within the first window
	Theta      float64
	Points     int
	Budget     float64
	BatchSize  int
	Counters   int
	CheckEvery int // detection evaluated every this many packets
	Seed       uint64
	// Obs, when set, registers each method's simulated control-plane
	// ledger as memento_floodsim_<method>_* funcs.
	Obs *obs.Registry
}

// Figure10 injects the flood and measures, for OPT (exact window) and
// the three communication methods, how fast the attacking subnets are
// identified and how many attack packets slip through beforehand.
func Figure10(cfg Fig10Config) ([]Fig10Result, error) {
	if cfg.Subnets <= 0 || cfg.Theta <= 0 {
		return nil, errors.New("experiments: Figure 10 needs Subnets and Theta")
	}
	gen, err := trace.NewGenerator(cfg.Profile, cfg.Seed)
	if err != nil {
		return nil, err
	}
	base := gen.Generate(cfg.Packets, nil)
	flood, err := trace.Inject(base, trace.FloodConfig{
		Subnets: cfg.Subnets, Rate: cfg.FloodRate,
		Start: cfg.FloodStart, StartMax: cfg.Window, Seed: cfg.Seed + 8,
	})
	if err != nil {
		return nil, err
	}
	checkEvery := cfg.CheckEvery
	if checkEvery <= 0 {
		checkEvery = 1024
	}

	subnetPrefix := make([]hierarchy.Prefix, len(flood.Subnets))
	for i, s := range flood.Subnets {
		subnetPrefix[i] = hierarchy.Prefix{Src: s, SrcLen: 1}
	}

	type estimator interface {
		Feed(p hierarchy.Packet)
		Estimate(p hierarchy.Prefix) float64
		Name() string
	}
	mk := func(method netsim.Method) (estimator, error) {
		sim, err := netsim.New(netsim.Config{
			Method: method, Points: cfg.Points,
			Params:   netwide.Params{Budget: cfg.Budget, BatchSize: cfg.BatchSize, Window: cfg.Window},
			Hier:     hierarchy.OneD{},
			Counters: cfg.Counters, Seed: cfg.Seed + 9,
		})
		if err != nil {
			return nil, err
		}
		sim.Register(cfg.Obs, obsPrefix("floodsim", "", method.String()))
		return simEstimator{sim}, nil
	}
	opt, err := newOptEstimator(cfg.Window)
	if err != nil {
		return nil, err
	}
	ests := []estimator{opt}
	for _, m := range []netsim.Method{netsim.Aggregation, netsim.Sample, netsim.Batch} {
		e, err := mk(m)
		if err != nil {
			return nil, err
		}
		ests = append(ests, e)
	}

	results := make([]Fig10Result, len(ests))
	threshold := cfg.Theta * float64(cfg.Window)
	for ei, est := range ests {
		detectedAt := map[uint32]int{} // subnet → packets since start
		var missed, total int
		for i, p := range flood.Packets {
			est.Feed(p)
			if i >= flood.Start && flood.IsFlood[i] {
				total++
				if _, ok := detectedAt[p.Src&0xff000000]; !ok {
					missed++
				}
			}
			if i >= flood.Start && i%checkEvery == 0 {
				since := i - flood.Start
				for si, sp := range subnetPrefix {
					if _, ok := detectedAt[flood.Subnets[si]]; ok {
						continue
					}
					if est.Estimate(sp) >= threshold {
						detectedAt[flood.Subnets[si]] = since
					}
				}
			}
		}
		horizon := len(flood.Packets) - flood.Start
		curvePoints := 40
		res := Fig10Result{Method: est.Name()}
		for c := 0; c <= curvePoints; c++ {
			t := horizon * c / curvePoints
			n := 0
			for _, at := range detectedAt {
				if at <= t {
					n++
				}
			}
			res.Curve = append(res.Curve, Fig10Point{SinceStart: t, Detected: n})
		}
		var delaySum float64
		for _, s := range flood.Subnets {
			if at, ok := detectedAt[s]; ok {
				delaySum += float64(at)
			} else {
				delaySum += float64(horizon)
			}
		}
		res.MeanDelay = delaySum / float64(len(flood.Subnets))
		res.DetectedSubnets = len(detectedAt)
		res.MissedPackets = missed
		res.TotalAttackPackets = total
		if total > 0 {
			res.MissedFraction = float64(missed) / float64(total)
		}
		results[ei] = res
	}
	return results, nil
}

// simEstimator adapts netsim.Sim to the estimator interface.
type simEstimator struct{ *netsim.Sim }

// Name labels result rows.
func (s simEstimator) Name() string { return s.Sim.Method().String() }

// optEstimator is the OPT baseline: an exact network-wide window with
// zero delay.
type optEstimator struct {
	win *exact.SlidingWindow[hierarchy.Prefix]
}

func newOptEstimator(w int) (*optEstimator, error) {
	win, err := exact.NewSlidingWindow[hierarchy.Prefix](w)
	if err != nil {
		return nil, err
	}
	return &optEstimator{win: win}, nil
}

// Feed tracks the /8 of every packet (the detection granularity).
func (o *optEstimator) Feed(p hierarchy.Packet) {
	o.win.Add(hierarchy.Prefix{Src: hierarchy.MaskBytes(p.Src, 1), SrcLen: 1})
}

// Estimate returns the exact window count for /8 prefixes.
func (o *optEstimator) Estimate(p hierarchy.Prefix) float64 {
	return float64(o.win.Count(p))
}

// Name labels result rows.
func (o *optEstimator) Name() string { return "OPT" }
