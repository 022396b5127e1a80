// Command mementobench is the paper-figure driver: each -figureN flag
// regenerates one table of the evaluation (Figures 1b and 4-10, plus
// the Section 5.2 worked examples) from in-process synthetic traces
// built from (profile, seed). Several figures may be selected; they
// print in paper order.
//
// Usage:
//
//	mementobench -figure1b [-theta T] [-runs N] [-rmin R] [-rmax R] [-steps N]
//	mementobench -figure4 [-examples] [-points M] [-hierarchy H] [-fixed-batch B]
//	mementobench -figure5 [-counters 64,512,4096]
//	mementobench -figure6 [-twod]
//	mementobench -figure7 [-twod]
//	mementobench -figure8 [-v V]
//	mementobench -figure9 [-points M] [-budget B] [-batch B]
//	mementobench -figure10 [-subnets N] [-rate F] [-theta T] [-curve]
//
// -window, -packets, -counters, -traces and -theta are shared; one left
// at its zero value takes the selected figure's own laptop-sized
// default (the figures table below), and all accept the paper's full
// parameters (-window 5000000 -packets 16000000). -cpuprofile and
// -memprofile write pprof profiles of the selected run.
//
// Performance numbers (ingest Mpkt/s, query and enforce latency, wire
// bytes, F1 against an exact oracle) do not come from here: they come
// from the repository benchmark, bash benchmark/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"text/tabwriter"

	"memento/internal/analysis"
	"memento/internal/detect"
	"memento/internal/experiments"
	"memento/internal/hierarchy"
	"memento/internal/obs"
	"memento/internal/trace"
)

// scale is the value of the shared scale flags: as parsed, and as each
// figure's defaults for the ones the command line leaves zero.
type scale struct {
	window, packets  int
	counters, traces string
	theta            float64
}

// params is a figure's resolved scale.
type params struct {
	window, packets int
	counters        []int
	profiles        []trace.Profile
	theta           float64
}

// Figures 5-8 run on one device and share a scale.
var singleDevice = scale{window: 1 << 18, packets: 1 << 20, counters: "64,512,4096", traces: "Edge,Datacenter,Backbone"}

var figures = []struct {
	name, usage string
	scale
	run func(w *tabwriter.Writer, p params) error
}{
	{"figure1b", "detection delay vs f/θ: Interval, Improved Interval, Window, and Memento by simulation",
		scale{window: 4000, theta: 0.05}, figure1b},
	{"figure4", "guaranteed network-wide error vs budget: Sample, fixed Batch, optimal Batch",
		scale{window: 1e6}, figure4},
	{"examples", "the §5.2 worked examples of the Figure 4 model",
		scale{window: 1e6}, examples},
	{"figure5", "Memento vs WCSS: speed and error vs τ", singleDevice, figure5},
	{"figure6", "H-Memento vs Baseline window HHH speed", singleDevice, figure6},
	{"figure7", "H-Memento vs RHHH throughput", singleDevice, figure7},
	{"figure8", "per-prefix-length error: Interval vs Baseline vs H-Memento", singleDevice, figure8},
	{"figure9", "controller error under a byte budget: Aggregation, Sample, Batch",
		scale{window: 1 << 17, packets: 1 << 19, counters: "4096", traces: "Backbone,Datacenter,Edge"}, figure9},
	{"figure10", "HTTP flood: subnets identified and attack requests missed, per method",
		scale{window: 1 << 17, packets: 1 << 19, counters: "4096", traces: "Backbone", theta: 0.01}, figure10},
}

var (
	twod     = flag.Bool("twod", false, "use the 2D src×dst hierarchy (H=25) where applicable")
	seed     = flag.Uint64("seed", 1, "deterministic seed")
	evalEach = flag.Int("eval-every", 101, "evaluate on-arrival error every N packets")
	sampleV  = flag.Int("v", 0, "H-Memento sampling ratio V for -figure8 (0: H·64, ≈ the paper's τ regime)")

	points = flag.Int("points", 10, "measurement points m (-figure4, -figure9, -figure10)")
	budget = flag.Float64("budget", 1, "bandwidth budget B bytes/packet (-figure9, -figure10)")
	batch  = flag.Int("batch", 44, "batch size b for the Batch method (-figure9, -figure10)")

	overhead = flag.Float64("overhead", 64, "per-report header bytes O (-figure4)")
	sample   = flag.Float64("sample", 4, "per-sample payload bytes E (-figure4)")
	hsize    = flag.Int("hierarchy", 5, "hierarchy size H (-figure4)")
	delta    = flag.Float64("delta", 1e-4, "confidence δ (-figure4)")
	fixedB   = flag.Int("fixed-batch", 100, "fixed batch size for the -figure4 middle curve")

	runs  = flag.Int("runs", 100, "Monte Carlo repetitions per point (-figure1b)")
	rMin  = flag.Float64("rmin", 1.0, "smallest frequency/threshold ratio (-figure1b)")
	rMax  = flag.Float64("rmax", 2.5, "largest frequency/threshold ratio (-figure1b)")
	steps = flag.Int("steps", 7, "ratio sweep points (-figure1b)")

	subnets = flag.Int("subnets", 50, "attacking /8 subnets (-figure10)")
	rate    = flag.Float64("rate", 0.7, "flood fraction of traffic (-figure10)")
	check   = flag.Int("check-every", 1024, "detection check cadence in packets (-figure10)")
	curve   = flag.Bool("curve", false, "print the full identification-over-time curves (-figure10)")
)

func main() {
	var set scale
	flag.IntVar(&set.window, "window", 0, "window size W in packets (0: the figure's default)")
	flag.IntVar(&set.packets, "packets", 0, "stream length N in packets (0: the figure's default)")
	flag.StringVar(&set.counters, "counters", "", "comma-separated counter budgets; figures that take one use the first ('': the figure's default)")
	flag.StringVar(&set.traces, "traces", "", "comma-separated trace profiles; figures that take one use the last ('': the figure's default)")
	flag.Float64Var(&set.theta, "theta", 0, "threshold θ for -figure1b/-figure10 (0: the figure's default)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	selected := make([]*bool, len(figures))
	for i, f := range figures {
		selected[i] = flag.Bool(f.name, false, f.usage)
	}
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush()
	ran := false
	for i, f := range figures {
		if !*selected[i] {
			continue
		}
		ran = true
		p, err := set.resolve(f.scale)
		if err != nil {
			fatal(err)
		}
		if err := f.run(w, p); err != nil {
			fatal(err)
		}
	}
	if !ran {
		fmt.Fprintln(os.Stderr, "select at least one of -figure1b -figure4 -examples -figure5 … -figure10")
		flag.Usage()
		os.Exit(2)
	}
}

// resolve fills the flags the command line left zero from the figure's
// defaults d and parses the two lists.
func (s scale) resolve(d scale) (params, error) {
	if s.window == 0 {
		s.window = d.window
	}
	if s.packets == 0 {
		s.packets = d.packets
	}
	if s.counters == "" {
		s.counters = d.counters
	}
	if s.traces == "" {
		s.traces = d.traces
	}
	if s.theta == 0 {
		s.theta = d.theta
	}
	p := params{window: s.window, packets: s.packets, theta: s.theta}
	for _, part := range splitList(s.counters) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return p, fmt.Errorf("bad integer %q: %w", part, err)
		}
		p.counters = append(p.counters, v)
	}
	for _, part := range splitList(s.traces) {
		prof, err := trace.ProfileByName(part)
		if err != nil {
			return p, err
		}
		p.profiles = append(p.profiles, prof)
	}
	return p, nil
}

// splitList splits a comma-separated flag value; "" is the empty list.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// last is the profile the one-trace figures run on.
func (p params) last() trace.Profile { return p.profiles[len(p.profiles)-1] }

func flagHier() hierarchy.Hierarchy {
	if *twod {
		return hierarchy.TwoD{}
	}
	return hierarchy.OneD{}
}

func figure1b(w *tabwriter.Writer, p params) error {
	fmt.Fprintln(w, "r=f/θ\tWindow\tImproved\tInterval\tsim:Window\tsim:Improved\tsim:Interval\tsim:Memento")
	for i := 0; i < *steps; i++ {
		r := *rMin + (*rMax-*rMin)*float64(i)/float64(*steps-1)
		cfg := detect.SimConfig{
			Window: p.window, Theta: p.theta, Ratio: r, Runs: *runs, Seed: *seed,
		}
		sims := make(map[detect.Method]float64)
		for _, m := range []detect.Method{
			detect.MethodWindow, detect.MethodImprovedInterval,
			detect.MethodInterval, detect.MethodMemento,
		} {
			res, err := detect.Simulate(m, cfg)
			if err != nil {
				return err
			}
			sims[m] = res.MeanDelay
		}
		fmt.Fprintf(w, "%.2f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n",
			r,
			detect.WindowDelay(r), detect.ImprovedIntervalDelay(r), detect.IntervalDelay(r),
			sims[detect.MethodWindow], sims[detect.MethodImprovedInterval],
			sims[detect.MethodInterval], sims[detect.MethodMemento])
	}
	fmt.Fprintln(w, "\nDelays are in windows; the Window column is the optimal detection time.")
	return nil
}

func model(p params) analysis.Model {
	return analysis.Model{
		OverheadBytes: *overhead, SampleBytes: *sample, Points: *points,
		HierarchySize: *hsize, Window: float64(p.window), Delta: *delta,
	}
}

func figure4(w *tabwriter.Writer, p params) error {
	budgets := []float64{0.1, 0.25, 0.5, 1, 2, 5, 10}
	rows, err := model(p).Figure4(budgets, *fixedB)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "B(bytes/pkt)\tSample\tBatch-100\tBatch-opt\topt b\tdelay:Sample\tdelay:B100\tdelay:opt")
	for _, r := range rows {
		fmt.Fprintf(w, "%.2f\t%.0f\t%.0f\t%.0f\t%d\t%.0f\t%.0f\t%.0f\n",
			r.Budget, r.Sample, r.FixedBatch, r.OptBatch, r.OptB,
			r.SampleDelay, r.FixedDelay, r.OptDelay)
	}
	fmt.Fprintln(w)
	return nil
}

func examples(w *tabwriter.Writer, p params) error {
	fmt.Fprintln(w, "Section 5.2 worked examples (model values):")
	for _, ex := range []struct {
		label  string
		budget float64
		window float64
		hsize  int
	}{
		{"B=1, W=1e6, H=5 (paper: b*≈44, err≈13K = 1.3%)", 1, 1e6, 5},
		{"B=5, W=1e6, H=5 (paper: b*≈68, err≈5.3K = 0.53%)", 5, 1e6, 5},
		{"B=1, W=1e7, H=5 (paper text: 0.15%; formula: ≈0.35%)", 1, 1e7, 5},
		{"B=1, W=1e6, H=25 (2D: larger error, larger b*)", 1, 1e6, 25},
	} {
		mm := model(p)
		mm.Window = ex.window
		mm.HierarchySize = ex.hsize
		opt, err := mm.Optimize(ex.budget, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %s\tb*=%d\terr=%.0f pkts\t(%.3f%% of W)\tτ=%.5f\n",
			ex.label, opt.BatchSize, opt.Error, 100*opt.ErrorFraction, opt.Tau)
	}
	return nil
}

func figure5(w *tabwriter.Writer, p params) error {
	rows, err := experiments.Figure5(experiments.Fig5Config{
		Profiles: p.profiles, Counters: p.counters, Taus: experiments.DefaultTaus(),
		Window: p.window, Packets: p.packets, EvalEvery: *evalEach, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "trace\tcounters\ttau\tMpps\tspeedup\tRMSE(pkts)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.6f\t%.2f\t%.2fx\t%.1f\n",
			r.Trace, r.Counters, r.Tau, r.MPPS, r.Speedup, r.RMSE)
	}
	return nil
}

// sweepV is the sampling-ratio axis of Figures 6 and 7: H, 4H, … ≤ H·top.
func sweepV(h, top int) []int {
	var vs []int
	for v := h; v <= h*top; v *= 4 {
		vs = append(vs, v)
	}
	return vs
}

func figure6(w *tabwriter.Writer, p params) error {
	hier := flagHier()
	rows, err := experiments.Figure6(experiments.Fig6Config{
		Hier: hier, Profile: p.last(), Counters: p.counters,
		Vs: sweepV(hier.H(), 1024), Window: p.window, Packets: p.packets, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "hierarchy\talgorithm\tcounters\tV\tMpps\tspeedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.2f\t%.1fx\n",
			r.Hier, r.Algorithm, r.Counters, r.V, r.MPPS, r.Speedup)
	}
	return nil
}

func figure7(w *tabwriter.Writer, p params) error {
	hier := flagHier()
	rows, err := experiments.Figure7(experiments.Fig7Config{
		Hier: hier, Profile: p.last(), Counters: p.counters[0],
		Vs: sweepV(hier.H(), 4096), Window: p.window, Packets: p.packets, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "hierarchy\talgorithm\tV\tMpps")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.2f\n", r.Hier, r.Algorithm, r.V, r.MPPS)
	}
	return nil
}

func figure8(w *tabwriter.Writer, p params) error {
	v := *sampleV
	if v == 0 {
		v = flagHier().H() * 64
	}
	for _, prof := range p.profiles {
		rows, err := experiments.Figure8(experiments.Fig8Config{
			Profile: prof, Window: p.window, Packets: p.packets,
			Counters: p.counters[0], V: v, EvalEvery: *evalEach, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "trace\talgorithm\tprefix\tRMSE(pkts)")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t/%d\t%.1f\n",
				r.Trace, r.Algorithm, 8*r.PrefixLen, r.RMSE)
		}
	}
	return nil
}

// obsSummary prints the simulated control-plane ledgers: what each
// method actually spent to earn its row in the table above.
func obsSummary(w *tabwriter.Writer, reg *obs.Registry) {
	w.Flush()
	fmt.Println("\nobs summary:")
	reg.WriteTable(os.Stdout)
}

func figure9(w *tabwriter.Writer, p params) error {
	reg := obs.NewRegistry()
	fmt.Fprintln(w, "trace\tmethod\tprefix\tRMSE(pkts)")
	for _, prof := range p.profiles {
		rows, err := experiments.Figure9(experiments.Fig9Config{
			Profile: prof, Window: p.window, Packets: p.packets,
			Points: *points, Budget: *budget, BatchSize: *batch,
			Counters: p.counters[0], EvalEvery: *evalEach, Seed: *seed,
			Obs: reg,
		})
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t/%d\t%.1f\n", r.Trace, r.Method, 8*r.PrefixLen, r.RMSE)
		}
	}
	obsSummary(w, reg)
	return nil
}

func figure10(w *tabwriter.Writer, p params) error {
	reg := obs.NewRegistry()
	results, err := experiments.Figure10(experiments.Fig10Config{
		Profile: p.last(), Window: p.window, Packets: p.packets,
		Subnets: *subnets, FloodRate: *rate, FloodStart: -1,
		Theta: p.theta, Points: *points, Budget: *budget,
		BatchSize: *batch, Counters: p.counters[0],
		CheckEvery: *check, Seed: *seed,
		Obs: reg,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "method\tdetected\tmean delay(pkts)\tmissed attack pkts\tmiss fraction")
	var optMiss float64
	for _, r := range results {
		if r.Method == "OPT" {
			optMiss = r.MissedFraction
		}
	}
	for _, r := range results {
		ratio := ""
		if r.Method != "OPT" && optMiss > 0 {
			ratio = fmt.Sprintf(" (%.1fx OPT)", r.MissedFraction/optMiss)
		}
		fmt.Fprintf(w, "%s\t%d/%d\t%.0f\t%d/%d\t%.4f%s\n",
			r.Method, r.DetectedSubnets, *subnets, r.MeanDelay,
			r.MissedPackets, r.TotalAttackPackets, r.MissedFraction, ratio)
	}
	if *curve {
		methods := make([]string, len(results))
		for i, r := range results {
			methods[i] = r.Method
		}
		fmt.Fprintln(w, "\nsince-start\t"+strings.Join(methods, "\t"))
		for i := range results[0].Curve {
			fmt.Fprintf(w, "%d", results[0].Curve[i].SinceStart)
			for _, r := range results {
				fmt.Fprintf(w, "\t%d", r.Curve[i].Detected)
			}
			fmt.Fprintln(w)
		}
	}
	obsSummary(w, reg)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mementobench:", err)
	os.Exit(1)
}
