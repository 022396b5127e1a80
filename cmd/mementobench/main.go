// Command mementobench regenerates the single-device evaluation
// figures of the paper (Figures 5-8) and benchmarks the sharded read
// plane and the network-wide fleet. Each -figureN flag prints the
// corresponding table; scale flags default to laptop-sized runs and
// accept the paper's full parameters (-window 5000000 -packets
// 16000000).
//
// Usage:
//
//	mementobench -figure5 [-window N] [-packets N] [-counters 64,512,4096]
//	mementobench -figure6 [-twod]
//	mementobench -figure7 [-twod]
//	mementobench -figure8
//	mementobench -queryload [-qps Q] [-theta T] [-shards N] [-json]
//	mementobench -report [-agents M] [-budget B] [-cadence C] [-theta T] [-json]
//
// -queryload is the read-plane benchmark: writer goroutines ingest a
// trace through a sharded H-Memento while Output fires at the given
// QPS, measuring both sides of the snapshot query plane at once —
// sustained ingest throughput under periodic monitoring, and query
// latency under full-rate ingestion (the paper's on-arrival setting,
// Figure 8, assumes queries cheap enough to run this way). -json
// emits BENCH_query.json-shaped output.
//
// -report drives two real TCP controller/agent fleets over the same
// stream — budget-sampled reporting vs full-sketch snapshot shipping
// (netwide.ReportSnapshot) — and scores both heavy-hitter sets
// against an exact oracle: recall/precision/F1 next to measured bytes
// per packet (BENCH_netwide.json), turning the paper's "send
// everything" baseline into a live accuracy-vs-bandwidth axis.
//
// Every mode accepts -cpuprofile and -memprofile to write pprof
// profiles of the selected run, the intended first stop when a
// BENCH_*.json regression needs explaining.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"memento/internal/core"
	"memento/internal/experiments"
	"memento/internal/hierarchy"
	"memento/internal/shard"
	"memento/internal/trace"
)

func main() {
	var (
		fig5     = flag.Bool("figure5", false, "Memento vs WCSS: speed and error vs τ")
		fig6     = flag.Bool("figure6", false, "H-Memento vs Baseline window HHH speed")
		fig7     = flag.Bool("figure7", false, "H-Memento vs RHHH throughput")
		fig8     = flag.Bool("figure8", false, "per-prefix-length error: Interval vs Baseline vs H-Memento")
		twod     = flag.Bool("twod", false, "use the 2D src×dst hierarchy (H=25) where applicable")
		window   = flag.Int("window", 1<<18, "window size W in packets")
		packets  = flag.Int("packets", 1<<20, "stream length N in packets")
		counters = flag.String("counters", "64,512,4096", "comma-separated counter budgets")
		traces   = flag.String("traces", "Edge,Datacenter,Backbone", "comma-separated trace profiles")
		seed     = flag.Uint64("seed", 1, "deterministic seed")
		evalEach = flag.Int("eval-every", 101, "evaluate on-arrival error every N packets")
		sampleV  = flag.Int("v", 0, "H-Memento sampling ratio V for -figure8 (0: H·64, ≈ the paper's τ regime)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after the run) to this file")

		shards     = flag.Int("shards", runtime.GOMAXPROCS(0), "shard count for -queryload")
		batchSize  = flag.Int("batch", 256, "per-goroutine batch size for -queryload")
		goroutines = flag.Int("goroutines", 0, "writer goroutines for -queryload (0: one per shard)")
		jsonOut    = flag.Bool("json", false, "emit -queryload/-report/-audit results as JSON on stdout")

		queryload      = flag.Bool("queryload", false, "benchmark mixed ingest + periodic Output on a sharded H-Memento")
		auditRun       = flag.Bool("audit", false, "audit a traced snapshot fleet against a shadow oracle (with -queryload: append the accuracy-trajectory section)")
		auditShift     = flag.Uint("audit-shift", 8, "shadow-oracle sampling shift for -audit (audit 2^-shift of keys)")
		auditIntervals = flag.Int("audit-intervals", 8, "accuracy-trajectory checkpoints for -audit")
		qps            = flag.Float64("qps", 100, "Output queries per second for -queryload")
		theta          = flag.Float64("theta", 0.1, "HHH threshold for -queryload Output calls")

		report  = flag.Bool("report", false, "compare sampled vs snapshot-shipping network-wide reporting (accuracy vs bytes)")
		nagents = flag.Int("agents", 4, "measurement points for -report")
		budget  = flag.Float64("budget", 0.1, "bytes/packet budget for the sampled fleet in -report")
		cadence = flag.Int("cadence", 2, "snapshots per agent window for -report")
		chaos   = flag.Bool("chaos", false, "add a fault-injected delta leg to -report: scripted drops, a partition and controller resets, scored after heal")
	)
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
	if *queryload {
		ks, err := parseInts(*counters)
		if err != nil {
			fatal(err)
		}
		profiles, err := parseProfiles(*traces)
		if err != nil {
			fatal(err)
		}
		qcfg := queryLoadConfig{
			Window: *window, Packets: *packets, Shards: *shards,
			Batch: *batchSize, Goroutines: *goroutines,
			Counters: ks[0], V: *sampleV, Theta: *theta, QPS: *qps,
			Profile: profiles[0], Seed: *seed, JSON: *jsonOut,
		}
		if *auditRun {
			rep, err := runAudit(auditConfig{
				Window: *window, Packets: *packets, Agents: *nagents,
				Shift: *auditShift, Intervals: *auditIntervals, Seed: *seed,
			})
			if err != nil {
				fatal(err)
			}
			qcfg.Audit = &rep
		}
		if err := runQueryLoad(qcfg); err != nil {
			fatal(err)
		}
		return
	}
	if *auditRun {
		if err := runAuditStandalone(auditConfig{
			Window: *window, Packets: *packets, Agents: *nagents,
			Shift: *auditShift, Intervals: *auditIntervals,
			Seed: *seed, JSON: *jsonOut,
		}); err != nil {
			fatal(err)
		}
		return
	}
	if *report {
		if err := runReport(reportConfig{
			Window: *window, Packets: *packets, Agents: *nagents,
			Theta: *theta, Budget: *budget, Batch: 16,
			Counters: 2048, Cadence: *cadence,
			Seed: *seed, JSON: *jsonOut, Chaos: *chaos,
		}); err != nil {
			fatal(err)
		}
		return
	}
	if !*fig5 && !*fig6 && !*fig7 && !*fig8 {
		fmt.Fprintln(os.Stderr, "select one of -figure5 -figure6 -figure7 -figure8")
		flag.Usage()
		os.Exit(2)
	}
	ks, err := parseInts(*counters)
	if err != nil {
		fatal(err)
	}
	profiles, err := parseProfiles(*traces)
	if err != nil {
		fatal(err)
	}
	var hier hierarchy.Hierarchy = hierarchy.OneD{}
	if *twod {
		hier = hierarchy.TwoD{}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush()

	switch {
	case *fig5:
		rows, err := experiments.Figure5(experiments.Fig5Config{
			Profiles: profiles, Counters: ks, Taus: experiments.DefaultTaus(),
			Window: *window, Packets: *packets, EvalEvery: *evalEach, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, "trace\tcounters\ttau\tMpps\tspeedup\tRMSE(pkts)")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%d\t%.6f\t%.2f\t%.2fx\t%.1f\n",
				r.Trace, r.Counters, r.Tau, r.MPPS, r.Speedup, r.RMSE)
		}
	case *fig6:
		h := hier.H()
		vs := make([]int, 0, 8)
		for v := h; v <= h*1024; v *= 4 {
			vs = append(vs, v)
		}
		rows, err := experiments.Figure6(experiments.Fig6Config{
			Hier: hier, Profile: profiles[len(profiles)-1], Counters: ks,
			Vs: vs, Window: *window, Packets: *packets, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, "hierarchy\talgorithm\tcounters\tV\tMpps\tspeedup")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.2f\t%.1fx\n",
				r.Hier, r.Algorithm, r.Counters, r.V, r.MPPS, r.Speedup)
		}
	case *fig7:
		h := hier.H()
		vs := make([]int, 0, 8)
		for v := h; v <= h*4096; v *= 4 {
			vs = append(vs, v)
		}
		rows, err := experiments.Figure7(experiments.Fig7Config{
			Hier: hier, Profile: profiles[len(profiles)-1], Counters: ks[0],
			Vs: vs, Window: *window, Packets: *packets, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, "hierarchy\talgorithm\tV\tMpps")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%d\t%.2f\n", r.Hier, r.Algorithm, r.V, r.MPPS)
		}
	case *fig8:
		v := *sampleV
		if v == 0 {
			v = hier.H() * 64
		}
		for _, prof := range profiles {
			rows, err := experiments.Figure8(experiments.Fig8Config{
				Profile: prof, Window: *window, Packets: *packets,
				Counters: ks[0], V: v, EvalEvery: *evalEach, Seed: *seed,
			})
			if err != nil {
				fatal(err)
			}
			fmt.Fprintln(w, "trace\talgorithm\tprefix\tRMSE(pkts)")
			for _, r := range rows {
				fmt.Fprintf(w, "%s\t%s\t/%d\t%.1f\n",
					r.Trace, r.Algorithm, 8*r.PrefixLen, r.RMSE)
			}
		}
	}
}

// parseInts splits a comma-separated integer list.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// parseProfiles resolves comma-separated trace profile names.
func parseProfiles(s string) ([]trace.Profile, error) {
	var out []trace.Profile
	for _, part := range strings.Split(s, ",") {
		p, err := trace.ProfileByName(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ingestLeg is the ingest side of a -queryload run.
type ingestLeg struct {
	Name       string  `json:"name"`
	Shards     int     `json:"shards"`
	Batch      int     `json:"batch"`
	Goroutines int     `json:"goroutines"`
	Packets    int     `json:"packets"`
	NsPerOp    float64 `json:"ns_per_op"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	Mpps       float64 `json:"mpps"`
}

// queryLoadConfig parameterizes the -queryload benchmark.
type queryLoadConfig struct {
	Window     int
	Packets    int
	Shards     int
	Batch      int
	Goroutines int
	Counters   int // per-pattern budget; total is Counters·H
	V          int // 0: 64·H
	Theta      float64
	QPS        float64
	Profile    trace.Profile
	Seed       uint64
	JSON       bool
	// Audit is the accuracy-trajectory section produced by a -audit
	// fleet run, embedded into the report when both modes are selected.
	Audit *auditReport
}

// queryLoadReport is the machine-readable -queryload output
// (BENCH_query.json).
type queryLoadReport struct {
	Mode       string    `json:"mode"`
	Trace      string    `json:"trace"`
	Window     int       `json:"window"`
	Counters   int       `json:"counters"`
	V          int       `json:"v"`
	Theta      float64   `json:"theta"`
	QPS        float64   `json:"qps"`
	GoMaxProcs int       `json:"gomaxprocs"`
	HostCPUs   int       `json:"host_cpus"`
	Ingest     ingestLeg `json:"ingest"`
	Queries    int       `json:"queries"`
	QueryMean  float64   `json:"query_ns_mean"`
	QueryP50   float64   `json:"query_ns_p50"`
	QueryP99   float64   `json:"query_ns_p99"`
	OutputLen  int       `json:"last_output_len"`
	// Audit is the accuracy-trajectory section (-audit alongside
	// -queryload): observed shadow-oracle error vs the guaranteed Nε
	// bound and capture→apply freshness quantiles for a traced fleet.
	Audit  *auditReport `json:"audit,omitempty"`
	Phases []phaseStat  `json:"phases"`
}

// runQueryLoad drives writer goroutines through PacketBatchers at
// full rate while a monitor goroutine calls OutputTo at the requested
// QPS, and reports both the sustained ingest throughput and the query
// latency distribution.
func runQueryLoad(cfg queryLoadConfig) error {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Batch <= 0 {
		cfg.Batch = shard.DefaultBatchSize
	}
	if cfg.QPS <= 0 {
		return fmt.Errorf("queryload: QPS must be positive, got %v", cfg.QPS)
	}
	hier := hierarchy.OneD{}
	v := cfg.V
	if v == 0 {
		v = 64 * hier.H()
	}
	hh, err := shard.NewHHH(shard.HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hier,
			Window:    cfg.Window,
			Counters:  cfg.Counters * hier.H(),
			V:         v,
			Seed:      cfg.Seed + 1,
		},
		Shards: cfg.Shards,
	})
	if err != nil {
		return err
	}
	var pt phaseTimer
	pt.begin("generate")
	gen, err := trace.NewGenerator(cfg.Profile, cfg.Seed)
	if err != nil {
		return err
	}
	pkts := gen.Generate(cfg.Packets, nil)
	pt.end()

	g := cfg.Goroutines
	if g <= 0 {
		g = cfg.Shards
	}
	// Warm the query pools (snapshots, read-plane scratch) so the
	// measured distribution reflects steady-state monitoring, not the
	// first call's one-time sizing.
	pt.begin("warm")
	_ = hh.Output(cfg.Theta)
	pt.end()
	var wg sync.WaitGroup
	done := make(chan struct{})
	var latencies []time.Duration
	var lastLen int
	queryWg := sync.WaitGroup{}
	queryWg.Add(1)
	go func() {
		defer queryWg.Done()
		interval := time.Duration(float64(time.Second) / cfg.QPS)
		if interval <= 0 { // qps beyond 1e9 truncates to 0; query flat out
			interval = 1
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		var out []core.HeavyPrefix
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				qStart := time.Now()
				out = hh.OutputTo(cfg.Theta, out[:0])
				latencies = append(latencies, time.Since(qStart))
				lastLen = len(out)
			}
		}
	}()

	pt.begin("ingest")
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := hh.NewBatcher(cfg.Batch)
			lo, hi := w*len(pkts)/g, (w+1)*len(pkts)/g
			for _, p := range pkts[lo:hi] {
				b.Add(p)
			}
			b.Flush()
		}(w)
	}
	wg.Wait()
	elapsed := pt.end()
	close(done)
	queryWg.Wait()
	if len(latencies) == 0 {
		// The run finished inside the first tick; take one quiescent
		// sample so the report is never empty.
		qStart := time.Now()
		out := hh.Output(cfg.Theta)
		latencies = append(latencies, time.Since(qStart))
		lastLen = len(out)
	}

	slices.Sort(latencies)
	var total time.Duration
	for _, d := range latencies {
		total += d
	}
	report := queryLoadReport{
		Mode: "queryload", Trace: cfg.Profile.Name,
		Window: cfg.Window, Counters: cfg.Counters * hier.H(), V: v,
		Theta: cfg.Theta, QPS: cfg.QPS,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		HostCPUs:   runtime.NumCPU(),
		Ingest:     measureLeg("hhh-queryload", cfg.Shards, cfg.Batch, g, len(pkts), elapsed),
		Queries:    len(latencies),
		QueryMean:  float64(total.Nanoseconds()) / float64(len(latencies)),
		QueryP50:   float64(latencies[len(latencies)/2].Nanoseconds()),
		QueryP99:   float64(latencies[len(latencies)*99/100].Nanoseconds()),
		OutputLen:  lastLen,
		Audit:      cfg.Audit,
		Phases:     pt.phases,
	}
	if cfg.JSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "metric\tvalue")
	fmt.Fprintf(w, "ingest Mpps\t%.2f\n", report.Ingest.Mpps)
	fmt.Fprintf(w, "queries\t%d\n", report.Queries)
	fmt.Fprintf(w, "query mean\t%s\n", time.Duration(report.QueryMean))
	fmt.Fprintf(w, "query p50\t%s\n", time.Duration(report.QueryP50))
	fmt.Fprintf(w, "query p99\t%s\n", time.Duration(report.QueryP99))
	fmt.Fprintf(w, "last output size\t%d\n", report.OutputLen)
	return w.Flush()
}

// phaseStat is one benchmark phase's wall clock and allocation
// footprint, measured as runtime.MemStats deltas around the phase (so
// allocations from concurrent goroutines inside the phase count too).
type phaseStat struct {
	Name       string  `json:"name"`
	Seconds    float64 `json:"seconds"`
	Allocs     uint64  `json:"allocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

// phaseTimer accumulates phaseStats across a benchmark run. begin/end
// pairs must not nest.
type phaseTimer struct {
	phases []phaseStat
	name   string
	start  time.Time
	m0     runtime.MemStats
}

func (t *phaseTimer) begin(name string) {
	t.name = name
	runtime.ReadMemStats(&t.m0)
	t.start = time.Now()
}

// end closes the current phase and returns its wall-clock duration, so
// measured legs can reuse the same interval.
func (t *phaseTimer) end() time.Duration {
	elapsed := time.Since(t.start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	t.phases = append(t.phases, phaseStat{
		Name:       t.name,
		Seconds:    elapsed.Seconds(),
		Allocs:     m1.Mallocs - t.m0.Mallocs,
		AllocBytes: m1.TotalAlloc - t.m0.TotalAlloc,
	})
	return elapsed
}

// measureLeg converts a timed run into the reported metrics.
func measureLeg(name string, shards, batch, goroutines, packets int, elapsed time.Duration) ingestLeg {
	sec := elapsed.Seconds()
	ops := float64(packets) / sec
	return ingestLeg{
		Name: name, Shards: shards, Batch: batch, Goroutines: goroutines,
		Packets: packets, NsPerOp: sec * 1e9 / float64(packets),
		OpsPerSec: ops, Mpps: ops / 1e6,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mementobench:", err)
	os.Exit(1)
}
