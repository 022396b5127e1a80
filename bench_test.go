// Benchmark harness: one benchmark family per figure of the paper's
// evaluation (Section 6). Absolute numbers are hardware-bound; the
// ratios between sub-benchmarks are what reproduce the paper's claims
// (DESIGN.md §6 lists the expected shapes; cmd/mementobench prints the
// corresponding tables). Run with:
//
//	go test -bench=. -benchmem
package memento

import (
	"fmt"
	"testing"

	"memento/internal/analysis"
	"memento/internal/baseline"
	"memento/internal/core"
	"memento/internal/detect"
	"memento/internal/experiments"
	"memento/internal/hierarchy"
	"memento/internal/netsim"
	"memento/internal/netwide"
	"memento/internal/trace"
)

// benchWindow keeps per-op state small enough for -benchmem stability
// while leaving thousands of blocks per window.
const benchWindow = 1 << 18

// tracePackets memoizes generated traces across benchmarks.
var traceCache = map[string][]hierarchy.Packet{}

func packetsFor(b *testing.B, prof trace.Profile, n int) []hierarchy.Packet {
	b.Helper()
	key := fmt.Sprintf("%s/%d", prof.Name, n)
	if p, ok := traceCache[key]; ok {
		return p
	}
	gen, err := trace.NewGenerator(prof, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := gen.Generate(n, nil)
	traceCache[key] = p
	return p
}

// newSketch is core.New for a benchmark's valid configuration.
func newSketch(b *testing.B, cfg core.Config) *core.Sketch[uint64] {
	s, err := core.New[uint64](cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func keysFor(b *testing.B, prof trace.Profile, n int) []uint64 {
	pkts := packetsFor(b, prof, n)
	keys := make([]uint64, len(pkts))
	for i, p := range pkts {
		keys[i] = uint64(p.Src)
	}
	return keys
}

// reportMpps converts the measured op time into the paper's
// million-packets-per-second metric.
func reportMpps(b *testing.B) {
	b.Helper()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(b.N)/sec/1e6, "Mpps")
	}
}

// BenchmarkFig5_Memento reproduces Figure 5's speed axis: Memento
// update cost versus τ and the counter budget (τ = 1 is WCSS). The
// paper's claim: speedups up to 14× over WCSS, roughly flat in the
// counter budget.
func BenchmarkFig5_Memento(b *testing.B) {
	keys := keysFor(b, trace.Backbone, 1<<20)
	for _, k := range []int{64, 512, 4096} {
		for _, tau := range []float64{1, 1.0 / 16, 1.0 / 256, 1.0 / 1024} {
			name := fmt.Sprintf("counters=%d/tau=1on%d", k, int(1/tau))
			b.Run(name, func(b *testing.B) {
				s, err := core.New[uint64](core.Config{
					Window: benchWindow, Counters: k, Tau: tau, Seed: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Update(keys[i&(len(keys)-1)])
				}
				reportMpps(b)
			})
		}
	}
}

// BenchmarkFig6_HHH reproduces Figure 6: H-Memento's constant-time
// update versus the Baseline's H Full window updates, in one and two
// dimensions. The paper's claim: up to 53× (1D) and 273× (2D).
func BenchmarkFig6_HHH(b *testing.B) {
	pkts := packetsFor(b, trace.Backbone, 1<<20)
	for _, hier := range []hierarchy.Hierarchy{hierarchy.OneD{}, hierarchy.TwoD{}} {
		h := hier.H()
		b.Run(fmt.Sprintf("dims=%d/Baseline", hier.Dims()), func(b *testing.B) {
			w, err := baseline.NewWindow(hier, benchWindow, 512)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Update(pkts[i&(len(pkts)-1)])
			}
			reportMpps(b)
		})
		for _, mult := range []int{1, 64, 1024} {
			v := h * mult
			b.Run(fmt.Sprintf("dims=%d/H-Memento/V=%d", hier.Dims(), v), func(b *testing.B) {
				hm, err := core.NewHHH(core.HHHConfig{
					Hierarchy: hier, Window: benchWindow, Counters: 512 * h, V: v, Seed: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					hm.Update(pkts[i&(len(pkts)-1)])
				}
				reportMpps(b)
			})
		}
	}
}

// BenchmarkFig7_HHHvsRHHH reproduces Figure 7: H-Memento (window)
// versus RHHH (interval) at matched sampling ratios. The paper's
// claim: H-Memento is faster at moderate V; RHHH overtakes at extreme
// sampling because a skipped packet costs it nothing while H-Memento
// still slides its window.
func BenchmarkFig7_HHHvsRHHH(b *testing.B) {
	pkts := packetsFor(b, trace.Backbone, 1<<20)
	for _, hier := range []hierarchy.Hierarchy{hierarchy.OneD{}, hierarchy.TwoD{}} {
		h := hier.H()
		for _, mult := range []int{2, 64, 2048} {
			v := h * mult
			b.Run(fmt.Sprintf("dims=%d/H-Memento/V=%d", hier.Dims(), v), func(b *testing.B) {
				hm, err := core.NewHHH(core.HHHConfig{
					Hierarchy: hier, Window: benchWindow, Counters: 64 * h, V: v, Seed: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					hm.Update(pkts[i&(len(pkts)-1)])
				}
				reportMpps(b)
			})
			b.Run(fmt.Sprintf("dims=%d/RHHH/V=%d", hier.Dims(), v), func(b *testing.B) {
				rh, err := baseline.NewRHHH(baseline.RHHHConfig{
					Hierarchy: hier, CountersPerInstance: 64, V: v, Seed: 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rh.Update(pkts[i&(len(pkts)-1)])
				}
				reportMpps(b)
			})
		}
	}
}

// BenchmarkFig8_OnArrival measures the per-packet cost of the three
// HHH algorithms Figure 8 compares on accuracy: the Interval MST pays
// H Space Saving updates, the Baseline H Full window updates, and
// H-Memento a single sampled update.
func BenchmarkFig8_OnArrival(b *testing.B) {
	pkts := packetsFor(b, trace.Backbone, 1<<20)
	var hier hierarchy.OneD
	b.Run("Interval-MST", func(b *testing.B) {
		m, err := baseline.NewMST(hier, 512)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Update(pkts[i&(len(pkts)-1)])
		}
		reportMpps(b)
	})
	b.Run("Baseline", func(b *testing.B) {
		w, err := baseline.NewWindow(hier, benchWindow, 512)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Update(pkts[i&(len(pkts)-1)])
		}
		reportMpps(b)
	})
	b.Run("H-Memento", func(b *testing.B) {
		hm, err := core.NewHHH(core.HHHConfig{
			Hierarchy: hier, Window: benchWindow, Counters: 512 * 5, V: 40, Seed: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hm.Update(pkts[i&(len(pkts)-1)])
		}
		reportMpps(b)
	})
}

// BenchmarkFig1b_Detection runs the Section 3 detection-time Monte
// Carlo (one full run per op) — the cost of regenerating Figure 1b.
func BenchmarkFig1b_Detection(b *testing.B) {
	for _, m := range []detect.Method{detect.MethodWindow, detect.MethodInterval, detect.MethodMemento} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := detect.Simulate(m, detect.SimConfig{
					Window: 2000, Theta: 0.1, Ratio: 1.5, Runs: 5, Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4_BatchOptimize measures the Theorem 5.5 batch-size
// optimization that Figure 4 and the §5.2 examples are built on.
func BenchmarkFig4_BatchOptimize(b *testing.B) {
	m := analysis.PaperExample
	for i := 0; i < b.N; i++ {
		if _, err := m.Optimize(1, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9_NetsimFeed measures the per-packet cost of the
// network-wide simulation for each communication method (Figure 9's
// engine).
func BenchmarkFig9_NetsimFeed(b *testing.B) {
	pkts := packetsFor(b, trace.Backbone, 1<<20)
	for _, m := range []netsim.Method{netsim.Aggregation, netsim.Sample, netsim.Batch} {
		b.Run(m.String(), func(b *testing.B) {
			sim, err := netsim.New(netsim.Config{
				Method: m, Points: 10,
				Params: netwide.Params{Budget: 1, BatchSize: 44, Window: benchWindow},
				Hier:   hierarchy.OneD{}, Counters: 4096, Seed: 7,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Feed(pkts[i&(len(pkts)-1)])
			}
			reportMpps(b)
		})
	}
}

// BenchmarkFig10_FloodDetection runs a scaled-down flood experiment
// end to end per op (Figure 10's engine), reporting the Batch method's
// miss fraction as a metric.
func BenchmarkFig10_FloodDetection(b *testing.B) {
	var lastMiss float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.Figure10(experiments.Fig10Config{
			Profile: trace.Backbone, Window: 1 << 13, Packets: 1 << 15,
			Subnets: 10, FloodRate: 0.7, FloodStart: 1 << 13, Theta: 0.02,
			Points: 10, Budget: 1, BatchSize: 44, Counters: 1024,
			CheckEvery: 256, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Method == "Batch" {
				lastMiss = r.MissedFraction
			}
		}
	}
	b.ReportMetric(lastMiss, "miss-frac")
}

// BenchmarkAblation_WindowVsFull decomposes Memento's update cost into
// its two halves — the cheap Window update and the expensive Full
// update — quantifying exactly what the τ-sampling amortizes away.
func BenchmarkAblation_WindowVsFull(b *testing.B) {
	keys := keysFor(b, trace.Backbone, 1<<20)
	b.Run("WindowUpdate", func(b *testing.B) {
		s := newSketch(b, core.Config{Window: benchWindow, Counters: 512, Seed: 10})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.WindowUpdate()
		}
		reportMpps(b)
	})
	b.Run("FullUpdate", func(b *testing.B) {
		s := newSketch(b, core.Config{Window: benchWindow, Counters: 512, Seed: 10})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.FullUpdate(keys[i&(len(keys)-1)])
		}
		reportMpps(b)
	})
}

// BenchmarkHHHOutput measures the control-plane cost of computing the
// HHH set from a loaded sketch (the query path the paper's future-work
// section discusses).
func BenchmarkHHHOutput(b *testing.B) {
	pkts := packetsFor(b, trace.Backbone, 1<<20)
	hm, err := core.NewHHH(core.HHHConfig{
		Hierarchy: hierarchy.OneD{}, Window: benchWindow, Counters: 512 * 5, V: 20, Seed: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range pkts {
		hm.Update(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = hm.Output(0.01)
	}
}
