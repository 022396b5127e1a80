// Distributed measurement demo: compare the three communication
// methods of the paper (Aggregation, Sample, Batch) on the same
// traffic under the same 1 byte/packet control-bandwidth budget,
// using the deterministic network simulator.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"memento/internal/analysis"
	"memento/internal/exact"
	"memento/internal/hierarchy"
	"memento/internal/netsim"
	"memento/internal/netwide"
	"memento/internal/trace"
)

func main() {
	const (
		window = 1 << 16
		points = 10
		budget = 1.0
	)
	// First ask the analysis for the optimal batch size at this budget.
	model := analysis.PaperExample
	model.Window = window
	opt, err := model.Optimize(budget, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("budget %.0f byte/pkt → optimal batch b* = %d (guaranteed error %.0f pkts)\n\n",
		budget, opt.BatchSize, opt.Error)

	heavy := hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, 0), SrcLen: 1}
	fmt.Printf("%-12s %10s %10s %10s %12s\n",
		"method", "estimate", "truth", "error", "bytes/pkt")
	for _, method := range []netsim.Method{netsim.Aggregation, netsim.Sample, netsim.Batch} {
		sim, err := netsim.New(netsim.Config{
			Method: method, Points: points,
			Params:   netwide.Params{Budget: budget, BatchSize: opt.BatchSize, Window: window},
			Hier:     hierarchy.OneD{},
			Counters: 4096, Seed: 11,
		})
		if err != nil {
			log.Fatal(err)
		}
		gen := trace.MustNewGenerator(trace.Backbone, 12)
		truth := exact.MustNewSlidingWindow[hierarchy.Prefix](window)
		for i := 0; i < 6*window; i++ {
			p := gen.Next()
			if i%4 == 0 { // 25% of traffic from the monitored /8
				p.Src = hierarchy.IPv4(10, byte(p.Src>>16), byte(p.Src>>8), byte(p.Src))
			}
			sim.Feed(p)
			truth.Add(hierarchy.Prefix{Src: hierarchy.MaskBytes(p.Src, 1), SrcLen: 1})
		}
		est := sim.Estimate(heavy)
		tr := float64(truth.Count(heavy))
		fmt.Printf("%-12s %10.0f %10.0f %9.1f%% %12.3f\n",
			method, est, tr, 100*(est-tr)/float64(window), sim.BytesPerPacket())
	}
	fmt.Println("\nExpected ordering (Figure 9): Batch most accurate, then Sample,")
	fmt.Println("then Aggregation — its full-table messages are too big to send often.")
}
