// Quickstart: track sliding-window heavy hitters with Memento.
//
// Run with:
//
//	go run ./examples/quickstart
//
// A skewed synthetic stream flows through a Memento sketch configured
// for a 100k-packet window with 1/16 sampling; the example prints the
// flows above a 5% window share and compares their estimates with the
// true counts.
package main

import (
	"fmt"
	"log"
	"sort"

	"memento/internal/core"
	"memento/internal/exact"
	"memento/internal/rng"
)

func main() {
	const (
		window = 100_000
		theta  = 0.05
	)
	sketch, err := core.New[string](core.Config{
		Window:   window,
		Counters: 400,      // εa = 0.01: k = 4/εa
		Tau:      1.0 / 16, // full update for ~6% of packets
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}
	truth := exact.MustNewSlidingWindow[string](sketch.EffectiveWindow())

	// Three elephants hidden in a mouse herd.
	src := rng.New(7)
	flows := []struct {
		name string
		rate float64
	}{
		{"video-cdn", 0.20},
		{"backup-job", 0.10},
		{"ad-tracker", 0.06},
	}
	for i := 0; i < 4*window; i++ {
		u := src.Float64()
		name := ""
		for _, f := range flows {
			if u < f.rate {
				name = f.name
				break
			}
			u -= f.rate
		}
		if name == "" {
			name = fmt.Sprintf("mouse-%d", src.Intn(50_000))
		}
		sketch.Update(name)
		truth.Add(name)
	}

	hh := sketch.HeavyHitters(theta, nil)
	sort.Slice(hh, func(i, j int) bool { return hh[i].Estimate > hh[j].Estimate })
	fmt.Printf("window = %d packets, θ = %.0f%%, τ = %.4f\n",
		sketch.EffectiveWindow(), theta*100, sketch.Tau())
	fmt.Printf("%-12s %12s %12s %9s\n", "flow", "estimate", "true count", "error")
	for _, item := range hh {
		exactCount := truth.Count(item.Key)
		fmt.Printf("%-12s %12.0f %12d %8.2f%%\n",
			item.Key, item.Estimate, exactCount,
			100*(item.Estimate-float64(exactCount))/float64(window))
	}
	fmt.Printf("\nprocessed %d packets; only %d (%.1f%%) took the slow path\n",
		sketch.Updates(), sketch.FullUpdates(),
		100*float64(sketch.FullUpdates())/float64(sketch.Updates()))
}
