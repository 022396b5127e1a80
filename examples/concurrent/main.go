// Concurrent ingestion: feed one sharded Memento from many goroutines.
//
// Run with:
//
//	go run ./examples/concurrent
//
// Four producer goroutines push a skewed synthetic stream through a
// shard.HHH over hierarchy.Flows (one prefix per packet, its source:
// H-Memento reduced to plain Memento) — an array of independently-locked
// sketches that each take whole batches — using per-goroutine
// PacketBatchers, while a monitor goroutine concurrently computes the
// merged heavy-flow set. The final report compares the merged
// estimates against the elephants' realized production rates projected
// onto the window, and the program exits non-zero if an elephant is
// missing from the set or its true rate falls outside the merged
// bounds widened by the sampling compensation.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"sync"

	"memento/internal/core"
	"memento/internal/hierarchy"
	"memento/internal/rng"
	"memento/internal/shard"
)

func main() {
	const (
		window    = 400_000
		theta     = 0.05
		producers = 4
		perWorker = 500_000
	)
	hier := hierarchy.Flows{}
	sketch, err := shard.NewHHH(shard.HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hier,
			Window:    window, // global window, split across shards
			Counters:  801,    // εa = 0.005: 4·H/εa + 1, split across shards
			V:         8,      // full update for ~12% of packets
			Seed:      42,
		},
		Shards: producers,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Every producer mixes the same three elephants into its own mouse
	// herd, so the elephants' global rates match their per-producer
	// rates and ground truth is exact arithmetic.
	flows := []struct {
		name string
		src  uint32
		rate float64
	}{
		{"video-cdn", hierarchy.IPv4(10, 0, 0, 1), 0.20},
		{"backup-job", hierarchy.IPv4(10, 0, 0, 2), 0.10},
		{"ad-tracker", hierarchy.IPv4(10, 0, 0, 3), 0.06},
	}
	var produced [producers][]int
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		produced[w] = make([]int, len(flows))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(7 + w))
			b := sketch.NewBatcher(256)
			counts := produced[w]
			// Producer w's 50 000 mice are its own block of 172.16/12.
			mice := hierarchy.IPv4(172, 16, 0, 0) + uint32(w*50_000)
			for i := 0; i < perWorker; i++ {
				u := src.Float64()
				p := hierarchy.Packet{Src: mice + uint32(src.Intn(50_000))}
				for f := range flows {
					if u < flows[f].rate {
						p.Src = flows[f].src
						counts[f]++ // elephant ground truth only: keeps the hot loop lean
						break
					}
					u -= flows[f].rate
				}
				b.Add(p)
			}
			b.Flush()
		}(w)
	}

	// A concurrent monitor polls the merged view while producers run —
	// each query holds a shard's lock only to copy it, never stopping
	// the world.
	stop := make(chan struct{})
	var monitorPeeks int
	var monitorWg sync.WaitGroup
	monitorWg.Add(1)
	go func() {
		defer monitorWg.Done()
		var out []core.HeavyPrefix
		for {
			select {
			case <-stop:
				return
			default:
				out = sketch.OutputTo(theta, out[:0])
				monitorPeeks++
			}
		}
	}()
	wg.Wait()
	close(stop)
	monitorWg.Wait()

	// Ground truth: elephants are produced at a stationary rate, so
	// their expected in-window count is (realized share) × window.
	totalPackets := float64(producers * perWorker)
	eff := float64(sketch.EffectiveWindow())
	truth := map[uint32]float64{}
	names := map[uint32]string{}
	for f, fl := range flows {
		for w := range produced {
			truth[fl.src] += float64(produced[w][f])
		}
		truth[fl.src] *= eff / totalPackets
		names[fl.src] = fl.name
	}

	hh := sketch.Output(theta)
	sort.Slice(hh, func(i, j int) bool { return hh[i].Estimate > hh[j].Estimate })
	fmt.Printf("shards = %d, global window = %d packets, θ = %.0f%%\n",
		sketch.Shards(), sketch.EffectiveWindow(), theta*100)
	fmt.Printf("%-12s %12s %14s %9s\n", "flow", "estimate", "true in-window", "error")
	reported := map[uint32]bool{}
	for _, e := range hh {
		name, ok := names[e.Prefix.Src]
		if !ok {
			name = e.Prefix.String()
		}
		reported[e.Prefix.Src] = true
		fmt.Printf("%-12s %12.0f %14.0f %8.2f%%\n",
			name, e.Estimate, truth[e.Prefix.Src], 100*(e.Estimate-truth[e.Prefix.Src])/eff)
	}
	fmt.Printf("\n%d producers × %d packets ingested (%d updates)\n",
		producers, perWorker, sketch.Updates())
	fmt.Printf("monitor completed %d concurrent heavy-flow scans while ingestion ran\n", monitorPeeks)

	// The sharded sketch's contract: each flow's true count lies within
	// its merged bounds widened by the sampling compensation.
	comp := sketch.Compensation()
	failed := false
	for _, fl := range flows {
		upper, lower := sketch.QueryBounds(hier.Fully(hierarchy.Packet{Src: fl.src}))
		switch t := truth[fl.src]; {
		case !reported[fl.src]:
			fmt.Printf("FAIL: %s missing from the heavy-flow set\n", fl.name)
			failed = true
		case t > upper+comp || t < lower-comp:
			fmt.Printf("FAIL: %s true %.0f outside [%.0f, %.0f]\n", fl.name, t, lower-comp, upper+comp)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
