package shard

import (
	"io"
	"math"
	"sync"
	"testing"

	"memento/internal/core"
	"memento/internal/exact"
	"memento/internal/hierarchy"
	"memento/internal/rng"
)

// pacedPacketHash paces shards by source residue, the packet analog
// of pacedHash.
func pacedPacketHash(p hierarchy.Packet) uint64 { return uint64(p.Src%4) << 62 }

func TestHHHConfigValidation(t *testing.T) {
	cases := []HHHConfig{
		{Core: core.HHHConfig{Window: 1000, Counters: 64}}, // no hierarchy
		{Core: core.HHHConfig{Hierarchy: hierarchy.OneD{}, Window: 2, Counters: 64}, Shards: 4},
		{Core: core.HHHConfig{Hierarchy: hierarchy.OneD{}, Window: 1000}, Shards: 2}, // no budget
	}
	for i, cfg := range cases {
		if _, err := NewHHH(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}

// TestHHHConcurrent is the -race assertion for the sharded H-Memento:
// concurrent batched writers, Observe calls and Query/Output readers.
func TestHHHConcurrent(t *testing.T) {
	s := MustNewHHH(HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hierarchy.OneD{}, Window: 1 << 13, Counters: 64 * 5, V: 20, Seed: 2,
		},
		Shards: 4,
	})
	const writers = 4
	const perWriter = 1 << 13
	var writerWg, readerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(id int) {
			defer writerWg.Done()
			src := rng.New(uint64(id + 10))
			b := s.NewBatcher(64)
			for i := 0; i < perWriter; i++ {
				p := hierarchy.Packet{Src: uint32(src.Intn(256))}
				if i%5 == 0 {
					s.Observe(p)
				} else {
					b.Add(p)
				}
			}
			b.Flush()
		}(w)
	}
	stop := make(chan struct{})
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		probe := hierarchy.OneD{}.Prefix(hierarchy.Packet{Src: 1}, 0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Query(probe)
			_, _ = s.QueryBounds(probe)
			_ = s.Output(0.05)
		}
	}()
	writerWg.Wait()
	close(stop)
	readerWg.Wait()
	if got := s.Updates(); got != writers*perWriter {
		t.Fatalf("Updates() = %d, want %d", got, writers*perWriter)
	}
}

// TestPacketBatcherExactlyOnce is TestBatcherExactlyOnce for the
// packet front. Under hierarchy.Flows (H = 1) with V = H every packet
// is a Full update of its one prefix, so with a window larger than
// the stream each flow's merged estimate is its exact count plus a
// constant offset, calibrated by a sentinel flow sent once. OutputTo
// and WriteChain (delta capture) run in flight, so under -race this
// is also the read-during-ingest assertion for the delta plane.
func TestPacketBatcherExactlyOnce(t *testing.T) {
	const writers = 4
	const perWriter = 1 << 14
	hier := hierarchy.Flows{}
	s := MustNewHHH(HHHConfig{
		Core:   core.HHHConfig{Hierarchy: hier, Window: 1 << 20, Counters: 4096, Seed: 13},
		Shards: 4,
	})
	if err := s.EnableDeltaCheckpoints(77); err != nil {
		t.Fatal(err)
	}
	exactCounts := make([]map[uint32]float64, writers)
	var writerWg, readerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			counts := make(map[uint32]float64)
			src := rng.New(uint64(300 + w))
			b := s.NewBatcher(64)
			for i := 0; i < perWriter; i++ {
				a := uint32(src.Intn(64))
				if src.Intn(4) == 0 {
					a = 64 + uint32(src.Intn(448))
				}
				b.Add(hierarchy.Packet{Src: a})
				counts[a]++
			}
			b.Flush()
			exactCounts[w] = counts
		}(w)
	}
	stop := make(chan struct{})
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		var out []core.HeavyPrefix
		for {
			select {
			case <-stop:
				return
			default:
			}
			out = s.OutputTo(0.05, out[:0])
			// WriteChain is single-caller: this is the only goroutine
			// writing chains.
			if _, err := s.WriteChain(io.Discard, false); err != nil {
				t.Errorf("WriteChain under ingest: %v", err)
				return
			}
		}
	}()
	writerWg.Wait()
	close(stop)
	readerWg.Wait()

	if got, want := s.Updates(), uint64(writers*perWriter); got != want {
		t.Fatalf("updates = %d, want %d (lost or duplicated packets)", got, want)
	}
	// Workload sources are all < 512, so the sentinel is fresh.
	sentinel := hierarchy.Packet{Src: 1 << 30}
	b := s.NewBatcher(64)
	b.Add(sentinel)
	b.Flush()
	offset := s.Query(hier.Fully(sentinel)) - 1
	if offset < 0 {
		t.Fatalf("sentinel estimate %v below its exact count", offset+1)
	}
	exact := make(map[uint32]float64)
	for _, m := range exactCounts {
		for a, c := range m {
			exact[a] += c
		}
	}
	for a, want := range exact {
		if got := s.Query(hier.Fully(hierarchy.Packet{Src: a})); got != want+offset {
			t.Fatalf("src %d: estimate %v, want exact %v + offset %v", a, got, want, offset)
		}
	}
}

// TestHHHMergedAccuracy paces four shards exactly and checks that
// summed prefix estimates track the exact ground truth: one-sided
// from below (no false negatives) and within N× the per-shard
// overshoot from above. V=H (the τ=1 analog) isolates the merge from
// sampling noise.
func TestHHHMergedAccuracy(t *testing.T) {
	hier := hierarchy.OneD{}
	h := hier.H()
	const window = 1 << 12
	const counters = 512 * 5
	s := MustNewHHH(HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hier, Window: window, Counters: counters, V: h, Seed: 5,
		},
		Shards: 4,
		Hash:   pacedPacketHash,
	})
	oracle := exact.MustNewSlidingWindow[hierarchy.Prefix](s.EffectiveWindow())
	src := rng.New(404)
	const n = 1 << 15
	batch := make([]hierarchy.Packet, 0, 256)
	for i := 0; i < n; i++ {
		hot := src.Intn(4) > 0
		var srcAddr uint32
		if hot {
			srcAddr = uint32(src.Intn(8)*4 + i%4) // 32 heavy flows, paced
		} else {
			srcAddr = uint32(src.Intn(1<<16)*4 + i%4)
		}
		p := hierarchy.Packet{Src: srcAddr}
		batch = append(batch, p)
		// Oracle counts the fully-specified prefix only; estimates for
		// it must dominate (per-level prefixes share the same bound).
		oracle.Add(hier.Prefix(p, 0))
		if len(batch) == cap(batch) {
			s.UpdateBatch(batch)
			batch = batch[:0]
		}
	}
	s.UpdateBatch(batch)

	w := float64(s.EffectiveWindow())
	// Each of the 4 shards contributes its own constant overshoot
	// (≈ (2+1)·block) plus the εa band; sampling at V=H adds H·…
	// estimation variance. 4 shards × per-shard slack, generously.
	perShard := 6 * (w / 4) * float64(h) / (float64(counters) / 4)
	band := 4*perShard + 6*math.Sqrt(w*float64(h))
	for a := 0; a < 32; a++ {
		p := hier.Prefix(hierarchy.Packet{Src: uint32(a)}, 0)
		est := s.Query(p)
		truth := float64(oracle.Count(p))
		if est-truth > band || truth-est > band {
			t.Errorf("Query(src=%d) = %v, exact %v, band %v", a, est, truth, band)
		}
	}
}

// TestHHHOutputFindsHeavyPrefix loads one dominant flow and checks
// the merged Output reports it (or an ancestor) at a threshold it
// clearly exceeds.
func TestHHHOutputFindsHeavyPrefix(t *testing.T) {
	hier := hierarchy.OneD{}
	s := MustNewHHH(HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hier, Window: 1 << 12, Counters: 512 * 5, V: hier.H(), Seed: 9,
		},
		Shards: 4,
	})
	src := rng.New(77)
	const heavy = uint32(0x0a000001)
	batch := make([]hierarchy.Packet, 0, 128)
	for i := 0; i < 1<<14; i++ {
		p := hierarchy.Packet{Src: uint32(src.Intn(1 << 20))}
		if src.Intn(3) > 0 {
			p = hierarchy.Packet{Src: heavy}
		}
		batch = append(batch, p)
		if len(batch) == cap(batch) {
			s.UpdateBatch(batch)
			batch = batch[:0]
		}
	}
	s.UpdateBatch(batch)
	out := s.Output(0.2)
	if len(out) == 0 {
		t.Fatal("Output returned nothing for a stream dominated by one flow")
	}
	full := hier.Prefix(hierarchy.Packet{Src: heavy}, 0)
	found := false
	for _, e := range out {
		if e.Prefix.Generalizes(full) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no output prefix covers the dominant flow; got %v", out)
	}
}
