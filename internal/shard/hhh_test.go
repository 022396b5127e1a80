package shard

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"testing"

	"memento/internal/core"
	"memento/internal/exact"
	"memento/internal/hierarchy"
	"memento/internal/rng"
	"memento/internal/trace"
)

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
// packet front, over every way in: two PacketBatchers, an Update
// writer and an UpdateBatch writer deal concurrently while OutputTo,
// Checkpoint and WriteChain (delta capture) hold shard locks, so a
// flush can find a shard busy and skip to the next. Under
// hierarchy.Flows (H = 1) with V = H every packet is a Full update of
// its one prefix, so with a window larger than the stream each flow's
// merged estimate is its exact count plus a constant offset,
// calibrated by a sentinel flow sent once. Under -race this is also
// the read-during-ingest assertion for the delta plane.
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
			var add func(hierarchy.Packet)
			var flush func()
			switch w {
			case 0, 1:
				b := s.NewBatcher(64)
				add, flush = b.Add, b.Flush
			case 2:
				add, flush = s.Update, func() {}
			case 3:
				batch := make([]hierarchy.Packet, 0, 37)
				flush = func() {
					s.UpdateBatch(batch)
					batch = batch[:0]
				}
				add = func(p hierarchy.Packet) {
					if batch = append(batch, p); len(batch) == cap(batch) {
						flush()
					}
				}
			}
			for i := 0; i < perWriter; i++ {
				a := uint32(src.Intn(64))
				if src.Intn(4) == 0 {
					a = 64 + uint32(src.Intn(448))
				}
				add(hierarchy.Packet{Src: a})
				counts[a]++
			}
			flush()
			exactCounts[w] = counts
		}(w)
	}
	stop := make(chan struct{})
	reader := func(read func() error) {
		readerWg.Add(1)
		go func() {
			defer readerWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := read(); err != nil {
					t.Errorf("read under ingest: %v", err)
					return
				}
			}
		}()
	}
	var out []core.HeavyPrefix
	reader(func() error { out = s.OutputTo(0.05, out[:0]); return nil })
	reader(func() error { return s.Checkpoint(io.Discard) })
	// WriteChain is single-caller: this is the only goroutine writing
	// chains.
	reader(func() error { _, err := s.WriteChain(io.Discard, false); return err })
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

// shardUpdates reads every shard's update count.
func shardUpdates(s *HHH) []uint64 {
	out := make([]uint64, len(s.shards))
	for i := range s.shards {
		sl := &s.shards[i]
		sl.mu.Lock()
		out[i] = sl.hh.Sketch().Updates()
		sl.mu.Unlock()
	}
	return out
}

// TestPacketBatcherDealsEvenly pins the window-alignment invariant of
// dealing (DESIGN.md §4): with one batcher and no readers every
// TryLock succeeds, so the shards take buffers strictly in turn and
// their update counts never differ by more than one buffer — after
// every flush a full buffer triggers, and after a final partial Flush.
func TestPacketBatcherDealsEvenly(t *testing.T) {
	const size = 16
	for _, shards := range []int{1, 3, 4} {
		s := MustNewHHH(HHHConfig{
			Core: core.HHHConfig{
				Hierarchy: hierarchy.OneD{}, Window: 1 << 12, Counters: 64 * 5, V: 20, Seed: 31,
			},
			Shards: shards,
		})
		buffer := uint64(shards * size)
		check := func(when string) {
			t.Helper()
			u := shardUpdates(s)
			lo, hi := slices.Min(u), slices.Max(u)
			if hi-lo > buffer {
				t.Fatalf("shards=%d %s: per-shard updates %v differ by %d, more than one %d-packet buffer",
					shards, when, u, hi-lo, buffer)
			}
		}
		src := rng.New(32)
		b := s.NewBatcher(size)
		const n = 1<<12 + 7
		for i := 1; i <= n; i++ {
			b.Add(hierarchy.Packet{Src: uint32(src.Intn(1 << 16))})
			if uint64(i)%buffer == 0 {
				check(fmt.Sprintf("after %d packets", i))
			}
		}
		b.Flush()
		check("after the final Flush")
		if got := s.Updates(); got != n {
			t.Fatalf("shards=%d: Updates() = %d, want %d", shards, got, n)
		}
	}
}

// TestDealtBoundsHoldOnFlood audits dealt shards against
// internal/exact on the benchmark's kind of stream: a backbone trace
// carrying a flood from ten /8 subnets, fed through one batcher, so
// every flow's packets spread over all four shards. Over the last
// window, the merged bounds widened by the merged compensation must
// hold the exact count of every prefix at every level of the
// hierarchy. The seeds are fixed, so the (1−δ) guarantee is a
// deterministic check here.
func TestDealtBoundsHoldOnFlood(t *testing.T) {
	hier := hierarchy.OneD{}
	const window = 1 << 17
	s := MustNewHHH(HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hier, Window: window, Counters: 256 * hier.H(), Seed: 41,
		},
		Shards: 4,
	})
	base := trace.MustNewGenerator(trace.Backbone, 42).Generate(2*window, nil)
	fl, err := trace.Inject(base, trace.FloodConfig{Subnets: 10, Rate: 0.7, Start: window, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	oracle := make([]*exact.SlidingWindow[hierarchy.Prefix], hier.H())
	for i := range oracle {
		oracle[i] = exact.MustNewSlidingWindow[hierarchy.Prefix](s.EffectiveWindow())
	}
	b := s.NewBatcher(0)
	for _, p := range fl.Packets {
		b.Add(p)
		for i, o := range oracle {
			o.Add(hier.Prefix(p, i))
		}
	}
	b.Flush()

	comp := s.Compensation()
	checked, binding := 0, 0
	for _, o := range oracle {
		o.Each(func(p hierarchy.Prefix, c int) bool {
			upper, lower := s.QueryBounds(p)
			if n := float64(c); n > upper+comp || n < lower-comp {
				t.Errorf("%v: exact %d outside [%.0f, %.0f] (bounds ± compensation %.0f)",
					p, c, lower-comp, upper+comp, comp)
			}
			checked++
			if lower-comp > 0 {
				binding++
			}
			return true
		})
	}
	// The lower side must bind somewhere, or the check is only the
	// one-sided overshoot; the flood subnets are what make it bind.
	for _, subnet := range fl.Subnets {
		if upper, lower := s.QueryBounds(hierarchy.Prefix{Src: subnet, SrcLen: 1}); lower-comp <= 0 {
			t.Errorf("flood subnet %v: lower bound %.0f does not clear the compensation %.0f (upper %.0f)",
				hierarchy.Prefix{Src: subnet, SrcLen: 1}, lower, comp, upper)
		}
	}
	if checked == 0 || binding < len(fl.Subnets) {
		t.Fatalf("test vacuous: %d prefixes checked, %d with a binding lower bound", checked, binding)
	}
}

// TestHHHMergedAccuracy deals 256-packet batches from one caller, so
// the four shards take them strictly in turn, and checks that summed
// prefix estimates track the exact ground truth: one-sided from below
// (no false negatives) and within N× the per-shard overshoot from
// above. V=H (the τ=1 analog) isolates the merge from sampling noise.
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
	})
	oracle := exact.MustNewSlidingWindow[hierarchy.Prefix](s.EffectiveWindow())
	src := rng.New(404)
	const n = 1 << 15
	batch := make([]hierarchy.Packet, 0, 256)
	for i := 0; i < n; i++ {
		hot := src.Intn(4) > 0
		var srcAddr uint32
		if hot {
			srcAddr = uint32(src.Intn(8)*4 + i%4) // 32 heavy flows
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
