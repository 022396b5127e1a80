package shard

import (
	"io"
	"math"
	"runtime"
	"sync"
	"testing"

	"memento/internal/core"
	"memento/internal/exact"
	"memento/internal/hierarchy"
	"memento/internal/obs"
	"memento/internal/rng"
)

// mustNewHHH is NewHHH for configurations the test knows are valid.
func mustNewHHH(cfg HHHConfig) *HHH {
	s, err := NewHHH(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// TestConfigValidation covers the shard-level checks of NewHHH — the
// shard count, the global window and the counter budget — and what an
// unset Shards resolves to.
func TestConfigValidation(t *testing.T) {
	hier := hierarchy.OneD{}
	cases := []HHHConfig{
		{Core: core.HHHConfig{Hierarchy: hier, Window: 1000, Counters: 64}, Shards: -1},
		{Core: core.HHHConfig{Hierarchy: hier, Window: 0, Counters: 64}},
		{Core: core.HHHConfig{Hierarchy: hier, Window: 1000}}, // no counters or epsilon
	}
	for i, cfg := range cases {
		if _, err := NewHHH(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
	s := mustNewHHH(HHHConfig{Core: core.HHHConfig{Hierarchy: hier, Window: 1 << 16, Counters: 64 * hier.H()}})
	if got, want := s.Shards(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default shards = %d, want GOMAXPROCS = %d", got, want)
	}
	if got := s.EffectiveWindow(); got < 1<<16 {
		t.Errorf("EffectiveWindow %d below configured global window", got)
	}
}

// TestConcurrentWritersReaders exercises every ingest and read method
// from many goroutines at once, over the 2D hierarchy (whose output
// takes the glb fallback); run under -race this is the concurrency
// safety assertion of the package. Every write and every OutputTo is
// counted, so a lost update or an unrecorded query fails it too.
func TestConcurrentWritersReaders(t *testing.T) {
	hier := hierarchy.TwoD{}
	s := mustNewHHH(HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hier, Window: 1 << 14, Counters: 16 * hier.H(), V: 4 * hier.H(), Seed: 1,
		},
		Shards: 4,
	})
	reg := obs.NewRegistry()
	s.Instrument(reg, nil, "test")
	queryHist := reg.Histogram("memento_shard_query_2d_ns")
	const writers = 4
	const readers = 2
	const perWriter = 1 << 14
	var writerWg, readerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(id int) {
			defer writerWg.Done()
			src := rng.New(uint64(id + 1))
			b := s.NewBatcher(32)
			batch := make([]hierarchy.Packet, 0, 19)
			for i := 0; i < perWriter; i++ {
				p := hierarchy.Packet{Src: uint32(src.Intn(1000)), Dst: uint32(src.Intn(16))}
				switch i % 4 {
				case 0:
					s.Update(p)
				case 1:
					s.Observe(p)
				case 2:
					if batch = append(batch, p); len(batch) == cap(batch) {
						s.UpdateBatch(batch)
						batch = batch[:0]
					}
				default:
					b.Add(p)
				}
			}
			s.UpdateBatch(batch)
			b.Flush()
		}(w)
	}
	stop := make(chan struct{})
	outputs := make([]uint64, readers)
	for r := 0; r < readers; r++ {
		readerWg.Add(1)
		go func(id int) {
			defer readerWg.Done()
			probe := hierarchy.Prefix{Src: uint32(id), SrcLen: 4, Dst: 1, DstLen: 4}
			var out []core.HeavyPrefix
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Query(probe)
				_, _ = s.QueryBounds(probe)
				_, _ = s.Bounds(probe)
				out = s.OutputTo(0.01, out[:0])
				_ = s.Output(0.05)
				outputs[id] += 2
				_ = s.Updates()
				var hs obs.HistSnapshot
				queryHist.Snapshot(&hs)
				if err := s.Checkpoint(io.Discard); err != nil {
					t.Errorf("checkpoint under ingest: %v", err)
					return
				}
			}
		}(r)
	}
	writerWg.Wait()
	close(stop)
	readerWg.Wait()
	if got := s.Updates(); got != writers*perWriter {
		t.Fatalf("Updates() = %d, want %d", got, writers*perWriter)
	}
	var want uint64
	for _, n := range outputs {
		want += n
	}
	var hs obs.HistSnapshot
	queryHist.Snapshot(&hs)
	if got := hs.Count; got != want {
		t.Fatalf("query histogram count = %d, want the %d outputs the readers ran", got, want)
	}
}

// TestBatcherExactlyOnce is the conservation property of PacketBatcher
// at the buffer sizes where dealing is most likely to slip: a buffer of
// one packet per shard, an odd size, the default and a large one, over
// a shard count that is not a power of two, while point queries take
// their one-lock-pass probe of every shard in flight. Under
// hierarchy.Flows with V = H every packet is a Full update of its one
// prefix and the window outlasts the stream, so each flow's merged
// estimate is its exact count plus a constant offset, calibrated by a
// sentinel flow sent once: a dropped or duplicated packet shifts some
// estimate by at least 1.
func TestBatcherExactlyOnce(t *testing.T) {
	sizes := []int{1, 3, 0, 64}
	const perWriter = 1 << 14
	hier := hierarchy.Flows{}
	s := mustNewHHH(HHHConfig{
		Core:   core.HHHConfig{Hierarchy: hier, Window: 1 << 20, Counters: 4096, Seed: 7},
		Shards: 3,
	})
	exactCounts := make([]map[uint32]float64, len(sizes))
	var writerWg, readerWg sync.WaitGroup
	for w, size := range sizes {
		writerWg.Add(1)
		go func(w, size int) {
			defer writerWg.Done()
			counts := make(map[uint32]float64)
			src := rng.New(uint64(100 + w))
			b := s.NewBatcher(size)
			for i := 0; i < perWriter; i++ {
				// A few hundred distinct flows, so exact per-flow
				// accounting fits in the counter budget.
				a := uint32(src.Intn(64))
				if src.Intn(4) == 0 {
					a = 64 + uint32(src.Intn(448))
				}
				b.Add(hierarchy.Packet{Src: a})
				counts[a]++
			}
			b.Flush()
			exactCounts[w] = counts
		}(w, size)
	}
	stop := make(chan struct{})
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		probe := hier.Fully(hierarchy.Packet{Src: 3})
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Query(probe)
			_, _ = s.QueryBounds(probe)
		}
	}()
	writerWg.Wait()
	close(stop)
	readerWg.Wait()

	if got, want := s.Updates(), uint64(len(sizes)*perWriter); got != want {
		t.Fatalf("updates = %d, want %d (lost or duplicated packets)", got, want)
	}
	// Workload sources are all < 512, so the sentinel is fresh.
	sentinel := hierarchy.Packet{Src: 1 << 30}
	b := s.NewBatcher(1)
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

// TestShardedAccuracy drives a skewed stream through sampling shards
// (V = 4·H, the τ = 1/4 analog) and asserts the merged estimates stay
// within the combined εa+εs band against the exact ground-truth
// window, the acceptance bound of the sharded layer. One caller deals
// whole batches, so the shards take them strictly in turn and each
// W/N shard window spans the last W global packets.
func TestShardedAccuracy(t *testing.T) {
	hier := hierarchy.Flows{}
	const window = 1 << 16
	const counters = 1024
	const v = 4
	const shards = 4
	s := mustNewHHH(HHHConfig{
		Core:   core.HHHConfig{Hierarchy: hier, Window: window, Counters: counters, V: v, Seed: 7},
		Shards: shards,
	})
	oracle := exact.MustNewSlidingWindow[hierarchy.Prefix](s.EffectiveWindow())

	// Four heavy flows take 2/3 of the stream, light ones the rest.
	src := rng.New(1001)
	const n = 4 * window
	batch := make([]hierarchy.Packet, 0, 256)
	for i := 0; i < n; i++ {
		a := uint32(src.Intn(4))
		if src.Intn(3) == 0 {
			a = 4 + uint32(src.Intn(1<<12))
		}
		p := hierarchy.Packet{Src: a}
		batch = append(batch, p)
		oracle.Add(hier.Fully(p))
		if len(batch) == cap(batch) {
			s.UpdateBatch(batch)
			batch = batch[:0]
		}
	}
	s.UpdateBatch(batch)

	w := float64(s.EffectiveWindow())
	// εa: each shard's 6·(W/N)/(k/N) overshoot, summed over the N
	// shards. εs: sampling noise ~√(f·V) packets; bound with 6σ at f ≤ W.
	perShard := 6 * (w / shards) / (counters / shards)
	band := shards*perShard + 6*math.Sqrt(w*v)
	for a := uint32(0); a < 4; a++ {
		p := hier.Fully(hierarchy.Packet{Src: a})
		est := s.Query(p)
		truth := float64(oracle.Count(p))
		if truth <= band {
			t.Fatalf("test vacuous: heavy flow %d has exact count %v within the band %v", a, truth, band)
		}
		if diff := est - truth; diff > band || -diff > band {
			t.Errorf("Query(src=%d) = %v, exact %v, |diff| %v > band %v",
				a, est, truth, est-truth, band)
		}
	}
}
