package shard

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/exact"
	"memento/internal/rng"
)

// pacedHash assigns key k to shard k%4 (top bits drive the
// multiply-shift reduction). Feeding keys in round-robin residue
// order then paces every shard at exactly 1/4 of the stream, so each
// shard's W/4 window spans exactly the last W global packets and the
// merged estimates obey the single-sketch error analysis.
func pacedHash(k uint64) uint64 { return (k % 4) << 62 }

func TestConfigValidation(t *testing.T) {
	cases := []SketchConfig[uint64]{
		{Core: core.Config{Window: 1000, Counters: 64}, Shards: -1},
		{Core: core.Config{Window: 3, Counters: 64}, Shards: 4},
		{Core: core.Config{Window: 0, Counters: 64}},
		{Core: core.Config{Window: 1000}}, // no counters or epsilon
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
	s := MustNew[uint64](SketchConfig[uint64]{Core: core.Config{Window: 1 << 16, Counters: 64}})
	if s.Shards() < 1 {
		t.Fatalf("default shards = %d", s.Shards())
	}
	if got := s.EffectiveWindow(); got < 1<<16 {
		t.Errorf("EffectiveWindow %d below configured global window", got)
	}
}

// TestCountersDivided pins the memory contract: the global counter
// budget is split across shards (with a floor).
func TestCountersDivided(t *testing.T) {
	s := MustNew[uint64](SketchConfig[uint64]{
		Core: core.Config{Window: 1 << 16, Counters: 4096}, Shards: 4,
	})
	for i := range s.shards {
		if got := s.shards[i].s.Counters(); got != 1024 {
			t.Errorf("shard %d counters = %d, want 1024", i, got)
		}
	}
}

// TestConcurrentWritersReaders exercises every public method from
// many goroutines at once; run under -race this is the concurrency
// safety assertion of the package.
func TestConcurrentWritersReaders(t *testing.T) {
	s := MustNew[uint64](SketchConfig[uint64]{
		Core:   core.Config{Window: 1 << 14, Counters: 256, Tau: 1.0 / 8, Seed: 1},
		Shards: 4,
	})
	const writers = 4
	const readers = 2
	const perWriter = 1 << 15
	var writerWg, readerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(id int) {
			defer writerWg.Done()
			src := rng.New(uint64(id + 1))
			b := s.NewBatcher(128)
			for i := 0; i < perWriter; i++ {
				if i%3 == 0 {
					s.Update(uint64(src.Intn(1000)))
				} else {
					b.Add(uint64(src.Intn(1000)))
				}
			}
			b.Flush()
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readerWg.Add(1)
		go func(id int) {
			defer readerWg.Done()
			var items []core.Item[uint64]
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Query(uint64(id))
				_, _ = s.QueryBounds(uint64(id * 7))
				items = s.HeavyHitters(0.01, items[:0])
				s.Overflowed(func(k uint64, n int32) bool { return n < 1000 })
				_ = s.Updates()
			}
		}(r)
	}
	writerWg.Wait()
	close(stop)
	readerWg.Wait()
	if got := s.Updates(); got != writers*perWriter {
		t.Fatalf("Updates() = %d, want %d", got, writers*perWriter)
	}
}

// TestBatcherExactlyOnce is the conservation property of the ingest
// front: every key handed to a Batcher is counted exactly once,
// however the flushes of concurrent Batchers interleave at the shard
// locks. With τ=1 and a window larger than the stream every packet is
// a Full update and no counter is ever evicted, so Query(k) =
// exact(k) + a constant offset (Algorithm 1's upper-bound estimate).
// The test calibrates that offset with a sentinel key added exactly
// once, then demands every key match its exact count through the same
// offset: a dropped or duplicated key shifts some estimate by at
// least 1. Point queries, HeavyHitters and Checkpoint run in flight,
// so under -race this is also the read-during-ingest assertion for
// the sketch-side persistence plane.
func TestBatcherExactlyOnce(t *testing.T) {
	const writers = 4
	const perWriter = 1 << 14
	s := MustNew[uint64](SketchConfig[uint64]{
		Core:   core.Config{Window: 1 << 20, Counters: 4096, Tau: 1, Seed: 7},
		Shards: 4,
		Hash:   pacedHash,
	})
	exactCounts := make([]map[uint64]float64, writers)
	var writerWg, readerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			counts := make(map[uint64]float64)
			src := rng.New(uint64(100 + w))
			b := s.NewBatcher(64)
			for i := 0; i < perWriter; i++ {
				// A few hundred distinct keys, so exact per-key
				// accounting fits in the counter budget.
				k := uint64(src.Intn(64))
				if src.Intn(4) == 0 {
					k = 64 + uint64(src.Intn(448))
				}
				b.Add(k)
				counts[k]++
			}
			b.Flush()
			exactCounts[w] = counts
		}(w)
	}
	stop := make(chan struct{})
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		var items []core.Item[uint64]
		var buf bytes.Buffer
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Query(3)
			items = s.HeavyHitters(0.05, items[:0])
			buf.Reset()
			if err := s.Checkpoint(&buf, codec.Uint64Keys{}); err != nil {
				t.Errorf("checkpoint under ingest: %v", err)
				return
			}
		}
	}()
	writerWg.Wait()
	close(stop)
	readerWg.Wait()

	if got, want := s.Updates(), uint64(writers*perWriter); got != want {
		t.Fatalf("updates = %d, want %d (lost or duplicated keys)", got, want)
	}
	// Workload keys are all < 512, so the sentinel is fresh.
	const sentinel = uint64(1) << 40
	b := s.NewBatcher(64)
	b.Add(sentinel)
	b.Flush()
	offset := s.Query(sentinel) - 1
	if offset < 0 {
		t.Fatalf("sentinel estimate %v below its exact count", offset+1)
	}
	exact := make(map[uint64]float64)
	for _, m := range exactCounts {
		for k, c := range m {
			exact[k] += c
		}
	}
	for k, want := range exact {
		if got := s.Query(k); got != want+offset {
			t.Fatalf("key %d: estimate %v, want exact %v + offset %v", k, got, want, offset)
		}
	}
}

// TestShardedAccuracy drives a paced, skewed stream and asserts the
// merged estimates stay within the combined εa+εs error band against
// the exact ground-truth window, the acceptance bound of the sharded
// layer.
func TestShardedAccuracy(t *testing.T) {
	const window = 1 << 14
	const counters = 512
	const tau = 1.0 / 4
	s := MustNew[uint64](SketchConfig[uint64]{
		Core:   core.Config{Window: window, Counters: counters, Tau: tau, Seed: 7},
		Shards: 4,
		Hash:   pacedHash,
	})
	oracle := exact.MustNewSlidingWindow[uint64](s.EffectiveWindow())

	// Skewed paced stream: residues rotate 0,1,2,3 so each shard is
	// paced exactly; within a residue class low quotients are heavy.
	src := rng.New(1001)
	const n = 1 << 17
	batch := make([]uint64, 0, 256)
	for i := 0; i < n; i++ {
		q := src.Intn(16)
		if src.Intn(3) == 0 {
			q = 16 + src.Intn(1024)
		}
		key := uint64(q*4 + i%4)
		batch = append(batch, key)
		oracle.Add(key)
		if len(batch) == cap(batch) {
			s.UpdateBatch(batch)
			batch = batch[:0]
		}
	}
	s.UpdateBatch(batch)

	w := float64(s.EffectiveWindow())
	// εa: global 4W/k by construction (per shard: 4·(W/4)/(k/4)).
	// εs: sampling noise ~√(f/τ) packets; bound with 6σ at f ≤ W.
	band := 6*w/float64(counters) + 6*math.Sqrt(w/tau)
	for res := 0; res < 4; res++ {
		for q := 0; q < 16; q++ {
			key := uint64(q*4 + res)
			est := s.Query(key)
			truth := float64(oracle.Count(key))
			if diff := est - truth; diff > band || -diff > band {
				t.Errorf("Query(%d) = %v, exact %v, |diff| %v > band %v",
					key, est, truth, est-truth, band)
			}
		}
	}
}

// TestHeavyHittersNoFalseNegatives checks the merged HeavyHitters
// call keeps Memento's one-sided guarantee at τ=1: every exact heavy
// hitter of the global window must be reported.
func TestHeavyHittersNoFalseNegatives(t *testing.T) {
	const window = 1 << 12
	s := MustNew[uint64](SketchConfig[uint64]{
		Core:   core.Config{Window: window, Counters: 256, Seed: 3},
		Shards: 4,
		Hash:   pacedHash,
	})
	oracle := exact.MustNewSlidingWindow[uint64](s.EffectiveWindow())
	src := rng.New(2002)
	for i := 0; i < 1<<15; i++ {
		q := src.Intn(8)
		if src.Intn(2) == 0 {
			q = 8 + src.Intn(512)
		}
		key := uint64(q*4 + i%4)
		s.Update(key)
		oracle.Add(key)
	}
	const theta = 0.05
	got := map[uint64]bool{}
	for _, it := range s.HeavyHitters(theta, nil) {
		got[it.Key] = true
	}
	for key := range oracle.HeavyHitters(theta) {
		if !got[key] {
			t.Errorf("exact heavy hitter %d missing from sharded report", key)
		}
	}
}

// TestBatchSegmentationInvariant: with a fixed Hash and Seed the
// sharded result must not depend on how the stream is cut into
// batches, because each shard's substream and geometric skip state
// are identical.
func TestBatchSegmentationInvariant(t *testing.T) {
	const window = 1 << 12
	const n = 1 << 14
	keys := make([]uint64, n)
	src := rng.New(31)
	for i := range keys {
		keys[i] = uint64(src.Intn(300))
	}
	run := func(batch int) *Sketch[uint64] {
		s := MustNew[uint64](SketchConfig[uint64]{
			Core:   core.Config{Window: window, Counters: 128, Tau: 1.0 / 8, Seed: 17},
			Shards: 4,
			Hash:   pacedHash,
		})
		for i := 0; i < n; i += batch {
			end := i + batch
			if end > n {
				end = n
			}
			s.UpdateBatch(keys[i:end])
		}
		return s
	}
	want := run(1)
	for _, batch := range []int{7, 256, n} {
		got := run(batch)
		if got.FullUpdates() != want.FullUpdates() {
			t.Fatalf("batch=%d: %d full updates, want %d",
				batch, got.FullUpdates(), want.FullUpdates())
		}
		for k := uint64(0); k < 300; k++ {
			if got.Query(k) != want.Query(k) {
				t.Fatalf("batch=%d: Query(%d) = %v, want %v",
					batch, k, got.Query(k), want.Query(k))
			}
		}
	}
}
