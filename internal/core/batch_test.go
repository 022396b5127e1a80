package core

import (
	"math"
	"testing"

	"memento/internal/exact"
	"memento/internal/hierarchy"
	"memento/internal/rng"
)

// TestWindowAdvanceMatchesWindowUpdate pins the bulk slide to the
// per-packet reference: after identical Full updates, advancing by
// arbitrary chunk sizes must leave the sketch in exactly the state
// that the same number of WindowUpdate calls produces.
func TestWindowAdvanceMatchesWindowUpdate(t *testing.T) {
	const window = 1000
	const k = 8
	cfg := Config{Window: window, Counters: k, Seed: 11}
	bulk := MustNew[int](cfg)
	ref := MustNew[int](cfg)

	// Populate overflow queues and the B table identically.
	feed := func(s *Sketch[int]) {
		for i := 0; i < 3*window; i++ {
			s.FullUpdate(i % 7)
		}
	}
	feed(bulk)
	feed(ref)

	sizes := []int{1, 2, 3, 5, 124, 125, 126, 999, 1000, 1001, 2500, 1, 7}
	total := 0
	for _, n := range sizes {
		bulk.WindowAdvance(n)
		for i := 0; i < n; i++ {
			ref.WindowUpdate()
		}
		total += n

		if bulk.position() != ref.position() || bulk.updates != ref.updates {
			t.Fatalf("after %d packets: position %d/%d updates %d/%d",
				total, bulk.position(), ref.position(), bulk.updates, ref.updates)
		}
		if bulk.forcedDrains != ref.forcedDrains {
			t.Fatalf("after %d packets: forcedDrains %d != %d",
				total, bulk.forcedDrains, ref.forcedDrains)
		}
		if bulk.ring.pending() != ref.ring.pending() {
			t.Fatalf("after %d packets: pending %d != %d",
				total, bulk.ring.pending(), ref.ring.pending())
		}
		if bulk.overflow.Len() != ref.overflow.Len() {
			t.Fatalf("after %d packets: overflow table sizes %d != %d",
				total, bulk.overflow.Len(), ref.overflow.Len())
		}
		for _, e := range ref.overflow.Entries() {
			if got, _ := bulk.overflow.Get(e.Key); got != e.Val {
				t.Fatalf("after %d packets: overflow[%d] = %d, want %d",
					total, e.Key, got, e.Val)
			}
		}
		for key := 0; key < 7; key++ {
			if got, want := bulk.Query(key), ref.Query(key); got != want {
				t.Fatalf("after %d packets: Query(%d) = %v, want %v", total, key, got, want)
			}
		}
	}
}

// TestUpdateBatchSegmentationInvariant feeds the same stream through
// different batch segmentations with the same seed: the geometric skip
// state persists across batches, so the resulting sketches must be
// identical — including against batch size 1.
func TestUpdateBatchSegmentationInvariant(t *testing.T) {
	const window = 4096
	const n = 3 * window
	keys := make([]uint64, n)
	src := rng.New(42)
	for i := range keys {
		keys[i] = uint64(src.Intn(200))
	}
	cfg := Config{Window: window, Counters: 64, Tau: 1.0 / 16, Seed: 77}

	run := func(batch int) *Sketch[uint64] {
		s := MustNew[uint64](cfg)
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
	for _, batch := range []int{3, 64, 1000, n} {
		got := run(batch)
		if got.FullUpdates() != want.FullUpdates() || got.Updates() != want.Updates() {
			t.Fatalf("batch=%d: %d/%d full/total updates, want %d/%d",
				batch, got.FullUpdates(), got.Updates(), want.FullUpdates(), want.Updates())
		}
		for k := uint64(0); k < 200; k++ {
			if got.Query(k) != want.Query(k) {
				t.Fatalf("batch=%d: Query(%d) = %v, want %v", batch, k, got.Query(k), want.Query(k))
			}
		}
	}
}

// TestUpdateBatchFullRate asserts the distributional contract with
// Update: the batched geometric sampler must realize the same
// Full-update rate τ as the per-packet Bernoulli sampler, within a
// generous multiple of the binomial standard deviation.
func TestUpdateBatchFullRate(t *testing.T) {
	const window = 1 << 14
	const n = 1 << 19
	keys := make([]uint64, n)
	src := rng.New(5)
	for i := range keys {
		keys[i] = uint64(src.Intn(500))
	}
	for _, tau := range []float64{1, 1.0 / 4, 1.0 / 64, 1.0 / 512} {
		cfg := Config{Window: window, Counters: 128, Tau: tau, Seed: 13}
		batched := MustNew[uint64](cfg)
		perPkt := MustNew[uint64](cfg)
		for i := 0; i < n; i += 256 {
			batched.UpdateBatch(keys[i : i+256])
		}
		for _, k := range keys {
			perPkt.Update(k)
		}
		if batched.Updates() != n || perPkt.Updates() != n {
			t.Fatalf("tau=%v: updates %d/%d, want %d", tau, batched.Updates(), perPkt.Updates(), n)
		}
		sigma := math.Sqrt(float64(n) * tau * (1 - tau))
		slack := 6*sigma + 1
		got := float64(batched.FullUpdates())
		want := tau * n
		if math.Abs(got-want) > slack {
			t.Errorf("tau=%v: batched full updates %v, want %v ± %v", tau, got, want, slack)
		}
		ref := float64(perPkt.FullUpdates())
		if math.Abs(ref-want) > slack {
			t.Errorf("tau=%v: per-packet full updates %v, want %v ± %v", tau, ref, want, slack)
		}
		if tau == 1 && batched.FullUpdates() != n {
			t.Errorf("tau=1: every batched update must be Full, got %d/%d", batched.FullUpdates(), n)
		}
	}
}

// TestUpdateBatchAccuracy checks the batched path against the exact
// oracle: estimates stay one-sided up to sampling noise and within the
// combined εa+εs error band, mirroring the per-packet accuracy tests.
func TestUpdateBatchAccuracy(t *testing.T) {
	const window = 1 << 13
	const k = 256
	const tau = 1.0 / 8
	s := MustNew[uint64](Config{Window: window, Counters: k, Tau: tau, Seed: 3})
	oracle := exact.MustNewSlidingWindow[uint64](s.EffectiveWindow())
	src := rng.New(99)
	const n = 1 << 16
	batch := make([]uint64, 0, 512)
	for i := 0; i < n; i++ {
		// Zipf-ish skew: low keys are heavy.
		key := uint64(src.Intn(32))
		if src.Intn(4) == 0 {
			key = uint64(32 + src.Intn(4096))
		}
		batch = append(batch, key)
		oracle.Add(key)
		if len(batch) == cap(batch) {
			s.UpdateBatch(batch)
			batch = batch[:0]
		}
	}
	s.UpdateBatch(batch)

	w := float64(s.EffectiveWindow())
	epsA := 4 * float64(s.EffectiveWindow()) / float64(k)
	epsS := 4 / math.Sqrt(tau*w) * w // ~4σ of sampling noise in packets
	band := epsA + epsS
	for key := uint64(0); key < 32; key++ {
		est := s.Query(key)
		truth := float64(oracle.Count(key))
		if est-truth > band || truth-est > band {
			t.Errorf("Query(%d) = %v, exact %v, |diff| > %v", key, est, truth, band)
		}
	}
}

// TestHHHUpdateBatch checks the H-Memento batch path: the window
// position advances one per packet, the sampled-prefix rate matches
// H/V, and batched estimates track the per-packet path within the
// sampling error band.
func TestHHHUpdateBatch(t *testing.T) {
	const window = 1 << 13
	const n = 1 << 17
	hier := hierarchy.OneD{}
	h := hier.H()
	v := h * 16
	mk := func(seed uint64) *HHH {
		return MustNewHHH(HHHConfig{
			Hierarchy: hier, Window: window, Counters: 64 * h, V: v, Seed: seed,
		})
	}
	batched := mk(21)
	perPkt := mk(21)

	src := rng.New(1234)
	pkts := make([]hierarchy.Packet, n)
	for i := range pkts {
		pkts[i] = hierarchy.Packet{Src: uint32(src.Intn(64))}
	}
	for i := 0; i < n; i += 500 {
		end := i + 500
		if end > n {
			end = n
		}
		batched.UpdateBatch(pkts[i:end])
	}
	for _, p := range pkts {
		perPkt.Update(p)
	}

	if got := batched.Sketch().Updates(); got != n {
		t.Fatalf("batched window position advanced %d, want %d", got, n)
	}
	tau := float64(h) / float64(v)
	sigma := math.Sqrt(float64(n) * tau * (1 - tau))
	got := float64(batched.Sketch().FullUpdates())
	if want := tau * n; math.Abs(got-want) > 6*sigma+1 {
		t.Errorf("batched sampled-prefix count %v, want %v ± %v", got, want, 6*sigma+1)
	}

	// Estimates from the two paths agree within sampling noise for a
	// heavy prefix.
	p := hier.Prefix(hierarchy.Packet{Src: 1}, 0)
	a, b := batched.Query(p), perPkt.Query(p)
	w := float64(batched.EffectiveWindow())
	band := 4*float64(window)/float64(64*h)*float64(h) + 8*math.Sqrt(float64(v)*w)
	if math.Abs(a-b) > band {
		t.Errorf("batched Query %v vs per-packet %v differ by more than %v", a, b, band)
	}
}

// TestLongSlideLeavesOnlyPosition proves the bound the network-wide
// controller puts on one report's window advance: a slide of W + W/k
// packets or more without a Full update rotates every ring queue out
// (W already drains them while the de-amortization invariant holds),
// which empties B, and flushes y, so what a longer slide of n packets
// leaves behind depends on n only through the frame position
// (pos + n) mod W — sliding 2·W + n mod W is indistinguishable from
// sliding n. Checked
// against the per-packet loop on small geometries (W not a multiple of
// k, W = k, τ < 1) from every starting position, with Query over every
// key and position().
func TestLongSlideLeavesOnlyPosition(t *testing.T) {
	for _, cfg := range []Config{
		{Window: 24, Counters: 4, Seed: 3},
		{Window: 30, Counters: 7, Seed: 4}, // effective window 35
		{Window: 8, Counters: 8, Seed: 5},
		{Window: 64, Counters: 4, Tau: 0.5, Seed: 6},
	} {
		const keys = 12
		w := uint64(MustNew[uint64](cfg).EffectiveWindow())
		for start := uint64(0); start < 2*w; start++ {
			for _, n := range []uint64{3*w + 1, 4 * w, 5*w + w/2, 7*w - 1} {
				ref, bulk := MustNew[uint64](cfg), MustNew[uint64](cfg)
				src := rng.New(start + 1)
				for i := uint64(0); i < 3*w+start; i++ { // load, ending at every frame position
					k := uint64(src.Intn(keys))
					ref.FullUpdate(k)
					bulk.FullUpdate(k)
				}
				if start == 0 && ref.OverflowEntries() == 0 {
					t.Fatalf("%+v: test vacuous: nothing overflowed", cfg)
				}
				for i := uint64(0); i < n; i++ {
					ref.WindowUpdate()
				}
				bulk.WindowAdvance(int(2*w + n%w))
				if ref.position() != bulk.position() {
					t.Fatalf("%+v start %d n %d: position %d, per-packet loop %d", cfg, start, n, bulk.position(), ref.position())
				}
				if bulk.OverflowEntries() != 0 || bulk.ring.pending() != 0 || bulk.Slots() != 0 {
					t.Fatalf("%+v start %d n %d: %d overflow entries, %d queued, %d monitored after the reduced slide",
						cfg, start, n, bulk.OverflowEntries(), bulk.ring.pending(), bulk.Slots())
				}
				for k := uint64(0); k < keys+1; k++ {
					if ref.Query(k) != bulk.Query(k) {
						t.Fatalf("%+v start %d n %d: Query(%d) = %v, per-packet loop %v", cfg, start, n, k, bulk.Query(k), ref.Query(k))
					}
				}
				// And they keep agreeing once traffic resumes.
				for i := 0; i < int(w); i++ {
					k := uint64(src.Intn(keys))
					ref.FullUpdate(k)
					bulk.FullUpdate(k)
				}
				for k := uint64(0); k < keys; k++ {
					if ref.Query(k) != bulk.Query(k) {
						t.Fatalf("%+v start %d n %d: after resuming, Query(%d) = %v, per-packet loop %v", cfg, start, n, k, bulk.Query(k), ref.Query(k))
					}
				}
			}
		}
	}
}
