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
	bulk := mustNew[int](cfg)
	ref := mustNew[int](cfg)

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

// TestUpdateBatchSegmentationInvariant feeds the same packets through
// HHH.UpdateBatch under different batch segmentations with the same
// seed: the geometric skip state persists across batches, so the
// resulting instances must be identical — including against batch
// size 1.
func TestUpdateBatchSegmentationInvariant(t *testing.T) {
	const window = 4096
	const n = 3 * window
	hier := hierarchy.OneD{}
	pkts := make([]hierarchy.Packet, n)
	src := rng.New(42)
	for i := range pkts {
		pkts[i] = hierarchy.Packet{Src: uint32(src.Intn(200))}
	}
	cfg := HHHConfig{Hierarchy: hier, Window: window, Counters: 64 * hier.H(), V: 16 * hier.H(), Seed: 77}

	run := func(batch int) *HHH {
		hh := MustNewHHH(cfg)
		for i := 0; i < n; i += batch {
			hh.UpdateBatch(pkts[i:min(i+batch, n)])
		}
		return hh
	}
	want := run(1)
	if want.Sketch().FullUpdates() == 0 || want.Sketch().OverflowEntries() == 0 {
		t.Fatal("test vacuous: no sampled prefix reached the overflow table")
	}
	for _, batch := range []int{3, 64, 1000, n} {
		got := run(batch)
		if got.Sketch().FullUpdates() != want.Sketch().FullUpdates() || got.Sketch().Updates() != want.Sketch().Updates() {
			t.Fatalf("batch=%d: %d/%d full/total updates, want %d/%d", batch,
				got.Sketch().FullUpdates(), got.Sketch().Updates(), want.Sketch().FullUpdates(), want.Sketch().Updates())
		}
		for a := uint32(0); a < 200; a++ {
			for lvl := 0; lvl < hier.H(); lvl++ {
				p := hier.Prefix(hierarchy.Packet{Src: a}, lvl)
				if got.Query(p) != want.Query(p) {
					t.Fatalf("batch=%d: Query(%v) = %v, want %v", batch, p, got.Query(p), want.Query(p))
				}
			}
		}
	}
}

// TestUpdateBatchFullRate asserts the distributional contract with
// Update across sampling ratios: the batched geometric sampler must
// realize the same sampled-prefix rate H/V as the per-packet draw,
// within a generous multiple of the binomial standard deviation, and
// at V = H every packet must sample a prefix.
func TestUpdateBatchFullRate(t *testing.T) {
	const window = 1 << 14
	const n = 1 << 19
	hier := hierarchy.OneD{}
	h := hier.H()
	pkts := make([]hierarchy.Packet, n)
	src := rng.New(5)
	for i := range pkts {
		pkts[i] = hierarchy.Packet{Src: uint32(src.Intn(500))}
	}
	for _, v := range []int{h, 4 * h, 64 * h, 512 * h} {
		cfg := HHHConfig{Hierarchy: hier, Window: window, Counters: 128 * h, V: v, Seed: 13}
		batched := MustNewHHH(cfg)
		perPkt := MustNewHHH(cfg)
		for i := 0; i < n; i += 256 {
			batched.UpdateBatch(pkts[i : i+256])
		}
		for _, p := range pkts {
			perPkt.Update(p)
		}
		if batched.Sketch().Updates() != n || perPkt.Sketch().Updates() != n {
			t.Fatalf("V=%d: updates %d/%d, want %d", v, batched.Sketch().Updates(), perPkt.Sketch().Updates(), n)
		}
		tau := float64(h) / float64(v)
		sigma := math.Sqrt(float64(n) * tau * (1 - tau))
		slack := 6*sigma + 1
		got := float64(batched.Sketch().FullUpdates())
		want := tau * n
		if math.Abs(got-want) > slack {
			t.Errorf("V=%d: batched sampled prefixes %v, want %v ± %v", v, got, want, slack)
		}
		ref := float64(perPkt.Sketch().FullUpdates())
		if math.Abs(ref-want) > slack {
			t.Errorf("V=%d: per-packet sampled prefixes %v, want %v ± %v", v, ref, want, slack)
		}
		if v == h && batched.Sketch().FullUpdates() != n {
			t.Errorf("V=H: every batched packet must sample a prefix, got %d/%d", batched.Sketch().FullUpdates(), n)
		}
	}
}

// TestUpdateBatchAccuracy checks the batched path against the exact
// oracle, one sliding window per prefix level: the estimate of every
// heavy prefix stays within the counting error 4·H·W/k plus ~4σ of
// sampling noise, 4·√(V·W), mirroring the per-packet accuracy tests.
func TestUpdateBatchAccuracy(t *testing.T) {
	const window = 1 << 13
	const n = 1 << 16
	hier := hierarchy.OneD{}
	h := hier.H()
	k, v := 256*h, 8*h
	hh := MustNewHHH(HHHConfig{Hierarchy: hier, Window: window, Counters: k, V: v, Seed: 3})
	w := hh.EffectiveWindow()
	oracles := make([]*exact.SlidingWindow[hierarchy.Prefix], h)
	for lvl := range oracles {
		oracles[lvl] = exact.MustNewSlidingWindow[hierarchy.Prefix](w)
	}
	src := rng.New(99)
	batch := make([]hierarchy.Packet, 0, 512)
	for i := 0; i < n; i++ {
		// Zipf-ish skew: low addresses are heavy.
		p := hierarchy.Packet{Src: uint32(src.Intn(32))}
		if src.Intn(4) == 0 {
			p.Src = uint32(32 + src.Intn(4096))
		}
		batch = append(batch, p)
		for lvl, o := range oracles {
			o.Add(hier.Prefix(p, lvl))
		}
		if len(batch) == cap(batch) {
			hh.UpdateBatch(batch)
			batch = batch[:0]
		}
	}
	hh.UpdateBatch(batch)

	band := 4*float64(h)*float64(w)/float64(k) + 4*math.Sqrt(float64(v)*float64(w))
	for a := uint32(0); a < 32; a++ {
		for lvl, o := range oracles {
			p := hier.Prefix(hierarchy.Packet{Src: a}, lvl)
			est, truth := hh.Query(p), float64(o.Count(p))
			if math.Abs(est-truth) > band {
				t.Errorf("Query(%v) = %v, exact %v, |diff| > %v", p, est, truth, band)
			}
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
		w := uint64(mustNew[uint64](cfg).EffectiveWindow())
		for start := uint64(0); start < 2*w; start++ {
			for _, n := range []uint64{3*w + 1, 4 * w, 5*w + w/2, 7*w - 1} {
				ref, bulk := mustNew[uint64](cfg), mustNew[uint64](cfg)
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
