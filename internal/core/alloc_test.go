package core

import (
	"testing"

	"memento/internal/hierarchy"
	"memento/internal/obs"
	"memento/internal/rng"
)

// TestUpdateZeroAlloc pins the allocation-free guarantee of the
// per-packet hot path: after a warm-up window (which may grow the
// overflow table once), Update must never allocate — no map buckets,
// no ring growth, nothing.
func TestUpdateZeroAlloc(t *testing.T) {
	s := mustNew[uint64](Config{Window: 1 << 14, Counters: 256, Tau: 1.0 / 16, Seed: 3})
	src := rng.New(9)
	keys := make([]uint64, 1<<12)
	for i := range keys {
		keys[i] = uint64(src.Intn(1 << 12))
	}
	for i := 0; i < 3<<14; i++ { // warm up: several full windows
		s.Update(keys[i&(len(keys)-1)])
	}
	i := 0
	allocs := testing.AllocsPerRun(20000, func() {
		s.Update(keys[i&(len(keys)-1)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Update allocs/op = %v, want 0", allocs)
	}
}

// TestUpdateBatchZeroAlloc does the same for the batched path,
// HHH.UpdateBatch: the geometric skip draws, the bulk window slides
// and the sampled prefixes' Full updates.
func TestUpdateBatchZeroAlloc(t *testing.T) {
	hier := hierarchy.OneD{}
	hh := MustNewHHH(HHHConfig{Hierarchy: hier, Window: 1 << 14, Counters: 256 * hier.H(), V: 16 * hier.H(), Seed: 4})
	src := rng.New(10)
	batch := make([]hierarchy.Packet, 256)
	for i := range batch {
		batch[i] = hierarchy.Packet{Src: uint32(src.Intn(1 << 12))}
	}
	for i := 0; i < 1<<8; i++ {
		hh.UpdateBatch(batch)
	}
	allocs := testing.AllocsPerRun(2000, func() { hh.UpdateBatch(batch) })
	if allocs != 0 {
		t.Fatalf("UpdateBatch allocs/op = %v, want 0", allocs)
	}
}

// benchKeys builds a mildly skewed key stream shared by the ingestion
// benchmarks (power-of-two length for cheap wraparound indexing).
func benchKeys(n int) []uint64 {
	src := rng.New(8)
	keys := make([]uint64, n)
	for i := range keys {
		k := src.Intn(1 << 8)
		if src.Intn(4) == 0 {
			k = 1<<8 + src.Intn(1<<16)
		}
		keys[i] = uint64(k)
	}
	return keys
}

const benchWindow = 1 << 18
const benchTau = 1.0 / 64

// BenchmarkIngestSingle is the per-packet ingest baseline: one
// goroutine, Update on a bare Sketch. CI alloc-gates it at 0 allocs/op.
func BenchmarkIngestSingle(b *testing.B) {
	keys := benchKeys(1 << 20)
	s := mustNew[uint64](Config{
		Window: benchWindow, Counters: 4096, Tau: benchTau, Seed: 1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(keys[i&(len(keys)-1)])
	}
}

// BenchmarkInstrumentedIngest is BenchmarkIngestSingle with the full
// obs plane attached — registry-backed core instruments (block
// slides, frame flushes, evictions, overflow residency) and a live
// trace ring receiving window-slide events. It should run within 3% of
// the uninstrumented baseline, and CI alloc-gates it at 0 allocs/op:
// instruments ride block granularity, so the per-packet cost is one
// nil compare that this benchmark makes non-nil.
func BenchmarkInstrumentedIngest(b *testing.B) {
	keys := benchKeys(1 << 20)
	s := mustNew[uint64](Config{
		Window: benchWindow, Counters: 4096, Tau: benchTau, Seed: 1,
	})
	reg := obs.NewRegistry()
	trace := obs.NewTrace(256)
	s.Instrument(NewInstruments(reg, trace, "bench"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(keys[i&(len(keys)-1)])
	}
	b.StopTimer()
	if reg.Counter("memento_core_block_slides_total").Load() == 0 && b.N > benchWindow {
		b.Fatal("instruments attached but never fired")
	}
}

// BenchmarkHHHOutputLive measures OutputTo on a live H-Memento, the way
// the network-wide controller queries its sketch: the sparse read plane
// over a view of the live table, with a recycled result buffer. A
// flood from ten /8 subnets makes a few prefixes heavy over a churning
// tail; 64 packets land between queries with the timer stopped, so each
// query reads a table that changed since the last. CI gates 0
// allocs/op.
func BenchmarkHHHOutputLive(b *testing.B) {
	hh := MustNewHHH(HHHConfig{Hierarchy: hierarchy.OneD{}, Window: benchWindow, Counters: 512 * 5, Seed: 2})
	src := rng.New(3)
	packets := make([]hierarchy.Packet, 1<<16)
	for i := range packets {
		packets[i] = hierarchy.Packet{Src: src.Uint32()}
		if src.Intn(10) < 7 {
			packets[i].Src = hierarchy.IPv4(byte(100+src.Intn(10)), byte(src.Intn(256)), byte(src.Intn(256)), byte(src.Intn(256)))
		}
	}
	for i := 0; i < 2*benchWindow; i += len(packets) {
		hh.UpdateBatch(packets)
	}
	var out []HeavyPrefix
	out = hh.OutputTo(0.05, out[:0]) // size the read plane's scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		off := i * 64 & (len(packets) - 1)
		hh.UpdateBatch(packets[off : off+64])
		b.StartTimer()
		out = hh.OutputTo(0.05, out[:0])
	}
	if len(out) == 0 {
		b.Fatal("benchmark vacuous: Output reported nothing")
	}
}

// BenchmarkHHHOutputAdmitAll2D measures OutputTo on a two-dimensional
// H-Memento sized so its compensation exceeds θ·W: every tracked
// prefix is admitted, about 5 900 of them are selected, and the HHH-set
// scan's closest-descendant lists and glb guard carry thousands of
// members instead of steady traffic's few dozen. W = 8 192, V = H,
// δ = 0.001, 800 counters, four windows of 40 % liveStream and 60 %
// uniform {Src, Dst} traffic. CI gates 0 allocs/op.
func BenchmarkHHHOutputAdmitAll2D(b *testing.B) {
	const window, theta = 1 << 13, 0.3
	hh := MustNewHHH(HHHConfig{Hierarchy: hierarchy.TwoD{}, Window: window, Counters: 800, V: 25, Delta: 0.001, Seed: 1})
	src := rng.New(1)
	for i := 0; i < 4*window; i++ {
		p := hierarchy.Packet{Src: src.Uint32(), Dst: src.Uint32()}
		if src.Intn(5) < 2 {
			p = liveStream(src, 2, 0)
		}
		hh.Update(p)
	}
	if theta*float64(hh.EffectiveWindow()) > hh.Compensation() {
		b.Fatalf("benchmark vacuous: θ·W = %v above compensation %v", theta*float64(hh.EffectiveWindow()), hh.Compensation())
	}
	var out []HeavyPrefix
	out = hh.OutputTo(theta, out[:0]) // size the read plane's scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = hh.OutputTo(theta, out[:0])
	}
	b.ReportMetric(float64(len(out)), "selected")
}

// BenchmarkHHHOutputAdmitAll1D is BenchmarkHHHOutputAdmitAll2D in one
// dimension, sized like the sampled fleet's controller sketch: W = 2²⁰,
// 4 096 counters, V = 27, δ = 0.001, four windows of 40 % liveStream
// and 60 % uniform sources, and θ = 0.02, below compensation/W ≈
// 0.031, so every tracked prefix is admitted and about 11 000 are
// selected. It is the Output the controller would run under its ingest
// lock at an admit-everything θ. CI gates 0 allocs/op.
func BenchmarkHHHOutputAdmitAll1D(b *testing.B) {
	const window, theta = 1 << 20, 0.02
	hh := MustNewHHH(HHHConfig{Hierarchy: hierarchy.OneD{}, Window: window, Counters: 4096, V: 27, Delta: 0.001, Seed: 1})
	src := rng.New(1)
	for i := 0; i < 4*window; i++ {
		p := hierarchy.Packet{Src: src.Uint32()}
		if src.Intn(5) < 2 {
			p = liveStream(src, 1, 0)
		}
		hh.Update(p)
	}
	if theta*float64(hh.EffectiveWindow()) > hh.Compensation() {
		b.Fatalf("benchmark vacuous: θ·W = %v above compensation %v", theta*float64(hh.EffectiveWindow()), hh.Compensation())
	}
	var out []HeavyPrefix
	out = hh.OutputTo(theta, out[:0]) // size the read plane's scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = hh.OutputTo(theta, out[:0])
	}
	b.ReportMetric(float64(len(out)), "selected")
}
