package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"memento/internal/audit"
	"memento/internal/core"
	"memento/internal/hierarchy"
	"memento/internal/rng"
)

const benchWindow = 1 << 18

// benchPackets is a mildly skewed 1D source stream for the H-Memento
// batcher benchmarks (power-of-two length for cheap wraparound
// indexing).
func benchPackets(n int) []hierarchy.Packet {
	src := rng.New(8)
	ps := make([]hierarchy.Packet, n)
	for i := range ps {
		a := uint32(src.Intn(1 << 8))
		if src.Intn(4) == 0 {
			a = uint32(1<<8 + src.Intn(1<<16))
		}
		ps[i] = hierarchy.Packet{Src: a}
	}
	return ps
}

// benchAuditSalt seeds the benchmarks' audit sampling hash. Source 226,
// one of benchPackets' 256 heavy sources and its second packet, hashes
// into the 2^-10 sample under it, so BenchmarkAuditedIngest's oracle
// samples at every b.N > 1; under a random salt few of the stream's
// keys are sampled and a short run could sample none.
const benchAuditSalt = 160

// benchIngestHHH builds the 4-shard H-Memento the batcher ingest
// benchmarks drive, with the seeded audit sampling hash.
func benchIngestHHH() *HHH {
	hier := hierarchy.OneD{}
	ph := hierarchy.PrefixHasher(benchAuditSalt)
	return mustNewHHH(HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hier, Window: benchWindow, Counters: 512 * 5, V: 20, Seed: 6,
		},
		Shards: 4,
		Hash:   func(p hierarchy.Packet) uint64 { return ph(hier.Fully(p)) },
	})
}

// BenchmarkHHHIngestBatched is the bare packet-batcher baseline the
// audited ingest is compared against (acceptance: within 3%). CI
// alloc-gates it at 0 allocs/op.
func BenchmarkHHHIngestBatched(b *testing.B) {
	pkts := benchPackets(1 << 20)
	s := benchIngestHHH()
	bt := s.NewBatcher(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Add(pkts[i&(len(pkts)-1)])
	}
	bt.Flush()
}

// BenchmarkHHHIngestParallel is BenchmarkHHHIngestBatched from
// GOMAXPROCS producers, one PacketBatcher each: the contended path,
// where each producer deals to its own allotment of shards once the
// first epoch (benchWindow dealt packets) has closed, and a full
// buffer skips to the next free shard instead of waiting. CI
// alloc-gates it at 0 allocs/op over at least two epochs, so neither
// dealing nor re-deriving the allotments allocates however the
// producers collide; it fails if a run that long closed fewer.
func BenchmarkHHHIngestParallel(b *testing.B) {
	pkts := benchPackets(1 << 20)
	s := benchIngestHHH()
	var start atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		bt := s.NewBatcher(256)
		i := int(start.Add(1)) * len(pkts) / 4 // out of phase with the others
		for pb.Next() {
			bt.Add(pkts[i&(len(pkts)-1)])
			i++
		}
		bt.Flush()
	})
	b.StopTimer()
	epochs := s.dealing.epoch.Load()
	if b.N >= 2*s.EffectiveWindow() && epochs < 2 {
		b.Fatalf("benchmark vacuous: %d packets closed %d epochs, want at least 2", b.N, epochs)
	}
	b.ReportMetric(float64(epochs), "epochs")
}

// BenchmarkAuditedIngest is BenchmarkHHHIngestBatched with the
// accuracy-plane tee attached: every packet advances the shadow
// oracle's window position and sampled keys stage for the amortized
// exact-count apply. The audited Flush hashes each packet once, with
// the instance's sampling hash (an unaudited batcher hashes nothing),
// and the unsampled fast path — one position increment and one mask
// test — inlines into its tee loop. CI alloc-gates this at 0
// allocs/op.
func BenchmarkAuditedIngest(b *testing.B) {
	pkts := benchPackets(1 << 20)
	s := benchIngestHHH()
	a, err := audit.New(audit.Config{
		Hier:        hierarchy.OneD{},
		Window:      s.EffectiveWindow(),
		SampleShift: 10,
		Seed:        9,
	})
	if err != nil {
		b.Fatal(err)
	}
	bt := s.NewBatcher(256)
	bt.Audit(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Add(pkts[i&(len(pkts)-1)])
	}
	bt.Flush()
	a.Flush()
	b.StopTimer()
	if b.N > 1<<10 && a.Sampled() == 0 {
		b.Fatal("benchmark vacuous: the oracle sampled nothing")
	}
}

// benchHHH builds the 4-shard H-Memento the Output benchmarks run
// against, warmed with a skewed stream so the candidate set is
// realistic.
func benchHHH(tb testing.TB) *HHH {
	s := mustNewHHH(HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hierarchy.OneD{}, Window: benchWindow, Counters: 512 * 5, V: 20, Seed: 6,
		},
		Shards: 4,
	})
	src := rng.New(7)
	bt := s.NewBatcher(256)
	for i := 0; i < 1<<20; i++ {
		a := uint32(src.Intn(1 << 20))
		if src.Intn(3) > 0 {
			a = uint32(src.Intn(64))
		}
		bt.Add(hierarchy.Packet{Src: a})
	}
	bt.Flush()
	return s
}

// BenchmarkOutputSteadyState measures the snapshot-backed HHH output:
// one lock pass per shard, lock-free set computation, and (CI-gated)
// zero steady-state allocations via OutputTo with a recycled buffer.
func BenchmarkOutputSteadyState(b *testing.B) {
	s := benchHHH(b)
	var out []core.HeavyPrefix
	out = s.OutputTo(0.1, out[:0]) // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = s.OutputTo(0.1, out[:0])
	}
	if len(out) == 0 {
		b.Fatal("benchmark vacuous: Output reported nothing")
	}
}

// benchHHH2D builds the benchmark's dev2d-query geometry (TwoD, V = H,
// 256·H counters, 4 shards) at a CI-sized window, warmed with two
// windows of background traffic carrying a flood from ten /8 source
// subnets, so a few dozen of the ≈ 87 000 tracked prefixes (4 shards ×
// ≈ 21 800) are heavy.
func benchHHH2D(tb testing.TB) *HHH {
	s := mustNewHHH(HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hierarchy.TwoD{}, Window: benchWindow, Counters: 256 * 25, Seed: 6,
		},
		Shards: 4,
	})
	src := rng.New(7)
	bt := s.NewBatcher(256)
	for i := 0; i < 2*benchWindow; i++ {
		bt.Add(bench2DPacket(src))
	}
	bt.Flush()
	return s
}

// bench2DPacket draws one packet of benchHHH2D's stream: background
// traffic, seven in ten packets from the ten flooding /8 subnets.
func bench2DPacket(src *rng.Source) hierarchy.Packet {
	p := hierarchy.Packet{Src: uint32(src.Intn(1 << 32)), Dst: uint32(src.Intn(1 << 32))}
	if src.Intn(10) < 7 {
		p.Src = hierarchy.IPv4(byte(100+src.Intn(10)), byte(src.Intn(256)), byte(src.Intn(256)), byte(src.Intn(256)))
		p.Dst = hierarchy.IPv4(20, 2, 2, byte(src.Intn(4)))
	}
	return p
}

// BenchmarkOutputSteadyState2D is BenchmarkOutputSteadyState over the
// two-dimensional hierarchy, CI-gated at zero allocations like it: the
// read plane's scratch is sized by the heavy prefixes, not the tracked
// ones, so it stays under maxRetainedQueryCap and the pool keeps it.
// Nothing is ingested between queries, so every capture finds the
// overflow tables unchanged and replays nothing: this times the Space
// Saving copy, phase 1 (each shard's B heavy tier and the top of its
// Space Saving buckets, not every entry) and the HHH-set computation,
// not B's capture (BenchmarkSnapshotCapture2DIngest times that).
func BenchmarkOutputSteadyState2D(b *testing.B) {
	s := benchHHH2D(b)
	var out []core.HeavyPrefix
	out = s.OutputTo(0.1, out[:0]) // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = s.OutputTo(0.1, out[:0])
	}
	if len(out) == 0 {
		b.Fatal("benchmark vacuous: Output reported nothing")
	}
}

// BenchmarkSnapshotCapture2D is the capture alone on the same
// instance: one lock pass copying every shard's queryable state into a
// pooled query — the part of OutputTo that holds the shard locks, and
// so what a query costs ingest. Nothing is ingested between captures,
// so each shard's overflow table replays no journal entries and its
// Space Saving, unchanged since the destination's last copy, copies only
// its scalars: an unchanged capture copies no slab. CI-gated at zero
// allocations.
func BenchmarkSnapshotCapture2D(b *testing.B) {
	s := benchHHH2D(b)
	q := s.getQuery()
	s.snapshotAll(q) // size the slabs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.snapshotAll(q)
	}
	b.StopTimer()
	tracked := 0
	for i := range q.shards {
		tracked += q.shards[i].Sketch().TrackedKeys()
	}
	if tracked == 0 {
		b.Fatal("benchmark vacuous: nothing captured")
	}
	b.ReportMetric(float64(tracked), "keys")
	s.putQuery(q)
}

// BenchmarkSnapshotCapture2DIngest is BenchmarkSnapshotCapture2D with
// dev2d-query's ingest between captures: 125 packets added before each
// one, about what its 0.5 Mpkt/s producer deals per query at ≈ 4 000
// queries a second, through a 256-packet batcher that deals each full
// batch to one shard. So a shard has taken a batch since its last
// capture about once in eight captures: then its overflow table
// replays the keys it overflowed and forgot from its journal and its
// Space Saving copies its slabs; otherwise both copy nothing. Only the
// capture is timed. CI-gated at zero allocations.
func BenchmarkSnapshotCapture2DIngest(b *testing.B) {
	s := benchHHH2D(b)
	src := rng.New(9)
	pkts := make([]hierarchy.Packet, 1<<16)
	for i := range pkts {
		pkts[i] = bench2DPacket(src)
	}
	bt := s.NewBatcher(256)
	q := s.getQuery()
	s.snapshotAll(q) // size the slabs
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for range 125 {
			bt.Add(pkts[next&(len(pkts)-1)])
			next++
		}
		b.StartTimer()
		s.snapshotAll(q)
	}
	b.StopTimer()
	s.putQuery(q)
}

// BenchmarkOutputLockPerBounds measures the pre-snapshot
// implementation (every Bounds call locking all shards) on the same
// instance, so a speedup comparison is reproducible in-tree against
// BenchmarkOutputSteadyState. It understates the true pre-change
// cost: it necessarily runs through the new hhhset scan (cached
// bounds, 1D cover bits), which the actual PR 2 Output did not have —
// benchmarked at the pre-change commit, the real Output is ~2x slower
// still on this workload (~980us vs ~530us here, ~180us snapshot).
func BenchmarkOutputLockPerBounds(b *testing.B) {
	s := benchHHH(b)
	var out []core.HeavyPrefix
	var ls legacyScratch
	out = legacyOutput(s, 0.1, &ls, out[:0]) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = legacyOutput(s, 0.1, &ls, out[:0])
	}
	if len(out) == 0 {
		b.Fatal("benchmark vacuous: Output reported nothing")
	}
}

// BenchmarkOutputUnderIngestion is the contended variant: GOMAXPROCS-1
// writer goroutines ingest through PacketBatchers while the benchmark
// goroutine queries, approximating a monitoring probe against a
// loaded collector.
func BenchmarkOutputUnderIngestion(b *testing.B) {
	s := benchHHH(b)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	writers := runtime.GOMAXPROCS(0) - 1
	if writers < 1 {
		writers = 1
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			src := rng.New(uint64(id + 60))
			bt := s.NewBatcher(256)
			for {
				select {
				case <-stop:
					bt.Flush()
					return
				default:
				}
				for i := 0; i < 1024; i++ {
					bt.Add(hierarchy.Packet{Src: uint32(src.Intn(1 << 18))})
				}
			}
		}(w)
	}
	var out []core.HeavyPrefix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = s.OutputTo(0.1, out[:0])
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
