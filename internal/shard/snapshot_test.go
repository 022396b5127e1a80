// Tests for the snapshot query plane: lock discipline, equivalence
// with the pre-snapshot lock-per-Bounds implementation, and behavior
// under concurrent ingestion.

package shard

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"memento/internal/core"
	"memento/internal/hhhset"
	"memento/internal/hierarchy"
	"memento/internal/rng"
)

// hammerHHH builds a 4-shard H-Memento loaded with a skewed stream.
// At the default δ its compensation exceeds θ·W for every θ ≤ 0.2.
func hammerHHH(t testing.TB, seed uint64) *HHH { return hammerHHHDelta(t, seed, 0) }

// hammerHHHDelta is hammerHHH at confidence delta; a loose one keeps
// θ·W − compensation positive, the regime where the read plane filters.
func hammerHHHDelta(t testing.TB, seed uint64, delta float64) *HHH {
	t.Helper()
	s := MustNewHHH(HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hierarchy.OneD{}, Window: 1 << 13, Counters: 128 * 5, V: 10, Delta: delta, Seed: seed,
		},
		Shards: 4,
	})
	src := rng.New(seed + 100)
	b := s.NewBatcher(128)
	for i := 0; i < 1<<15; i++ {
		a := uint32(src.Intn(1 << 18))
		if src.Intn(3) > 0 {
			a = uint32(src.Intn(24))
		}
		b.Add(hierarchy.Packet{Src: a})
	}
	b.Flush()
	return s
}

// hammerHHH2D is hammerHHH over the source×destination hierarchy: a
// heavy source pair fanning out, a heavy destination pair fanning in
// and the cells where they cross, so their common ancestors are
// conditioned through glb add-backs. Addresses come from small pools
// (the reference scan is cubic in the number of incomparable selected
// prefixes) and Delta is loose, which keeps θ·W − compensation
// positive at the larger thresholds of a test-sized window; at the
// smaller ones it is negative and the read plane admits everything.
func hammerHHH2D(t testing.TB, seed uint64) *HHH {
	t.Helper()
	s := MustNewHHH(HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hierarchy.TwoD{}, Window: 1 << 14, Counters: 32 * 25, Delta: 0.4, Seed: seed,
		},
		Shards: 4,
	})
	src := rng.New(seed + 100)
	pool := func(net byte) uint32 {
		return hierarchy.IPv4(net+byte(src.Intn(3)), byte(src.Intn(2)), byte(src.Intn(2)), byte(src.Intn(8)))
	}
	b := s.NewBatcher(128)
	for i := 0; i < 3<<13; i++ {
		p := hierarchy.Packet{Src: pool(10), Dst: pool(20)}
		k := src.Intn(4)
		if k == 0 || k == 2 {
			p.Src = hierarchy.IPv4(10, 1, 1, byte(src.Intn(2)))
		}
		if k == 1 || k == 2 {
			p.Dst = hierarchy.IPv4(20, 0, 0, byte(src.Intn(2)))
		}
		b.Add(p)
	}
	b.Flush()
	return s
}

// TestOutputOneLockPassPerShard pins the read-plane lock contract:
// Output, Query and QueryBounds each acquire every shard lock exactly
// once per call, however many candidates and levels the HHH-set
// computation walks. Before the snapshot plane, Output took
// O(candidates × levels × shards) acquisitions.
func TestOutputOneLockPassPerShard(t *testing.T) {
	s := hammerHHH(t, 21)
	probe := new(atomic.Uint64)
	s.readLocks = probe

	out := s.Output(0.01)
	if len(out) == 0 {
		t.Fatal("test vacuous: Output reported nothing")
	}
	if got, want := probe.Load(), uint64(s.Shards()); got != want {
		t.Fatalf("Output acquired %d shard locks, want exactly %d (one per shard)", got, want)
	}

	probe.Store(0)
	_ = s.Query(hierarchy.Prefix{Src: 1, SrcLen: 4})
	if got, want := probe.Load(), uint64(s.Shards()); got != want {
		t.Fatalf("Query acquired %d shard locks, want %d", got, want)
	}

	probe.Store(0)
	_, _ = s.QueryBounds(hierarchy.Prefix{SrcLen: 0})
	if got, want := probe.Load(), uint64(s.Shards()); got != want {
		t.Fatalf("QueryBounds acquired %d shard locks, want %d", got, want)
	}
}

// lockPerBounds reproduces the pre-snapshot read plane for the
// differential test: every Bounds call locks all N shards and
// re-derives each shard's skew correction in place.
type lockPerBounds struct {
	s     *HHH
	total uint64
}

func (e *lockPerBounds) Bounds(p hierarchy.Prefix) (upper, lower float64) {
	for i := range e.s.shards {
		sl := &e.s.shards[i]
		sl.mu.Lock()
		u, l := sl.hh.QueryBounds(p)
		scale := scaleFrom(sl.hh.Sketch().Updates(), sl.hh.EffectiveWindow(), e.total, e.s.window)
		sl.mu.Unlock()
		upper += u * scale
		lower += l * scale
	}
	return upper, lower
}

// legacyScratch recycles the legacy implementation's working state
// across calls, mirroring the outPool the pre-snapshot Output used —
// without it BenchmarkOutputLockPerBounds would pay per-call
// allocations the real pre-change code never paid, overstating the
// snapshot plane's speedup.
type legacyScratch struct {
	cands   []hierarchy.Prefix
	sc      hhhset.Scratch
	entries []hhhset.Entry
}

// legacyOutput is the pre-snapshot Output: candidates gathered under
// per-shard locks, then ComputeInto against the lock-per-Bounds
// merged estimator.
func legacyOutput(s *HHH, theta float64, ls *legacyScratch, dst []core.HeavyPrefix) []core.HeavyPrefix {
	ls.cands = ls.cands[:0]
	for i := range s.shards {
		sl := &s.shards[i]
		sl.mu.Lock()
		ls.cands = sl.hh.Candidates(ls.cands)
		sl.mu.Unlock()
	}
	est := &lockPerBounds{s: s, total: s.Updates()}
	threshold := theta * float64(s.window)
	ls.entries = hhhset.ComputeInto(s.hier, est, ls.cands, threshold, s.comp, &ls.sc, ls.entries[:0])
	for _, e := range ls.entries {
		dst = append(dst, core.HeavyPrefix(e))
	}
	return dst
}

// TestOutputMatchesLockPerBoundsReference is the quiescent
// differential assertion: the snapshot-backed Output must be
// element-for-element equal to the pre-change lock-per-Bounds
// implementation, across thresholds and in one and two dimensions —
// the same prefixes in the same order, with estimates matching up to
// float summation order. The reference scans every tracked prefix
// (hhhset.ComputeInto has no pre-filter), so an unsound sweep or
// ancestor rule shows up as a missing entry.
func TestOutputMatchesLockPerBoundsReference(t *testing.T) {
	const relTol = 1e-9
	close := func(a, b float64) bool {
		diff := math.Abs(a - b)
		return diff <= relTol*math.Max(math.Abs(a), math.Abs(b))
	}
	for _, tc := range []struct {
		name string
		s    *HHH
	}{
		{"1D", hammerHHHDelta(t, 22, 0.25)},
		{"2D", hammerHHH2D(t, 22)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			var ls legacyScratch
			sparse := false
			for _, theta := range []float64{0.002, 0.01, 0.05, 0.2} {
				swept0, admitted0 := s.swept.Load(), s.admitted.Load()
				got := s.Output(theta)
				want := legacyOutput(s, theta, &ls, nil)
				if len(got) != len(want) {
					t.Fatalf("theta=%v: snapshot Output has %d entries, reference %d\n%v\n%v",
						theta, len(got), len(want), got, want)
				}
				for i := range want {
					if got[i].Prefix != want[i].Prefix ||
						!close(got[i].Estimate, want[i].Estimate) ||
						!close(got[i].Conditioned, want[i].Conditioned) {
						t.Fatalf("theta=%v entry %d: snapshot %+v, reference %+v", theta, i, got[i], want[i])
					}
				}
				swept, admitted := s.swept.Load()-swept0, s.admitted.Load()-admitted0
				if len(want) > 0 && admitted < swept/10 {
					sparse = true
				}
			}
			if len(s.Output(0.002)) == 0 {
				t.Fatal("test vacuous: no entries at the loosest threshold")
			}
			if !sparse {
				t.Fatal("test vacuous: no threshold at which the sweep filters and the set is non-empty")
			}
		})
	}
}

// TestReadPlaneUnderIngestion is the -race assertion for the snapshot
// query plane: Output/OutputTo and the sketch-side HeavyHitters/
// Overflowed hammered from several readers while batched writers
// ingest at full rate.
func TestReadPlaneUnderIngestion(t *testing.T) {
	hh := MustNewHHH(HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hierarchy.OneD{}, Window: 1 << 13, Counters: 64 * 5, V: 15, Seed: 23,
		},
		Shards: 4,
	})
	sk := MustNew[uint64](SketchConfig[uint64]{
		Core:   core.Config{Window: 1 << 13, Counters: 256, Tau: 1.0 / 8, Seed: 24},
		Shards: 4,
	})

	const writers = 4
	const perWriter = 1 << 15
	var writerWg, readerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(id int) {
			defer writerWg.Done()
			src := rng.New(uint64(id + 50))
			pb := hh.NewBatcher(128)
			kb := sk.NewBatcher(128)
			for i := 0; i < perWriter; i++ {
				k := uint64(src.Intn(512))
				pb.Add(hierarchy.Packet{Src: uint32(k)})
				kb.Add(k)
			}
			pb.Flush()
			kb.Flush()
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		readerWg.Add(1)
		go func(id int) {
			defer readerWg.Done()
			var out []core.HeavyPrefix
			var items []core.Item[uint64]
			probe := hierarchy.Prefix{Src: uint32(id), SrcLen: 4}
			for {
				select {
				case <-stop:
					return
				default:
				}
				out = hh.OutputTo(0.01, out[:0])
				_ = hh.Query(probe)
				_, _ = hh.QueryBounds(probe)
				items = sk.HeavyHitters(0.01, items[:0])
				sk.Overflowed(func(k uint64, n int32) bool { return true })
				_ = sk.Query(uint64(id))
			}
		}(r)
	}
	writerWg.Wait()
	close(stop)
	readerWg.Wait()
	if got := hh.Updates(); got != writers*perWriter {
		t.Fatalf("hh.Updates() = %d, want %d", got, writers*perWriter)
	}
	if got := sk.Updates(); got != writers*perWriter {
		t.Fatalf("sk.Updates() = %d, want %d", got, writers*perWriter)
	}
}

// TestPartitionPoolCapsRetainedCapacity pins Sketch's pool hygiene:
// after a bursty batch, recycled per-shard sub-buffers above the cap
// are dropped rather than pinned.
func TestPartitionPoolCapsRetainedCapacity(t *testing.T) {
	s := MustNew[uint64](SketchConfig[uint64]{
		Core:   core.Config{Window: 1 << 12, Counters: 64, Seed: 25},
		Shards: 2,
		Hash:   func(k uint64) uint64 { return 0 }, // everything to shard 0
	})
	part := s.pool.Get().(*partition[uint64])
	part.keys[0] = make([]uint64, 0, 4*maxRetainedBatchCap)
	part.hashes[0] = make([]uint64, 0, 4*maxRetainedBatchCap)
	part.keys[1] = make([]uint64, 8, 64)
	part.hashes[1] = make([]uint64, 8, 64)
	s.putPartition(part)
	if part.keys[0] != nil || part.hashes[0] != nil {
		t.Fatalf("oversized sub-buffer retained with cap %d (limit %d)",
			cap(part.keys[0]), maxRetainedBatchCap)
	}
	if cap(part.keys[1]) != 64 || len(part.keys[1]) != 0 {
		t.Fatalf("small sub-buffer not recycled in place: len %d cap %d",
			len(part.keys[1]), cap(part.keys[1]))
	}
}
