package core

import (
	"math"
	"slices"
	"testing"

	"memento/internal/hierarchy"
	"memento/internal/keyidx"
	"memento/internal/rng"
)

// snapshotConfig is a small but non-degenerate sketch for the
// snapshot tests: several windows of churn, sampling on.
var snapshotConfig = Config{Window: 1 << 12, Counters: 128, Tau: 1.0 / 8, Seed: 11}

// TestSnapshotMatchesLive pins the snapshot contract: at capture time
// every query answer equals the live sketch's, and later mutations of
// the source leave the snapshot untouched.
func TestSnapshotMatchesLive(t *testing.T) {
	for name, hash := range map[string]func(uint64) uint64{
		"default-hashers": nil,
		"shared-hasher":   keyidx.DefaultHasher[uint64](),
	} {
		t.Run(name, func(t *testing.T) {
			s, err := NewWithHash[uint64](snapshotConfig, hash)
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(12)
			for i := 0; i < 3<<12; i++ {
				s.Update(uint64(src.Intn(400)))
			}
			var snap Snapshot[uint64]
			s.SnapshotInto(&snap)

			if snap.Updates() != s.Updates() || snap.EffectiveWindow() != s.EffectiveWindow() || snap.Scale() != s.Scale() {
				t.Fatalf("snapshot scalars diverge: updates %d/%d window %d/%d scale %v/%v",
					snap.Updates(), s.Updates(), snap.EffectiveWindow(), s.EffectiveWindow(),
					snap.Scale(), s.Scale())
			}
			type bounds struct{ q, u, l float64 }
			frozen := map[uint64]bounds{}
			for k := uint64(0); k < 500; k++ {
				u, l := s.QueryBounds(k)
				frozen[k] = bounds{q: s.Query(k), u: u, l: l}
			}
			liveOverflow := map[uint64]int32{}
			s.Overflowed(func(k uint64, n int32) bool { liveOverflow[k] = n; return true })
			liveHH := s.HeavyHitters(0.01, nil)

			for i := 0; i < 3<<12; i++ { // mutate the source
				s.Update(uint64(400 + src.Intn(400)))
			}

			for k, want := range frozen {
				u, l := snap.QueryBounds(k)
				if got := snap.Query(k); got != want.q || u != want.u || l != want.l {
					t.Fatalf("key %d: snapshot (%v, %v, %v) != capture-time live (%v, %v, %v)",
						k, got, u, l, want.q, want.u, want.l)
				}
			}
			snapOverflow := map[uint64]int32{}
			snap.Overflowed(func(k uint64, n int32) bool { snapOverflow[k] = n; return true })
			if len(snapOverflow) != len(liveOverflow) {
				t.Fatalf("snapshot overflow table has %d keys, capture-time live had %d",
					len(snapOverflow), len(liveOverflow))
			}
			for k, n := range liveOverflow {
				if snapOverflow[k] != n {
					t.Fatalf("overflow[%d] = %d in snapshot, %d live", k, snapOverflow[k], n)
				}
			}
			snapHH := snap.HeavyHitters(0.01, nil)
			if len(snapHH) != len(liveHH) {
				t.Fatalf("snapshot reports %d heavy hitters, capture-time live %d", len(snapHH), len(liveHH))
			}
			for i := range liveHH {
				if snapHH[i] != liveHH[i] || snapHH[i].Estimate != snap.Query(snapHH[i].Key) {
					t.Fatalf("heavy hitter %d: snapshot %+v, live %+v, snapshot Query %v",
						i, snapHH[i], liveHH[i], snap.Query(snapHH[i].Key))
				}
			}
		})
	}
}

// checkSnapshotAgainstLive captures s and holds every read the merged
// query plane makes of the capture — Query, TrackedBounds, ForEachAbove
// — to the live sketch's own answers. It returns how many keys the
// sketch tracks.
func checkSnapshotAgainstLive(t *testing.T, tag string, s *Sketch[uint64], keys uint64) int {
	t.Helper()
	var snap Snapshot[uint64]
	s.SnapshotInto(&snap)
	tracked := map[uint64]bool{}
	s.Overflowed(func(k uint64, _ int32) bool { tracked[k] = true; return true })
	for i := 0; i < s.Slots(); i++ {
		tracked[s.Slot(i).Key] = true
	}
	au, al := snap.AbsentBounds()
	var uppers []float64
	for k := uint64(0); k < keys; k++ {
		u, l := s.QueryBounds(k)
		if got := snap.Query(k); got != s.Query(k) {
			t.Fatalf("%s: Query(%d) = %v, live %v", tag, k, got, s.Query(k))
		}
		tu, tl, ok := snap.TrackedBounds(k)
		switch {
		case ok != tracked[k]:
			t.Fatalf("%s: TrackedBounds(%d) tracked=%v, live state %v", tag, k, ok, tracked[k])
		case ok && (tu != u || tl != l):
			t.Fatalf("%s: TrackedBounds(%d) = (%v, %v), live (%v, %v)", tag, k, tu, tl, u, l)
		case !ok && (u != au || l != al):
			t.Fatalf("%s: untracked key %d has live bounds (%v, %v), AbsentBounds (%v, %v)", tag, k, u, l, au, al)
		}
		if ok {
			uppers = append(uppers, u)
		}
	}
	if len(uppers) != len(tracked) {
		t.Fatalf("%s: probed %d tracked keys of %d — widen the key range", tag, len(uppers), len(tracked))
	}
	slices.Sort(uppers)
	floors := []float64{math.Inf(-1), math.Inf(1)}
	if n := len(uppers); n > 0 {
		floors = append(floors, uppers[0], uppers[n/2], uppers[n-1], uppers[n-1]+1)
	}
	for _, floor := range floors {
		want := 0
		for _, u := range uppers {
			if u >= floor {
				want++
			}
		}
		visited := map[uint64]bool{}
		swept := snap.ForEachAbove(floor, func(k uint64, u, l float64) bool {
			if visited[k] {
				t.Fatalf("%s: floor %v: key %d visited twice", tag, floor, k)
			}
			visited[k] = true
			if lu, ll := s.QueryBounds(k); u != lu || l != ll || u < floor {
				t.Fatalf("%s: floor %v: key %d reported (%v, %v), live (%v, %v)", tag, floor, k, u, l, lu, ll)
			}
			return true
		})
		if len(visited) != want || swept != len(tracked) {
			t.Fatalf("%s: floor %v: visited %d keys (want %d), swept %d (tracked %d)",
				tag, floor, len(visited), want, swept, len(tracked))
		}
	}
	return len(tracked)
}

// TestSnapshotDifferentialAcrossResetAndRestore runs that differential
// at every stage of a sketch's life: loaded, emptied by Reset, loaded
// again, rehydrated from an earlier checkpoint, and sliding on from it.
func TestSnapshotDifferentialAcrossResetAndRestore(t *testing.T) {
	for name, hash := range map[string]func(uint64) uint64{
		"default-hashers": nil,
		"shared-hasher":   keyidx.DefaultHasher[uint64](),
	} {
		for _, tau := range []float64{1, 1.0 / 8} {
			cfg := snapshotConfig
			cfg.Tau = tau
			s, err := NewWithHash[uint64](cfg, hash)
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(18)
			const keys = 600
			feed := func(n int) {
				for i := 0; i < n; i++ {
					k := uint64(src.Intn(keys))
					if src.Intn(3) > 0 {
						k = uint64(src.Intn(12)) // heavy keys
					}
					s.Update(k)
				}
			}
			feed(3 << 12)
			if n := checkSnapshotAgainstLive(t, name+"/loaded", s, keys); n == 0 || s.OverflowEntries() == 0 {
				t.Fatalf("%s tau=%v: test vacuous: %d tracked keys, %d overflow entries", name, tau, n, s.OverflowEntries())
			}
			var cp Snapshot[uint64]
			s.CheckpointInto(&cp)

			s.Reset()
			if n := checkSnapshotAgainstLive(t, name+"/reset", s, keys); n != 0 {
				t.Fatalf("%s tau=%v: %d keys tracked after Reset", name, tau, n)
			}
			feed(1 << 12)
			checkSnapshotAgainstLive(t, name+"/reloaded", s, keys)

			if err := s.RestoreFrom(&cp); err != nil {
				t.Fatal(err)
			}
			checkSnapshotAgainstLive(t, name+"/restored", s, keys)
			for k := uint64(0); k < keys; k++ { // and the restored sketch is the checkpoint
				if got, want := s.Query(k), cp.Query(k); got != want {
					t.Fatalf("%s tau=%v: restored Query(%d) = %v, checkpoint %v", name, tau, k, got, want)
				}
			}
			feed(2 << 12)
			checkSnapshotAgainstLive(t, name+"/sliding", s, keys)
			if s.ForcedDrains() != 0 {
				t.Fatalf("%s tau=%v: %d forced drains after restore", name, tau, s.ForcedDrains())
			}
		}
	}
}

// TestSnapshotIntoZeroAlloc asserts a reused Snapshot captures
// without allocating — the property the pooled shard query plane
// relies on.
func TestSnapshotIntoZeroAlloc(t *testing.T) {
	s := MustNew[uint64](snapshotConfig)
	src := rng.New(13)
	for i := 0; i < 3<<12; i++ {
		s.Update(uint64(src.Intn(300)))
	}
	var snap Snapshot[uint64]
	s.SnapshotInto(&snap) // size the buffers
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		s.Update(uint64(src.Intn(300))) // keep the source moving
		s.SnapshotInto(&snap)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state SnapshotInto allocs/op = %v, want 0", allocs)
	}
}

// TestUpdateBatchHashedEquivalent pins that carrying precomputed
// hashes through the batched path changes nothing: same Full-update
// point process, same estimates.
func TestUpdateBatchHashedEquivalent(t *testing.T) {
	hash := keyidx.DefaultHasher[uint64]()
	mk := func() *Sketch[uint64] {
		s, err := NewWithHash[uint64](snapshotConfig, hash)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	plain, hashed := mk(), mk()
	src := rng.New(14)
	batch := make([]uint64, 0, 200)
	hs := make([]uint64, 0, 200)
	for round := 0; round < 200; round++ {
		batch = batch[:0]
		hs = hs[:0]
		n := 1 + src.Intn(cap(batch))
		for i := 0; i < n; i++ {
			k := uint64(src.Intn(350))
			batch = append(batch, k)
			hs = append(hs, hash(k))
		}
		plain.UpdateBatch(batch)
		hashed.UpdateBatchHashed(batch, hs)
	}
	if plain.FullUpdates() != hashed.FullUpdates() || plain.Updates() != hashed.Updates() {
		t.Fatalf("diverged: %d/%d full updates, %d/%d updates",
			plain.FullUpdates(), hashed.FullUpdates(), plain.Updates(), hashed.Updates())
	}
	for k := uint64(0); k < 350; k++ {
		if plain.Query(k) != hashed.Query(k) {
			t.Fatalf("Query(%d) = %v plain, %v hashed", k, plain.Query(k), hashed.Query(k))
		}
	}
}

// TestSharedHasherQueryEquivalent pins that a shared hasher changes
// only table layout, never estimates: two sketches fed identically,
// one with and one without a construction hasher, answer alike.
func TestSharedHasherQueryEquivalent(t *testing.T) {
	bare := MustNew[uint64](snapshotConfig)
	shared, err := NewWithHash[uint64](snapshotConfig, keyidx.DefaultHasher[uint64]())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(15)
	for i := 0; i < 3<<12; i++ {
		k := uint64(src.Intn(300))
		bare.Update(k)
		shared.Update(k)
	}
	for k := uint64(0); k < 300; k++ {
		if bare.Query(k) != shared.Query(k) {
			t.Fatalf("Query(%d) = %v bare, %v shared-hasher", k, bare.Query(k), shared.Query(k))
		}
		bu, bl := bare.QueryBounds(k)
		su, sl := shared.QueryBounds(k)
		if bu != su || bl != sl {
			t.Fatalf("QueryBounds(%d) = (%v, %v) bare, (%v, %v) shared", k, bu, bl, su, sl)
		}
	}
}

// TestHHHSnapshotOutputMatchesLive pins the hierarchical snapshot:
// OutputTo from a snapshot equals the live Output element for
// element, and candidate sets agree.
func TestHHHSnapshotOutputMatchesLive(t *testing.T) {
	hier := hierarchy.OneD{}
	hh := MustNewHHH(HHHConfig{
		Hierarchy: hier, Window: 1 << 12, Counters: 256 * 5, V: 10, Seed: 16,
	})
	src := rng.New(17)
	for i := 0; i < 1<<14; i++ {
		a := uint32(src.Intn(1 << 16))
		if src.Intn(3) > 0 {
			a = uint32(src.Intn(6))
		}
		hh.Update(hierarchy.Packet{Src: a})
	}
	var snap HHHSnapshot
	hh.SnapshotInto(&snap)

	live := hh.Output(0.02)
	for i := 0; i < 1<<12; i++ { // mutate the source
		hh.Update(hierarchy.Packet{Src: uint32(1 << 20)})
	}
	got := snap.OutputTo(0.02, nil)
	if len(got) != len(live) {
		t.Fatalf("snapshot output has %d entries, capture-time live %d:\n%v\n%v",
			len(got), len(live), got, live)
	}
	for i := range live {
		if got[i] != live[i] {
			t.Fatalf("entry %d: snapshot %+v, live %+v", i, got[i], live[i])
		}
	}
	if len(live) == 0 {
		t.Fatal("test vacuous: no heavy prefixes reported")
	}
}
