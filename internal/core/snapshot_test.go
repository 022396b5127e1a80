package core

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"memento/internal/hierarchy"
	"memento/internal/keyidx"
	"memento/internal/rng"
	"memento/internal/spacesaving"
)

// snapshotConfig is a small but non-degenerate sketch for the
// snapshot tests: several windows of churn, sampling on.
var snapshotConfig = Config{Window: 1 << 12, Counters: 128, Tau: 1.0 / 8, Seed: 11}

// tableReader is the read surface Sketch and Snapshot both promote
// from the one table type.
type tableReader interface {
	Query(uint64) float64
	QueryBounds(uint64) (float64, float64)
	Overflowed(func(uint64, int32) bool)
	OverflowCount(uint64) int32
	OverflowEntries() int
	HeavyHitters(float64, []Item[uint64]) []Item[uint64]
	Slots() int
	Slot(int) spacesaving.Counter[uint64]
	Items() uint64
	BlockCounts() uint64
	Counters() int
	Scale() float64
	EffectiveWindow() int
	Updates() uint64
}

// tableAnswers is everything a tableReader says about keys [0, keys),
// in a form two differently laid-out tables holding the same state
// agree on: slot and table order are normalized away.
type tableAnswers struct {
	Query, Upper, Lower []float64
	OverflowCount       []int32
	Overflowed          map[uint64]int32
	HeavyHitters        []Item[uint64]
	Slots               []spacesaving.Counter[uint64]
	Items, BlockCounts  uint64
	Counters, Window    int
	Scale               float64
	Updates             uint64
}

func readTable(r tableReader, keys uint64) tableAnswers {
	a := tableAnswers{
		Overflowed: map[uint64]int32{},
		Items:      r.Items(), BlockCounts: r.BlockCounts(), Counters: r.Counters(),
		Window: r.EffectiveWindow(), Scale: r.Scale(), Updates: r.Updates(),
	}
	for k := uint64(0); k < keys; k++ {
		u, l := r.QueryBounds(k)
		a.Query = append(a.Query, r.Query(k))
		a.Upper, a.Lower = append(a.Upper, u), append(a.Lower, l)
		a.OverflowCount = append(a.OverflowCount, r.OverflowCount(k))
	}
	r.Overflowed(func(k uint64, n int32) bool { a.Overflowed[k] = n; return true })
	if len(a.Overflowed) != r.OverflowEntries() {
		a.Overflowed = nil // poison: Overflowed and OverflowEntries disagree
	}
	a.HeavyHitters = r.HeavyHitters(0.01, nil)
	slices.SortFunc(a.HeavyHitters, func(x, y Item[uint64]) int { return cmp.Compare(x.Key, y.Key) })
	for i := 0; i < r.Slots(); i++ {
		a.Slots = append(a.Slots, r.Slot(i))
	}
	slices.SortFunc(a.Slots, func(x, y spacesaving.Counter[uint64]) int { return cmp.Compare(x.Key, y.Key) })
	return a
}

// rebuilt assembles cp's state anew through Snapshot.build, the
// validator a decoded record passes through, with both indexes rebuilt
// entry by entry under hash (nil: the keyidx default).
func rebuilt(t testing.TB, cp *Snapshot[uint64], hash func(uint64) uint64) *Snapshot[uint64] {
	t.Helper()
	if hash == nil {
		hash = keyidx.DefaultHasher[uint64]()
	}
	spec := cp.Spec(nil).detached()
	ov := keyidx.MustNewCounts[uint64](max(spec.Overflow.Len(), 1), hash)
	for _, e := range spec.Overflow.Entries() {
		ov.Put(e.Key, e.Val)
	}
	spec.Overflow = ov
	snap := new(Snapshot[uint64])
	if err := snap.build(spec, hash); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestSnapshotMatchesLive pins the snapshot contract: at capture time
// every read the table type defines answers as the live sketch's does,
// and later mutations of the source leave the snapshot untouched. The
// one implementation is checked against three differently built
// tables: an in-process capture (SnapshotInto), a sketch rehydrated
// from a checkpoint (CheckpointInto → RestoreFrom, re-inserted under
// another hasher), and a snapshot assembled from explicit state the
// way a decoded record is (Spec → Snapshot.build, indexes rebuilt entry
// by entry, slabs sized by content).
func TestSnapshotMatchesLive(t *testing.T) {
	for name, hash := range map[string]func(uint64) uint64{
		"default-hashers": nil,
		"shared-hasher":   testHash,
	} {
		t.Run(name, func(t *testing.T) {
			s, err := NewWithHash[uint64](snapshotConfig, hash)
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(12)
			for i := 0; i < 3<<12|777; i++ { // mid-frame, mid-block
				s.Update(uint64(src.Intn(400)))
			}
			const keys = 500
			live := readTable(s, keys)
			if len(live.Overflowed) == 0 || len(live.HeavyHitters) == 0 || len(live.Slots) == 0 {
				t.Fatalf("test vacuous: %d overflow entries, %d heavy hitters, %d slots",
					len(live.Overflowed), len(live.HeavyHitters), len(live.Slots))
			}
			for _, hhit := range live.HeavyHitters {
				if hhit.Estimate != s.Query(hhit.Key) {
					t.Fatalf("heavy hitter %+v, Query %v", hhit, s.Query(hhit.Key))
				}
			}
			liveSlots := make([]spacesaving.Counter[uint64], s.Slots())
			for i := range liveSlots {
				liveSlots[i] = s.Slot(i)
			}

			var snap, cp Snapshot[uint64]
			s.SnapshotInto(&snap)
			s.CheckpointInto(&cp)
			restored, err := NewWithHash[uint64](snapshotConfig, keyidx.DefaultHasher[uint64]())
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.RestoreFrom(&cp); err != nil {
				t.Fatal(err)
			}
			built := rebuilt(t, &cp, hash)

			for i := 0; i < 3<<12; i++ { // mutate the source
				s.Update(uint64(400 + src.Intn(400)))
			}
			if reflect.DeepEqual(readTable(s, keys), live) {
				t.Fatal("test vacuous: mutating the source changed no answer")
			}

			for tag, r := range map[string]tableReader{
				"SnapshotInto": &snap, "CheckpointInto": &cp, "RestoreFrom": restored, "build": built,
			} {
				if got := readTable(r, keys); !reflect.DeepEqual(got, live) {
					t.Errorf("%s diverges from the capture-time live sketch:\n got %+v\nwant %+v", tag, got, live)
				}
			}
			// A capture is a slab copy: slot numbers mean what they meant
			// on the source.
			for i, want := range liveSlots {
				if got := snap.Slot(i); got != want {
					t.Fatalf("SnapshotInto: Slot(%d) = %+v, live %+v", i, got, want)
				}
			}

			// Capturing again into the used snapshot catches B up from its
			// journal. After a burst that overflows and forgets, the result
			// must be the capture a zero snapshot takes, slab for slab — and
			// so after Reset and RestoreFrom too, where only a full copy can
			// be right (the journal records no Flush).
			recapture := func(stage string, burst int) {
				t.Helper()
				s.SnapshotInto(&snap)
				before := s.OverflowEntries()
				for i := 0; i < burst; i++ {
					s.Update(uint64(src.Intn(10)))
				}
				if burst > 0 && s.OverflowEntries() == before {
					t.Fatalf("%s: test vacuous: the burst left B at %d entries", stage, before)
				}
				s.SnapshotInto(&snap)
				var fresh Snapshot[uint64]
				s.SnapshotInto(&fresh)
				if got, want := fmt.Sprintf("%+v", snap.table), fmt.Sprintf("%+v", fresh.table); got != want {
					t.Fatalf("%s: re-capture diverges from a fresh one:\n got %s\nwant %s", stage, got, want)
				}
				if got, want := readTable(&snap, keys), readTable(s, keys); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: re-capture diverges from the live sketch:\n got %+v\nwant %+v", stage, got, want)
				}
			}
			recapture("burst", 512)
			s.SnapshotInto(&snap)
			s.Reset()
			recapture("reset", 0)
			recapture("reset+burst", 512)
			s.SnapshotInto(&snap)
			if err := s.RestoreFrom(&cp); err != nil {
				t.Fatal(err)
			}
			recapture("restore", 0)
			recapture("restore+burst", 512)
		})
	}
}

// sweepCall is one key ForEachAbove hands to fn, with its bounds.
type sweepCall struct {
	Key          uint64
	Upper, Lower float64
}

// sweepReader is what the sweep differential reads of a built table.
type sweepReader interface {
	tableReader
	Monitored(func(spacesaving.Counter[uint64]) bool)
	ForEachAbove(float64, func(uint64, float64, float64) bool) int
	sweptTable() *table[uint64]
}

// sweptTable exposes the table a Sketch or Snapshot embeds to the sweep
// differential.
func (t *table[K]) sweptTable() *table[K] { return t }

// fullSweep is ForEachAbove by its definition, ranging every entry:
// each overflow entry in slab order, then each monitored counter whose
// key has no overflow entry in Iterate's order, judged on its own
// QueryBounds. It stops after stop calls (never, if stop < 0) and
// returns the calls and the entries judged up to there.
func fullSweep(r sweepReader, floor float64, stop int) (calls []sweepCall, swept int) {
	judge := func(k uint64) bool {
		swept++
		if u, l := r.QueryBounds(k); u >= floor {
			calls = append(calls, sweepCall{k, u, l})
		}
		return len(calls) != stop
	}
	r.Overflowed(func(k uint64, _ int32) bool { return judge(k) })
	if len(calls) == stop {
		return calls, swept
	}
	r.Monitored(func(c spacesaving.Counter[uint64]) bool {
		if r.OverflowCount(c.Key) > 0 {
			swept++
			return true
		}
		return judge(c.Key)
	})
	return calls, swept
}

// checkSweep holds r's ForEachAbove to fullSweep call for call — keys,
// bounds and order — and entry count for entry count, at floors on
// every distinct upper bound and one ulp either side, and at ±Inf,
// with and without an early stop; and HeavyHitters to a scan of every
// overflow entry at the thresholds the same bounds give. It reports
// how far some floor that admitted a key took the tier range (see
// sweepReach).
func checkSweep(t *testing.T, tag string, r sweepReader, uppers []float64) (reach sweepReach) {
	t.Helper()
	tb := r.sweptTable()
	floors := []float64{math.Inf(-1), math.Inf(1)}
	for _, u := range slices.Compact(slices.Clone(uppers)) {
		floors = append(floors, math.Nextafter(u, math.Inf(-1)), u, math.Nextafter(u, math.Inf(1)))
	}
	for _, floor := range floors {
		want, wantSwept := fullSweep(r, floor, -1)
		var got []sweepCall
		swept := r.ForEachAbove(floor, func(k uint64, u, l float64) bool {
			got = append(got, sweepCall{k, u, l})
			return true
		})
		if entries := r.OverflowEntries() + r.Slots(); !slices.Equal(got, want) || swept != wantSwept || swept != entries {
			t.Fatalf("%s: floor %v: ForEachAbove swept %d entries (table entries %d) and called\n%v\nfull range swept %d and called\n%v",
				tag, floor, swept, entries, got, wantSwept, want)
		}
		if len(want) == 0 {
			continue
		}
		ranged, lowest := 0, 0
		tb.overflow.ForEachAtLeast(tb.overflowCut(floor), func(int, keyidx.Count[uint64]) bool { ranged++; return true })
		tb.overflow.ForEachAtLeast(4, func(int, keyidx.Count[uint64]) bool { lowest++; return true })
		reach.add(sweepReach{bulk: ranged < tb.overflow.Len(), ladder: ranged < lowest})
		stop := len(want)/2 + 1
		want, wantSwept = fullSweep(r, floor, stop)
		got = got[:0]
		swept = r.ForEachAbove(floor, func(k uint64, u, l float64) bool {
			got = append(got, sweepCall{k, u, l})
			return len(got) != stop
		})
		if !slices.Equal(got, want) || swept != wantSwept {
			t.Fatalf("%s: floor %v, stopped at call %d: ForEachAbove swept %d and called %v; full range swept %d and called %v",
				tag, floor, stop, swept, got, wantSwept, want)
		}
	}
	window := float64(r.EffectiveWindow())
	for _, u := range uppers {
		for _, theta := range []float64{math.Nextafter(u/window, 0), u / window, math.Nextafter(u/window, 1)} {
			var want []Item[uint64]
			r.Overflowed(func(k uint64, _ int32) bool {
				if est := r.Query(k); est >= theta*window {
					want = append(want, Item[uint64]{Key: k, Estimate: est})
				}
				return true
			})
			if got := r.HeavyHitters(theta, nil); !slices.Equal(got, want) {
				t.Fatalf("%s: HeavyHitters(%v) = %v, scan of B %v", tag, theta, got, want)
			}
		}
	}
	return reach
}

// sweepReach records what the sweeps of a test put to the test: bulk,
// that some floor passed overflow entries over, and ladder, that some
// floor ranged fewer entries than B's lowest tier rung (b ≥ 4) holds.
type sweepReach struct{ bulk, ladder bool }

func (r *sweepReach) add(o sweepReach) {
	r.bulk = r.bulk || o.bulk
	r.ladder = r.ladder || o.ladder
}

// checkSnapshotAgainstLive captures s and holds every read the merged
// query plane makes of the capture — Query, trackedBoundsH, ForEachAbove
// — to the live sketch's own answers, and ForEachAbove and
// HeavyHitters on the capture, on a sketch restored from its checkpoint
// and on a snapshot built from its state to their full-range definitions. It
// returns how many keys the sketch tracks and how far the sweeps took
// the tier range (see sweepReach).
func checkSnapshotAgainstLive(t *testing.T, tag string, s *Sketch[uint64], keys uint64) (int, sweepReach) {
	t.Helper()
	var snap, cp Snapshot[uint64]
	s.SnapshotInto(&snap)
	s.CheckpointInto(&cp)
	restored := mustNew[uint64](Config{Window: s.EffectiveWindow(), Counters: s.Counters(), Tau: s.Tau()})
	if err := restored.RestoreFrom(&cp); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	built := rebuilt(t, &cp, nil)
	// entries counts table entries, so a key both overflowed and
	// monitored counts twice — what ForEachAbove reports as swept.
	tracked, entries := map[uint64]bool{}, s.Slots()
	s.Overflowed(func(k uint64, _ int32) bool { tracked[k] = true; entries++; return true })
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
		tu, tl, ok := snap.trackedBoundsH(k, snap.hash(k))
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
	// The full-range reference itself: on the capture it visits what it
	// visits live, every tracked key once at -Inf and none at +Inf.
	for floor, visits := range map[float64]int{math.Inf(-1): len(tracked), math.Inf(1): 0} {
		want, swept := fullSweep(s, floor, -1)
		got, snapSwept := fullSweep(&snap, floor, -1)
		if !slices.Equal(got, want) || len(got) != visits || swept != entries || snapSwept != entries {
			t.Fatalf("%s: floor %v: capture's full range %v (%d entries), live %v (%d; table entries %d, %d tracked keys)",
				tag, floor, got, snapSwept, want, swept, entries, len(tracked))
		}
	}
	var reach sweepReach
	for name, r := range map[string]sweepReader{"SnapshotInto": &snap, "RestoreFrom": restored, "build": built} {
		reach.add(checkSweep(t, tag+"/"+name, r, uppers))
	}
	return len(tracked), reach
}

// TestSnapshotDifferentialAcrossResetAndRestore runs that differential
// at every stage of a sketch's life: loaded, emptied by Reset, loaded
// again, rehydrated from an earlier checkpoint, sliding on from it, and
// under an elephant heavy enough to reach B's top tier rung.
func TestSnapshotDifferentialAcrossResetAndRestore(t *testing.T) {
	var tiered sweepReach
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
			n, reach := checkSnapshotAgainstLive(t, name+"/loaded", s, keys)
			if n == 0 || s.OverflowEntries() == 0 {
				t.Fatalf("%s tau=%v: test vacuous: %d tracked keys, %d overflow entries", name, tau, n, s.OverflowEntries())
			}
			tiered.add(reach)
			var cp Snapshot[uint64]
			s.CheckpointInto(&cp)

			s.Reset()
			if n, _ := checkSnapshotAgainstLive(t, name+"/reset", s, keys); n != 0 {
				t.Fatalf("%s tau=%v: %d keys tracked after Reset", name, tau, n)
			}
			feed(1 << 12)
			_, reach = checkSnapshotAgainstLive(t, name+"/reloaded", s, keys)
			tiered.add(reach)

			if err := s.RestoreFrom(&cp); err != nil {
				t.Fatal(err)
			}
			_, reach = checkSnapshotAgainstLive(t, name+"/restored", s, keys)
			tiered.add(reach)
			for k := uint64(0); k < keys; k++ { // and the restored sketch is the checkpoint
				if got, want := s.Query(k), cp.Query(k); got != want {
					t.Fatalf("%s tau=%v: restored Query(%d) = %v, checkpoint %v", name, tau, k, got, want)
				}
			}
			feed(2 << 12)
			_, reach = checkSnapshotAgainstLive(t, name+"/sliding", s, keys)
			tiered.add(reach)
			if s.ForcedDrains() != 0 {
				t.Fatalf("%s tau=%v: %d forced drains after restore", name, tau, s.ForcedDrains())
			}

			// An elephant takes half the stream: its overflows climb past
			// every rung while the heavy keys' stay near the lowest.
			for i := 0; i < 1<<12; i++ {
				s.Update(keys - 1)
				feed(1)
			}
			_, reach = checkSnapshotAgainstLive(t, name+"/elephant", s, keys)
			tiered.add(reach)
		}
	}
	if !tiered.bulk {
		t.Fatal("test vacuous: no sweep took the overflow tier past a lighter entry")
	}
	if !tiered.ladder {
		t.Fatal("test vacuous: no sweep ranged a tier rung above the lowest")
	}
}

// TestSnapshotIntoZeroAlloc asserts a reused Snapshot captures
// without allocating — the property the pooled shard query plane
// relies on.
func TestSnapshotIntoZeroAlloc(t *testing.T) {
	s := mustNew[uint64](snapshotConfig)
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

// TestSharedHasherQueryEquivalent pins that the hasher changes only
// table layout, never estimates: two sketches fed identically, one
// under New's default hasher and one under a caller-supplied function,
// answer alike.
func TestSharedHasherQueryEquivalent(t *testing.T) {
	bare := mustNew[uint64](snapshotConfig)
	shared, err := NewWithHash[uint64](snapshotConfig, testHash)
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
// the HHH set of a snapshot equals the live Output element for
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
	got := outputOf(&snap, 0.02)
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
