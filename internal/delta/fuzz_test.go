package delta

import (
	"testing"

	"memento/internal/codec"
	"memento/internal/hierarchy"
	"memento/internal/spacesaving"
)

// FuzzApplyDeltaChain pins the follower's decode contract: arbitrary
// bytes applied to a fresh state, and to a state mid-chain, must never
// panic, never allocate beyond the record size, and only ever fail
// with the typed errors. After every accepted record the live replica
// must hold the sketch's invariants and answer like its canonical
// copy.
func FuzzApplyDeltaChain(f *testing.F) {
	// Seed with real chain records: a base, a delta with entries, and
	// a restore-plane pair.
	hh := newHHH(f, 1<<10, 32, 23)
	tr, err := NewTracker(hh, TrackerConfig{Chain: 77})
	if err != nil {
		f.Fatal(err)
	}
	hh.UpdateBatch(skewedPackets(600, 1))
	base, _, err := tr.Append(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(base)
	hh.UpdateBatch(skewedPackets(600, 2))
	delta, _, err := tr.Append(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(delta)
	rhh := newHHH(f, 1<<10, 32, 29)
	rtr, err := NewTracker(rhh, TrackerConfig{Chain: 78, Restore: true})
	if err != nil {
		f.Fatal(err)
	}
	rhh.UpdateBatch(skewedPackets(600, 3))
	rbase, _, err := rtr.Append(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rbase)
	rhh.UpdateBatch(skewedPackets(600, 4))
	rdelta, _, err := rtr.Append(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rdelta)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > codec.MaxRecord {
			t.Skip()
		}
		// Fresh follower: only a valid base can apply, and the replica
		// it installs went through the strict snapshot decoder.
		st := NewState()
		if err := st.Apply(data); err == nil {
			checkReplica(t, "fresh", st)
		}
		// Follower mid-chain: the fuzzed record lands on a real base,
		// then on the replica that base's delta patched. A crafted
		// delta that would break an invariant of the replica (more
		// monitored entries than the counter budget, say) must be
		// refused before it writes, and an accepted one must leave a
		// replica that answers like its canonical copy.
		for _, chain := range [][2][]byte{{base, delta}, {rbase, rdelta}} {
			st2 := NewState()
			for _, rec := range [][]byte{chain[0], data, chain[1], data} {
				if err := st2.Apply(rec); err == nil {
					checkReplica(t, "mid-chain", st2)
				}
			}
		}
	})
}

// checkReplica fails unless the follower's live replica holds every
// sketch invariant — at most the base's budget of monitored counters,
// each error term below its count, Space Saving's buckets strictly
// ascending with an index consistent with the slab — and answers
// QueryBounds and the HHH set exactly as the canonical copy does.
func checkReplica(t *testing.T, tag string, st *State) {
	t.Helper()
	rep := st.Replica()
	mem := rep.Sketch()
	if err := mem.Validate(); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if mem.Slots() > mem.Counters() {
		t.Fatalf("%s: %d monitored counters, budget %d", tag, mem.Slots(), mem.Counters())
	}
	var probes []hierarchy.Prefix
	mem.Monitored(func(c spacesaving.Counter[hierarchy.Prefix]) bool {
		if c.Err >= c.Count {
			t.Fatalf("%s: counter %+v: error not below count", tag, c)
		}
		probes = append(probes, c.Key)
		return true
	})
	mem.Overflowed(func(key hierarchy.Prefix, _ int32) bool {
		probes = append(probes, key)
		return true
	})
	probes = append(probes, hierarchy.Prefix{Src: 0xdeadbeef, SrcLen: 32})
	canon, err := st.Snapshot()
	if err != nil {
		t.Fatalf("%s: canonical copy: %v", tag, err)
	}
	u, l := rep.AbsentBounds()
	if cu, cl := canon.AbsentBounds(); u != cu || l != cl {
		t.Fatalf("%s: absent bounds (%g,%g), canonical (%g,%g)", tag, u, l, cu, cl)
	}
	snapshotEqualOutputs(t, tag, rep, canon, probes)
}
