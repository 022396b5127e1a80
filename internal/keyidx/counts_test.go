package keyidx

import (
	"math/bits"
	"slices"
	"testing"

	"memento/internal/rng"
)

// collide is a hasher with five distinct values, so every probe run is
// long and every delete shifts.
func collide(k uint64) uint64 { return (k % 5) * 0x9e3779b97f4a7c15 }

// checkCounts verifies the table against the oracle: sizes agree, every
// oracle key resolves to its count, Entries holds every live key
// exactly once, every occupied bucket points at a distinct entry, and
// the tier bitmap marks exactly the entries at or above tierMin.
func checkCounts(t *testing.T, c *Counts[uint64], o oracle) {
	t.Helper()
	if c.Len() != len(o) {
		t.Fatalf("Len = %d, oracle has %d", c.Len(), len(o))
	}
	for k, v := range o {
		if got, ok := c.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = (%d, %v), oracle %d", k, got, ok, v)
		}
	}
	seen := map[uint64]bool{}
	for _, e := range c.Entries() {
		if want, ok := o[e.Key]; !ok || e.Val != want {
			t.Fatalf("Entries holds (%d, %d); oracle (%d, %v)", e.Key, e.Val, want, ok)
		}
		if seen[e.Key] {
			t.Fatalf("Entries holds %d twice", e.Key)
		}
		seen[e.Key] = true
	}
	pointed := map[int32]bool{}
	for i, b := range c.buckets {
		if b == 0 {
			continue
		}
		if b < 0 || int(b) > len(c.entries) || pointed[b] {
			t.Fatalf("bucket %d = %d: out of range or shared (%d entries)", i, b, len(c.entries))
		}
		pointed[b] = true
	}
	if len(pointed) != len(o) {
		t.Fatalf("%d occupied buckets, oracle has %d keys", len(pointed), len(o))
	}
	if 2*c.Len() > len(c.buckets) {
		t.Fatalf("load %d/%d above 1/2", c.Len(), len(c.buckets))
	}
	checkTier(t, c)
}

// checkTier verifies the tier bitmap: sized from the bucket count, bit p
// set iff entries[p].Val ≥ tierMin, no bit at or past Len(); and
// ForEachAtLeast hands over, in entry order, every entry below the
// threshold and the marked ones at or above it.
func checkTier(t *testing.T, c *Counts[uint64]) {
	t.Helper()
	if want := tierWords(len(c.buckets)); len(c.tier) != want {
		t.Fatalf("tier holds %d words, %d buckets want %d", len(c.tier), len(c.buckets), want)
	}
	for p := 0; p < 64*len(c.tier); p++ {
		set := c.tier[p>>6]>>(p&63)&1 == 1
		if heavy := p < c.Len() && c.entries[p].Val >= tierMin; set != heavy {
			t.Fatalf("tier bit %d = %v; %d entries, entry heavy: %v", p, set, c.Len(), heavy)
		}
	}
	for _, min := range []int32{-1, tierMin - 1, tierMin, tierMin + 5} {
		var want, got []int
		for p, e := range c.entries {
			if min < tierMin || e.Val >= tierMin {
				want = append(want, p)
			}
		}
		c.ForEachAtLeast(min, func(p int, e Count[uint64]) bool {
			if e != c.entries[p] {
				t.Fatalf("ForEachAtLeast(%d) handed %+v for entry %d = %+v", min, e, p, c.entries[p])
			}
			got = append(got, p)
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("ForEachAtLeast(%d) visited %v, want %v", min, got, want)
		}
	}
}

func (o oracle) clone() oracle {
	c := oracle{}
	for k, v := range o {
		c[k] = v
	}
	return c
}

// dec applies Counts.Dec's contract to the oracle.
func (o oracle) dec(k uint64) {
	if o[k] <= 1 {
		delete(o, k)
	} else {
		o[k]--
	}
}

// TestCountsRandomOpsAgainstMapOracle drives random
// Inc/Dec/Put/Delete/Get/Flush/CopyInto sequences through a Counts and
// a map oracle in lockstep, under a colliding hasher and with several
// times the keys the table reserves, so it grows on the way (54, 108,
// 216, 432 buckets: never a power of two). A copy is
// checked against the oracle as it stood at copy time after the source
// has moved on.
func TestCountsRandomOpsAgainstMapOracle(t *testing.T) {
	for _, hash := range []func(uint64) uint64{collide, nil} {
		for _, seed := range []uint64{1, 2, 3, 99, 1234567} {
			src := rng.New(seed)
			c := MustNewCounts[uint64](27, hash)
			o := oracle{}
			var snap Counts[uint64]
			var frozen oracle
			for op := 0; op < 30000; op++ {
				k := uint64(src.Intn(128))
				switch src.Intn(20) {
				case 0, 1, 2:
					v := int32(1 + src.Intn(1000))
					c.Put(k, v)
					o[k] = v
				case 3, 4, 5:
					if got, want := c.DeleteH(k, c.Hash(k)), hasKey(o, k); got != want {
						t.Fatalf("seed %d op %d: Delete(%d) = %v, oracle %v", seed, op, k, got, want)
					}
					delete(o, k)
				case 6, 7, 8, 9, 10, 11:
					o[k]++
					if got := c.Inc(k, 1); got != o[k] {
						t.Fatalf("seed %d op %d: Inc(%d) = %d, oracle %d", seed, op, k, got, o[k])
					}
				case 12, 13, 14, 15, 16:
					present := hasKey(o, k)
					if got := c.Dec(k); got != present {
						t.Fatalf("seed %d op %d: Dec(%d) = %v, oracle %v", seed, op, k, got, present)
					}
					if present {
						o.dec(k)
					}
				case 17:
					got, ok := c.Get(k)
					if want, okWant := o[k]; ok != okWant || got != want {
						t.Fatalf("seed %d op %d: Get(%d) = (%d, %v), oracle (%d, %v)", seed, op, k, got, ok, want, okWant)
					}
				case 18:
					if frozen != nil {
						checkCounts(t, &snap, frozen)
					}
					c.CopyInto(&snap)
					frozen = o.clone()
				case 19:
					if src.Intn(40) == 0 {
						c.Flush()
						o = oracle{}
					}
				}
				if op%500 == 0 {
					checkCounts(t, c, o)
				}
			}
			checkCounts(t, c, o)
			checkCounts(t, &snap, frozen)
		}
	}
}

// FuzzCountsOps replays a fuzzer-chosen byte string as an operation
// sequence against the map oracle, on a tiny table under the colliding
// hasher so every byte hits a crowded run.
func FuzzCountsOps(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x81, 0x42, 0xc1, 0x42})
	f.Add([]byte{0x00, 0x40, 0x80, 0xa0, 0xe0, 0xff, 0x3f, 0x7f, 0xbf})
	f.Add([]byte{0x41, 0x42, 0x43, 0xe0, 0xa1, 0x44, 0xa2, 0xa3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := MustNewCounts[uint64](3, collide)
		o := oracle{}
		var snap Counts[uint64]
		frozen := oracle{}
		c.CopyInto(&snap)
		for _, b := range ops {
			k := uint64(b & 0x1f) // 32 keys on a table reserved for 3
			switch b >> 5 {
			case 0:
				c.Put(k, int32(b)+1)
				o[k] = int32(b) + 1
			case 1, 2, 3:
				o[k]++
				if got := c.Inc(k, 1); got != o[k] {
					t.Fatalf("Inc(%d) = %d, want %d", k, got, o[k])
				}
			case 4:
				if got, want := c.DeleteH(k, c.Hash(k)), hasKey(o, k); got != want {
					t.Fatalf("Delete(%d) = %v, want %v", k, got, want)
				}
				delete(o, k)
			case 5:
				present := hasKey(o, k)
				if got := c.Dec(k); got != present {
					t.Fatalf("Dec(%d) = %v, want %v", k, got, present)
				}
				if present {
					o.dec(k)
				}
			case 6:
				if k == 0 {
					c.Flush()
					o = oracle{}
				}
			case 7:
				c.CopyInto(&snap)
				frozen = o.clone()
			}
		}
		checkCounts(t, c, o)
		checkCounts(t, &snap, frozen)
	})
}

// homed returns a hasher that sends key k to bucket homes[k] of a table
// with the given bucket count: the smallest spread hash whose high
// product word is the wanted bucket, taken back through fibMul — odd,
// hence invertible mod 2^64 (Newton's iteration doubles the correct low
// bits each round).
func homed(buckets uint64, homes map[uint64]uint64) func(uint64) uint64 {
	inv := uint64(fibMul)
	for i := 0; i < 6; i++ {
		inv *= 2 - fibMul*inv
	}
	return func(k uint64) uint64 {
		q, _ := bits.Div64(homes[k], 0, buckets) // ⌊home·2^64 / buckets⌋
		return inv * (q + 1)
	}
}

// TestCountsDeleteShiftsAcrossWrap pins the backward shift where the
// probe run wraps past the last bucket: keys homed at the final two
// buckets spill into buckets 0 and 1, and deleting the run's head must
// pull the spilled ones back without losing the one homed at 0.
func TestCountsDeleteShiftsAcrossWrap(t *testing.T) {
	// 8 buckets (capacity 4). Homes: a,b,c → 6; d → 7; e → 0.
	homes := map[uint64]uint64{10: 6, 11: 6, 12: 6, 13: 7, 14: 0}
	for _, victim := range []uint64{10, 11, 12, 13, 14} {
		c := MustNewCounts[uint64](4, homed(8, homes))
		o := oracle{}
		for _, k := range []uint64{10, 11, 12, 13} { // buckets 6, 7, 0, 1
			c.Put(k, int32(k))
			o[k] = int32(k)
		}
		if len(c.buckets) != 8 || c.buckets[0] == 0 || c.buckets[1] == 0 {
			t.Fatalf("layout not as staged: %v", c.buckets)
		}
		if victim == 14 { // absent: its home, bucket 0, is taken by a spilled key
			if c.DeleteH(14, c.Hash(14)) {
				t.Fatal("Delete of an absent key reported present")
			}
		} else {
			if !c.DeleteH(victim, c.Hash(victim)) {
				t.Fatalf("Delete(%d) = false", victim)
			}
			delete(o, victim)
		}
		checkCounts(t, c, o)
		c.Put(14, 14) // lands at its home or right behind the spilled run
		o[14] = 14
		checkCounts(t, c, o)
		if !c.DeleteH(14, c.Hash(14)) {
			t.Fatal("Delete(14) = false")
		}
		delete(o, 14)
		checkCounts(t, c, o)
	}
}

// TestCountsDecToZeroRepointsSwapped: the decrement that exhausts an
// entry deletes it, the last entry takes its slab position, and the
// moved entry is still found — through its own bucket, which now points
// at the new position.
func TestCountsDecToZeroRepointsSwapped(t *testing.T) {
	c := MustNewCounts[uint64](8, collide)
	for k := uint64(1); k <= 5; k++ {
		c.Inc(k, 2)
	}
	if !c.Dec(2) || c.Len() != 5 {
		t.Fatalf("first Dec must keep the entry: Len %d", c.Len())
	}
	if !c.Dec(2) || c.Len() != 4 {
		t.Fatalf("second Dec must delete the entry: Len %d", c.Len())
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("exhausted key still present")
	}
	if c.Dec(2) {
		t.Fatal("Dec of an absent key reported present")
	}
	if e := c.Entries()[1]; e.Key != 5 || e.Val != 2 {
		t.Fatalf("slab position 1 holds %+v, want the moved last entry {5 2}", e)
	}
	checkCounts(t, c, oracle{1: 2, 3: 2, 4: 2, 5: 2})
	// Deleting the last entry itself moves nothing.
	if !c.DeleteH(4, c.Hash(4)) {
		t.Fatal("Delete(4) = false")
	}
	checkCounts(t, c, oracle{1: 2, 3: 2, 5: 2})
}

// TestCountsGrowthPastReserve checks the cold path: exceeding the
// reserved capacity rehashes from the keys instead of corrupting, and
// insertion order survives it.
func TestCountsGrowthPastReserve(t *testing.T) {
	c := MustNewCounts[uint64](8, nil)
	const n = 1000
	o := oracle{}
	for k := uint64(0); k < n; k++ {
		c.Put(k, int32(k)+1)
		o[k] = int32(k) + 1
	}
	if c.Len() != n {
		t.Fatalf("Len %d, want %d entries held", c.Len(), n)
	}
	checkCounts(t, c, o)
	for k := uint64(0); k < n; k++ {
		if v, ok := c.Get(k); !ok || v != int32(k)+1 {
			t.Fatalf("Get(%d) = (%d, %v)", k, v, ok)
		}
		if e := c.Entries()[k]; e.Key != k {
			t.Fatalf("Entries()[%d].Key = %d: insertion order lost", k, e.Key)
		}
	}
}

// TestCountsCopyIsIndependent: a copy answers like its source at copy
// time whatever happens to either afterwards.
func TestCountsCopyIsIndependent(t *testing.T) {
	c := MustNewCounts[uint64](64, nil)
	o := oracle{}
	for k := uint64(0); k < 50; k++ {
		c.Put(k, int32(k)+1)
		o[k] = int32(k) + 1
	}
	var snap Counts[uint64] // zero value: CopyInto must make it usable
	c.CopyInto(&snap)
	for k := uint64(0); k < 200; k++ { // grows the source past its reserve
		c.Inc(k, 7)
	}
	c.DeleteH(3, c.Hash(3))
	checkCounts(t, &snap, o)
	c.Flush()
	checkCounts(t, &snap, o)
	snap.Put(999, 1)
	if _, ok := c.Get(999); ok {
		t.Fatal("writing to the copy leaked into the source")
	}
}

// sameSlabs fails unless got holds want's entries, buckets and tier
// element for element: the same answers, sweep order and probe layout.
func sameSlabs(t *testing.T, tag string, got, want *Counts[uint64]) {
	t.Helper()
	if !slices.Equal(got.entries, want.entries) {
		t.Fatalf("%s: entries %v, source %v", tag, got.entries, want.entries)
	}
	if !slices.Equal(got.buckets, want.buckets) {
		t.Fatalf("%s: buckets %v, source %v", tag, got.buckets, want.buckets)
	}
	if !slices.Equal(got.tier, want.tier) {
		t.Fatalf("%s: tier %x, source %x", tag, got.tier, want.tier)
	}
}

// TestCountsJournalReplay drives random Inc/Dec/Put/Delete/Flush
// sequences, growing past the reserve, into a source and three
// destinations that copy from it at different rates: often, now and
// then, and so rarely that the 64-op journal has moved past them. One
// destination is sometimes written to between copies, which must cost
// it its replay. After every CopyInto the destination's slabs equal the
// source's element for element, whichever path it took, and both paths
// must have run.
func TestCountsJournalReplay(t *testing.T) {
	for _, hash := range []func(uint64) uint64{collide, nil} {
		for _, seed := range []uint64{1, 2, 3, 99, 1234567} {
			src := rng.New(seed)
			c := MustNewCounts[uint64](27, hash)
			if len(c.log.ops) != 64 {
				t.Fatalf("journal holds %d ops, want 64", len(c.log.ops))
			}
			var dsts [3]Counts[uint64]
			every := [3]int{4, 24, 200}
			replays, full := 0, 0
			for op := 0; op < 30000; op++ {
				k := uint64(src.Intn(128))
				switch src.Intn(20) {
				case 0, 1, 2:
					c.Put(k, int32(1+src.Intn(1000)))
				case 3, 4, 5:
					c.DeleteH(k, c.Hash(k))
				case 6, 7, 8, 9, 10, 11:
					c.Inc(k, int32(1+src.Intn(3)))
				case 12, 13, 14, 15, 16, 17:
					c.Dec(k)
				case 18:
					if src.Intn(50) == 0 {
						c.Flush()
					}
				case 19:
					if src.Intn(10) == 0 {
						dsts[1].Put(k, 7) // a written copy must not be replayed onto
					}
				}
				for i := range dsts {
					if src.Intn(every[i]) != 0 {
						continue
					}
					d := &dsts[i]
					if d.from == c.log.id && c.log.seq-d.at <= uint64(len(c.log.ops)) {
						replays++
					} else {
						full++
					}
					c.CopyInto(d)
					sameSlabs(t, "destination", d, c)
				}
			}
			if len(c.buckets) == 54 {
				t.Fatalf("seed %d: never grew past the reserve", seed)
			}
			if replays == 0 || full == 0 {
				t.Fatalf("seed %d: %d replays, %d full copies: a path never ran", seed, replays, full)
			}
		}
	}
}

// TestCountsValueCopyLeavesJournal: a Counts copied by assignment
// shares the original's journal pointer but never writes to it — it
// stops journaling and copies out in full — while the original keeps
// journaling and its destinations keep replaying.
func TestCountsValueCopyLeavesJournal(t *testing.T) {
	c := MustNewCounts[uint64](64, nil)
	for k := uint64(0); k < 40; k++ {
		c.Inc(k, 2)
	}
	var d Counts[uint64]
	c.CopyInto(&d)
	id, seq, ring := c.log.id, c.log.seq, slices.Clone(c.log.ops)

	cp := *c
	cp.entries, cp.buckets = slices.Clone(c.entries), slices.Clone(c.buckets) // own slabs, shared journal
	cp.Inc(999, 1)
	cp.Dec(3)
	cp.DeleteH(4, cp.Hash(4))
	cp.Put(5, 9)
	cp.Flush()
	cp.Inc(6, 1)
	if c.log.id != id || c.log.seq != seq || !slices.Equal(c.log.ops, ring) {
		t.Fatal("the copy wrote into the original's journal")
	}
	if cp.log != nil {
		t.Fatal("the copy still holds the original's journal")
	}
	var e Counts[uint64]
	cp.CopyInto(&e)
	sameSlabs(t, "copy's destination", &e, &cp)
	if e.from != 0 {
		t.Fatal("a destination of an unjournaled table is marked replayable")
	}

	c.Inc(7, 1)
	c.Dec(8)
	c.CopyInto(&d) // replays the original's two ops
	if d.from != id || d.at != seq+2 {
		t.Fatalf("destination at (%d, %d), want (%d, %d)", d.from, d.at, id, seq+2)
	}
	sameSlabs(t, "original's destination", &d, c)
}

// TestCountsZeroAllocSteadyState: no operation within the reserved
// capacity allocates, and neither does a repeated CopyInto.
func TestCountsZeroAllocSteadyState(t *testing.T) {
	c := MustNewCounts[uint64](256, func(k uint64) uint64 { return k * 0x9e3779b97f4a7c15 })
	src := rng.New(7)
	var snap Counts[uint64]
	c.CopyInto(&snap)
	allocs := testing.AllocsPerRun(1000, func() {
		k := uint64(src.Intn(256))
		c.Put(k, 1)
		c.Get(k)
		c.Inc(k, 1)
		c.Dec(k)
		c.DeleteH(k, c.Hash(k))
		c.Inc(uint64(src.Intn(256)), 1)
		if c.Len() > 200 {
			c.Flush()
		}
		c.CopyInto(&snap)
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", allocs)
	}
}

// prefixLike stands in for hierarchy.Prefix (which imports this
// package): 12 bytes of key, so a Count is 16 bytes and an Index slot 32.
type prefixLike struct {
	src, dst       uint32
	srcLen, dstLen uint8
}

func hashPrefixLike(p prefixLike) uint64 {
	return Mix64(uint64(p.src)<<32 | uint64(p.dst) ^ Mix64(uint64(p.srcLen)<<8|uint64(p.dstLen)))
}

// BenchmarkCopyRange is one shard's share of a dev2d-query capture and
// sweep at the table level: copy a table of 28 000 prefix-sized keys
// (reserved for 40 000, as H·k sizes it) and read every count. "full"
// copies both slabs every time, the fallback when the journal cannot
// serve; "replay" catches one destination up after 25 overflow/forget
// pairs, a shard's churn between two dev2d-query queries.
func BenchmarkCopyRange(b *testing.B) {
	const live, reserve = 28000, 40000
	key := func(i int) prefixLike {
		return prefixLike{src: uint32(i) * 2654435761, dst: uint32(i) << 8, srcLen: 4, dstLen: uint8(i % 5)}
	}
	fill := func() *Counts[prefixLike] {
		c := MustNewCounts(reserve, hashPrefixLike)
		for i := 0; i < live; i++ {
			c.Inc(key(i), int32(1+i%7))
		}
		return c
	}
	sweep := func(snap *Counts[prefixLike]) (sum int64) {
		for _, e := range snap.Entries() {
			sum += int64(e.Val)
		}
		return sum
	}
	b.Run("full", func(b *testing.B) {
		c := fill()
		var snap Counts[prefixLike]
		var sum int64
		b.ReportAllocs()
		for b.Loop() {
			snap.from = 0 // as if mutated: no replay
			c.CopyInto(&snap)
			sum += sweep(&snap)
		}
		_ = sum
	})
	b.Run("replay", func(b *testing.B) {
		c := fill()
		var snap Counts[prefixLike]
		c.CopyInto(&snap)
		var sum int64
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			for range 25 {
				c.Inc(key(i%live), 1)
				c.Dec(key(i % live))
				i += 7
			}
			c.CopyInto(&snap)
			sum += sweep(&snap)
		}
		_ = sum
	})
}
