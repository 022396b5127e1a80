package keyidx

import (
	"testing"

	"memento/internal/rng"
)

// Insert, Delete and Iterate complete the operation set the map-oracle
// differentials drive: production indexes only Put, Inc, DecH and Flush
// (the delta encoder's and the read plane's scratch), but the oracle
// replays every sequence of inserts, deletions and walks the probing
// and backward-shift code must survive.

// Insert adds key with value 0 if absent and reports whether it was
// added.
func (x *Index[K]) Insert(key K) bool {
	h := x.Hash(key)
	for i := x.home(h); ; i = (i + 1) & x.mask {
		s := &x.slots[i]
		if s.gen != x.live {
			x.place(i, key, 0, h)
			return true
		}
		if s.hash == h && s.key == key {
			return false
		}
	}
}

// Delete removes key and reports whether it was present.
func (x *Index[K]) Delete(key K) bool {
	h := x.Hash(key)
	for i := x.home(h); ; i = (i + 1) & x.mask {
		s := &x.slots[i]
		if s.gen != x.live {
			return false
		}
		if s.hash == h && s.key == key {
			x.unplace(i)
			return true
		}
	}
}

// Iterate calls fn for every live entry until fn returns false.
func (x *Index[K]) Iterate(fn func(key K, val int32) bool) {
	for i := range x.slots {
		if x.slots[i].gen == x.live {
			if !fn(x.slots[i].key, x.slots[i].val) {
				return
			}
		}
	}
}

// oracle mirrors an Index with the runtime map the Index replaces.
type oracle map[uint64]int32

// checkAgainst verifies every key of the oracle resolves identically
// in the index, the sizes agree, and iteration visits exactly the
// oracle's entries.
func checkAgainst(t *testing.T, x *Index[uint64], o oracle) {
	t.Helper()
	if x.Len() != len(o) {
		t.Fatalf("Len = %d, oracle has %d", x.Len(), len(o))
	}
	for k, v := range o {
		got, ok := x.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%d) = (%d, %v), oracle %d", k, got, ok, v)
		}
	}
	seen := 0
	x.Iterate(func(k uint64, v int32) bool {
		want, ok := o[k]
		if !ok || v != want {
			t.Fatalf("Iterate visited (%d, %d); oracle (%d, %v)", k, v, want, ok)
		}
		seen++
		return true
	})
	if seen != len(o) {
		t.Fatalf("Iterate visited %d entries, oracle has %d", seen, len(o))
	}
}

// TestRandomOpsAgainstMapOracle drives a long random sequence of
// Put/Get/Delete/Inc/Dec/Insert/Flush operations through an Index and
// a map oracle in lockstep. Key range 0..127 on a 64-capacity index
// keeps the load high and deletions/collisions frequent, exercising
// the backward-shift path hard.
func TestRandomOpsAgainstMapOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 99, 1234567} {
		src := rng.New(seed)
		x := MustNew[uint64](64, nil)
		o := oracle{}
		for op := 0; op < 50000; op++ {
			k := uint64(src.Intn(128))
			switch src.Intn(20) {
			case 0, 1, 2, 3, 4, 5:
				v := int32(src.Intn(1000))
				x.Put(k, v)
				o[k] = v
			case 6, 7, 8:
				_, okWant := o[k]
				if ok := x.Delete(k); ok != okWant {
					t.Fatalf("seed %d op %d: Delete(%d) = %v, oracle %v", seed, op, k, ok, okWant)
				}
				delete(o, k)
			case 9, 10, 11, 12:
				got := x.Inc(k, 1)
				o[k]++
				if got != o[k] {
					t.Fatalf("seed %d op %d: Inc(%d) = %d, oracle %d", seed, op, k, got, o[k])
				}
			case 13, 14:
				_, okWant := o[k]
				if ok := x.DecH(k, x.Hash(k)); ok != okWant {
					t.Fatalf("seed %d op %d: Dec(%d) = %v, oracle %v", seed, op, k, ok, okWant)
				}
				if okWant {
					if o[k] <= 1 {
						delete(o, k)
					} else {
						o[k]--
					}
				}
			case 15, 16:
				_, present := o[k]
				if added := x.Insert(k); added != !present {
					t.Fatalf("seed %d op %d: Insert(%d) = %v, oracle present %v", seed, op, k, added, present)
				}
				if !present {
					o[k] = 0
				}
			case 17, 18:
				got, ok := x.Get(k)
				want, okWant := o[k]
				if ok != okWant || (ok && got != want) {
					t.Fatalf("seed %d op %d: Get(%d) = (%d, %v), oracle (%d, %v)",
						seed, op, k, got, ok, want, okWant)
				}
			case 19:
				if src.Intn(50) == 0 { // Flushes are rare but must be total
					x.Flush()
					o = oracle{}
				}
			}
			if op%1000 == 0 {
				checkAgainst(t, x, o)
			}
		}
		checkAgainst(t, x, o)
	}
}

// FuzzOps replays a fuzzer-chosen byte string as an operation
// sequence against the map oracle, on a deliberately tiny index so
// every byte hits a crowded table.
func FuzzOps(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x81, 0x42, 0xc1, 0x42})
	f.Add([]byte{0x00, 0x40, 0x80, 0xc0, 0xff, 0x3f, 0x7f, 0xbf})
	f.Fuzz(func(t *testing.T, ops []byte) {
		x := MustNew[uint64](4, nil)
		o := oracle{}
		for _, b := range ops {
			k := uint64(b & 0x1f) // 32 keys on a 4-capacity index
			switch b >> 5 {
			case 0, 1:
				x.Put(k, int32(b))
				o[k] = int32(b)
			case 2, 3:
				x.Inc(k, 1)
				o[k]++
			case 4:
				if got, want := x.Delete(k), hasKey(o, k); got != want {
					t.Fatalf("Delete(%d) = %v, want %v", k, got, want)
				}
				delete(o, k)
			case 5:
				if got, want := x.DecH(k, x.Hash(k)), hasKey(o, k); got != want {
					t.Fatalf("Dec(%d) = %v, want %v", k, got, want)
				}
				if hasKey(o, k) {
					if o[k] <= 1 {
						delete(o, k)
					} else {
						o[k]--
					}
				}
			case 6:
				x.Flush()
				o = oracle{}
			case 7:
				got, ok := x.Get(k)
				want, okWant := o[k]
				if ok != okWant || (ok && got != want) {
					t.Fatalf("Get(%d) = (%d, %v), oracle (%d, %v)", k, got, ok, want, okWant)
				}
			}
		}
		if x.Len() != len(o) {
			t.Fatalf("Len = %d, oracle %d", x.Len(), len(o))
		}
		for k, v := range o {
			if got, ok := x.Get(k); !ok || got != v {
				t.Fatalf("Get(%d) = (%d, %v), oracle %d", k, got, ok, v)
			}
		}
	})
}

func hasKey(o oracle, k uint64) bool {
	_, ok := o[k]
	return ok
}

// TestHashedVariantsMatch verifies the *H fast paths agree with their
// hashing counterparts when fed the index's own hash.
func TestHashedVariantsMatch(t *testing.T) {
	x := MustNew[uint64](32, func(k uint64) uint64 { return k * 0x9e3779b97f4a7c15 })
	for k := uint64(0); k < 32; k++ {
		h := x.Hash(k)
		x.PutH(k, int32(k), h)
		if v, ok := x.GetH(k, h); !ok || v != int32(k) {
			t.Fatalf("GetH(%d) = (%d, %v)", k, v, ok)
		}
		if v, ok := x.Get(k); !ok || v != int32(k) {
			t.Fatalf("Get(%d) = (%d, %v)", k, v, ok)
		}
	}
	for k := uint64(0); k < 32; k += 2 {
		if !x.Delete(k) {
			t.Fatalf("Delete(%d) = false", k)
		}
	}
	for k := uint64(0); k < 32; k++ {
		_, ok := x.Get(k)
		if want := k%2 == 1; ok != want {
			t.Fatalf("after deletes: Get(%d) present=%v, want %v", k, ok, want)
		}
	}
}

// TestGrowthPastDeclaredCapacity checks the safety valve: exceeding
// the declared capacity rehashes instead of corrupting.
func TestGrowthPastDeclaredCapacity(t *testing.T) {
	x := MustNew[uint64](8, nil)
	const n = 1000
	for k := uint64(0); k < n; k++ {
		x.Put(k, int32(k))
	}
	if x.Len() != n {
		t.Fatalf("Len = %d, want %d", x.Len(), n)
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := x.Get(k); !ok || v != int32(k) {
			t.Fatalf("Get(%d) = (%d, %v)", k, v, ok)
		}
	}
}

// TestFlushIsEmptyAndReusable: entries from before a Flush must be
// invisible afterwards, including via Iterate, and slots reusable.
func TestFlushIsEmptyAndReusable(t *testing.T) {
	x := MustNew[uint64](16, nil)
	for round := 0; round < 100; round++ {
		for k := uint64(0); k < 16; k++ {
			x.Put(k, int32(round))
		}
		if x.Len() != 16 {
			t.Fatalf("round %d: Len = %d", round, x.Len())
		}
		x.Flush()
		if x.Len() != 0 {
			t.Fatalf("round %d: Len after Flush = %d", round, x.Len())
		}
		if _, ok := x.Get(3); ok {
			t.Fatalf("round %d: stale entry visible after Flush", round)
		}
		x.Iterate(func(k uint64, v int32) bool {
			t.Fatalf("round %d: Iterate visited (%d, %d) after Flush", round, k, v)
			return false
		})
	}
}

// TestZeroAllocSteadyState asserts the core guarantee: no allocation
// on any operation after construction (within declared capacity).
func TestZeroAllocSteadyState(t *testing.T) {
	x := MustNew[uint64](256, func(k uint64) uint64 { return k * 0x9e3779b97f4a7c15 })
	src := rng.New(7)
	allocs := testing.AllocsPerRun(1000, func() {
		k := uint64(src.Intn(256))
		x.Put(k, 1)
		x.Get(k)
		x.Inc(k, 1)
		x.DecH(k, x.Hash(k))
		x.Delete(k)
		if x.Len() > 200 {
			x.Flush()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", allocs)
	}
}

func BenchmarkGetHit(b *testing.B) {
	x := MustNew[uint64](1024, nil)
	for k := uint64(0); k < 1024; k++ {
		x.Put(k, int32(k))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Get(uint64(i) & 1023)
	}
}

func BenchmarkMapGetHit(b *testing.B) {
	m := make(map[uint64]int32, 1024)
	for k := uint64(0); k < 1024; k++ {
		m[k] = int32(k)
	}
	b.ResetTimer()
	var v int32
	for i := 0; i < b.N; i++ {
		v = m[uint64(i)&1023]
	}
	_ = v
}

func BenchmarkGetHitMulHash(b *testing.B) {
	x := MustNew[uint64](1024, func(k uint64) uint64 { return k * 0x9e3779b97f4a7c15 })
	for k := uint64(0); k < 1024; k++ {
		x.Put(k, int32(k))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Get(uint64(i) & 1023)
	}
}
