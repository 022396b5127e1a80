// Package keyidx provides the flat, pointer-free hash tables shared by
// every hot path in this repository. Both are open-addressing tables
// (linear probe, backward-shift delete) over slabs allocated once at
// construction, with a caller-supplied hash function, so layers that
// already hash each key (internal/shard partitions by hash) share one
// hash computation per packet via the *H method variants instead of
// hashing once for shard selection and again for the table. Neither
// allocates on any operation within its declared capacity, and neither
// shrinks; exceeding the capacity is an accepted cold path (one
// amortized reallocation).
//
// They exist because the Go runtime map — used by the seed
// implementation for the Space Saving index, the Memento overflow
// table B, and assorted per-query scratch sets — pays for generality
// on every access: hashing through runtime indirection, bucket-group
// probing, and write-barrier bookkeeping. The two types split those
// jobs by what each is asked to do most:
//
//   - Index maps keys to int32 values in one slab of {hash, key, value,
//     generation} slots. A lookup touches one slot, and Flush is O(1):
//     emptying the index bumps the live generation. It serves the
//     scratch sets — query dedup, the delta encoder's overflow-log
//     tally, Space Saving's Merge — which are probed and flushed far
//     more often than they are walked, and never copied. (Space
//     Saving's position index is a packed fingerprint table of its
//     own, with the key kept only in the counter slab.)
//   - Counts maps keys to positive counts and keeps the live entries
//     packed: a dense {key, count} slab behind a bucket array of int32
//     positions. It is the overflow table B, which every query copies
//     under a shard lock and then sweeps for its heavy keys. A Counts
//     journals its mutations, so a copy into the destination it copied
//     into last replays the few that happened since; a full copy moves
//     one entry per key held, four bytes per bucket and one bit per
//     reserved entry. That bit marks the heavy tier, the entries whose
//     count has reached a fixed threshold, so a sweep for counts at or
//     above it ranges only the marked positions, and any other sweep
//     ranges the slab. It stores no hash (rehashing from the key on
//     delete and growth only) and has no generations (B is flushed only
//     by Reset).
//
// Instances are not safe for concurrent use, matching the
// single-writer design of the structures they index.
//
//memento:deterministic
package keyidx

import (
	"errors"
	"hash/maphash"
	"math/bits"
	"unsafe"
)

// fibMul is the 64-bit golden-ratio multiplier used to spread
// caller-supplied hashes across slots. Slot selection takes the TOP
// bits of h*fibMul, so even weak hashes (sequential integers, the
// multiplicative shard hash) fill the table evenly, and the bits used
// here stay independent of the high bits shard uses to pick a shard.
const fibMul = 0x9e3779b97f4a7c15

// maxCap bounds the declared capacity of either table type.
const maxCap = 1 << 29

// slot is one table entry. gen tells whether the entry is live: a
// slot belongs to the current contents iff gen == Index.live, which
// is what makes Flush O(1).
type slot[K comparable] struct {
	hash uint64 // full caller hash; avoids rehashing on shift/compare
	key  K
	val  int32
	gen  uint32
}

// Index is an open-addressing hash index from K to int32. Construct
// with New; the zero value is not usable.
type Index[K comparable] struct {
	slots []slot[K]
	mask  uint64 // len(slots)-1 (power of two)
	shift uint   // 64 - log2(len(slots)); home = (h*fibMul)>>shift
	live  uint32 // generation stamp of live slots
	n     int    // live entries
	hash  func(K) uint64
	seed  maphash.Seed // backs the default hasher
}

// New returns an Index sized so that capacity entries fit without
// growing (load factor ≤ 1/2). hash may be nil, selecting a
// maphash.Comparable-based default with a per-Index random seed.
func New[K comparable](capacity int, hash func(K) uint64) (*Index[K], error) {
	if capacity <= 0 {
		return nil, errors.New("keyidx: capacity must be positive")
	}
	if capacity > maxCap {
		return nil, errors.New("keyidx: capacity too large")
	}
	idx := &Index[K]{hash: hash, seed: maphash.MakeSeed(), live: 1}
	if idx.hash == nil {
		idx.hash = defaultHasher[K](idx.seed)
	}
	idx.alloc(tableSize(capacity))
	return idx, nil
}

// DefaultHasher returns the hash function an Index constructed with a
// nil hash uses: a seeded word mix for machine-word integer keys,
// maphash.Comparable otherwise. Layers that share one hash between
// routing and the index (internal/shard) construct theirs here so
// integer keys get the fast path everywhere.
func DefaultHasher[K comparable]() func(K) uint64 {
	return defaultHasher[K](maphash.MakeSeed())
}

// defaultHasher picks the hash used when the caller supplies none:
// machine-word integer keys get a seeded splitmix finalizer (the
// runtime map's fast paths set the bar; generic maphash.Comparable
// loses ~40% to them on uint64 keys), everything else
// maphash.Comparable. The unsafe reads are guarded by the type
// switch: K is statically known to be exactly the word type read.
func defaultHasher[K comparable](seed maphash.Seed) func(K) uint64 {
	var zero K
	word64 := func() func(K) uint64 {
		s := maphash.Comparable(seed, uint64(0))
		return func(k K) uint64 { return Mix64(*(*uint64)(unsafe.Pointer(&k)) ^ s) }
	}
	word32 := func() func(K) uint64 {
		s := maphash.Comparable(seed, uint64(0))
		return func(k K) uint64 { return Mix64(uint64(*(*uint32)(unsafe.Pointer(&k))) ^ s) }
	}
	switch any(zero).(type) {
	case uint64, int64:
		return word64()
	case uint32, int32:
		return word32()
	case int, uint, uintptr:
		if unsafe.Sizeof(zero) == 8 {
			return word64()
		}
		return word32()
	}
	return func(k K) uint64 { return maphash.Comparable(seed, k) }
}

// Mix64 is the SplitMix64 finalizer: a bijective avalanche mix.
// Exported so custom hashers (hierarchy.PrefixHasher) build on the
// same primitive instead of duplicating the constants.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// MustNew is New for statically valid capacities; it panics on error.
func MustNew[K comparable](capacity int, hash func(K) uint64) *Index[K] {
	idx, err := New(capacity, hash)
	if err != nil {
		panic(err)
	}
	return idx
}

// tableSize returns the power-of-two slot count for a given capacity:
// at least 2× entries, at least 8.
func tableSize(capacity int) int {
	n := 8
	for n < 2*capacity {
		n <<= 1
	}
	return n
}

func (x *Index[K]) alloc(size int) {
	x.slots = make([]slot[K], size)
	x.mask = uint64(size - 1)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// Hash returns the index's hash of key — the caller-supplied function
// or the per-Index default. Callers that need the hash for their own
// purposes (shard selection) compute it once and use the *H variants.
func (x *Index[K]) Hash(key K) uint64 { return x.hash(key) }

// home returns the preferred slot for hash h.
func (x *Index[K]) home(h uint64) uint64 { return (h * fibMul) >> x.shift }

// Len returns the number of live entries.
func (x *Index[K]) Len() int { return x.n }

// Cap returns the number of entries the index holds without growing.
func (x *Index[K]) Cap() int { return len(x.slots) / 2 }

// Flush empties the index in O(1) by advancing the live generation.
func (x *Index[K]) Flush() {
	x.n = 0
	x.live++
	if x.live == 0 { // uint32 wrap: stale stamps could collide; scrub
		for i := range x.slots {
			x.slots[i].gen = 0
		}
		x.live = 1
	}
}

// Get returns the value stored for key.
func (x *Index[K]) Get(key K) (int32, bool) { return x.GetH(key, x.Hash(key)) }

// GetH is Get with a caller-computed hash (which must equal
// x.Hash(key)).
//
//memento:noalloc
func (x *Index[K]) GetH(key K, h uint64) (int32, bool) {
	for i := x.home(h); ; i = (i + 1) & x.mask {
		s := &x.slots[i]
		if s.gen != x.live {
			return 0, false
		}
		if s.hash == h && s.key == key {
			return s.val, true
		}
	}
}

// Put stores val for key, inserting or overwriting.
func (x *Index[K]) Put(key K, val int32) { x.PutH(key, val, x.Hash(key)) }

// PutH is Put with a caller-computed hash.
//
//memento:noalloc
func (x *Index[K]) PutH(key K, val int32, h uint64) {
	for i := x.home(h); ; i = (i + 1) & x.mask {
		s := &x.slots[i]
		if s.gen != x.live {
			x.place(i, key, val, h)
			return
		}
		if s.hash == h && s.key == key {
			s.val = val
			return
		}
	}
}

// place fills a known-empty slot and grows past the load limit.
func (x *Index[K]) place(i uint64, key K, val int32, h uint64) {
	s := &x.slots[i]
	s.hash = h
	s.key = key
	s.val = val
	s.gen = x.live
	x.n++
	if 2*x.n > len(x.slots) { // load > 1/2: exceeded declared capacity
		//memento:allow alloc "growth past the declared capacity is the accepted cold path; steady-state tables are pre-sized"
		x.grow()
	}
}

// grow doubles the table and reinserts live entries. It runs only
// when the caller exceeds the capacity declared at construction.
func (x *Index[K]) grow() {
	old := x.slots
	oldLive := x.live
	x.alloc(len(old) * 2)
	x.live = 1
	x.n = 0
	for i := range old {
		if old[i].gen == oldLive {
			x.reinsert(old[i].key, old[i].val, old[i].hash)
		}
	}
}

// reinsert is PutH without the growth check (the new table fits).
func (x *Index[K]) reinsert(key K, val int32, h uint64) {
	i := x.home(h)
	for x.slots[i].gen == x.live {
		i = (i + 1) & x.mask
	}
	s := &x.slots[i]
	s.hash = h
	s.key = key
	s.val = val
	s.gen = x.live
	x.n++
}

// Insert adds key with value 0 if absent and reports whether it was
// added — set semantics for dedup scratch.
func (x *Index[K]) Insert(key K) bool { return x.InsertH(key, x.Hash(key)) }

// InsertH is Insert with a caller-computed hash.
//
//memento:noalloc
func (x *Index[K]) InsertH(key K, h uint64) bool {
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

// Inc adds delta to key's value, inserting it with value delta if
// absent, and returns the new value: a single-probe increment for
// tallies kept in scratch sets.
func (x *Index[K]) Inc(key K, delta int32) int32 { return x.IncH(key, delta, x.Hash(key)) }

// IncH is Inc with a caller-computed hash.
//
//memento:noalloc
func (x *Index[K]) IncH(key K, delta int32, h uint64) int32 {
	for i := x.home(h); ; i = (i + 1) & x.mask {
		s := &x.slots[i]
		if s.gen != x.live {
			x.place(i, key, delta, h)
			return delta
		}
		if s.hash == h && s.key == key {
			s.val += delta
			return s.val
		}
	}
}

// DecH decrements key's value under a caller-computed hash, deleting
// the entry when it reaches zero; it reports whether the key was
// present. The overflow table B, which this served, is a Counts now;
// the repository benchmark's keyidx.inc_dec_ns replay still calls it.
//
//memento:noalloc
func (x *Index[K]) DecH(key K, h uint64) bool {
	for i := x.home(h); ; i = (i + 1) & x.mask {
		s := &x.slots[i]
		if s.gen != x.live {
			return false
		}
		if s.hash == h && s.key == key {
			s.val--
			if s.val <= 0 {
				x.unplace(i)
			}
			return true
		}
	}
}

// Delete removes key and reports whether it was present.
func (x *Index[K]) Delete(key K) bool { return x.DeleteH(key, x.Hash(key)) }

// DeleteH is Delete with a caller-computed hash.
//
//memento:noalloc
func (x *Index[K]) DeleteH(key K, h uint64) bool {
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

// unplace empties slot i and backward-shifts the following cluster so
// no tombstones are needed: each subsequent entry moves into the hole
// unless it already sits at (or probes no further than) its home.
func (x *Index[K]) unplace(i uint64) {
	x.n--
	for j := (i + 1) & x.mask; ; j = (j + 1) & x.mask {
		s := &x.slots[j]
		if s.gen != x.live {
			break
		}
		// Distance the entry at j has probed from its home; it may
		// move back to i only if i is still within that probe span.
		// Entries whose home lies after i stay put, but the scan must
		// continue: the cluster can still hold movable entries.
		dist := (j - x.home(s.hash)) & x.mask
		if dist >= (j-i)&x.mask {
			x.slots[i] = *s
			i = j
		}
	}
	x.slots[i].gen = x.live - 1 // mark empty (≠ live; wrap-safe until Flush scrubs)
}

// Iterate calls fn for every live entry until fn returns false. The
// order is unspecified and changes across mutations. The index must
// not be mutated during iteration. An empty index returns without
// touching the slab — freshly Flushed scratch sets (query dedup, the
// delta encoder's overflow-log scratch between quiet captures) are the
// common case and cost nothing to walk.
//
//memento:noalloc
func (x *Index[K]) Iterate(fn func(key K, val int32) bool) {
	if x.n == 0 {
		return
	}
	for i := range x.slots {
		if x.slots[i].gen == x.live {
			if !fn(x.slots[i].key, x.slots[i].val) {
				return
			}
		}
	}
}
