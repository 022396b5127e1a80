// Package spacesaving implements the Space Saving algorithm of
// Metwally, Agrawal and El Abbadi (ICDT 2005) with the classic
// "stream summary" data structure, giving strict O(1) worst-case
// updates.
//
// Space Saving is the substrate of every algorithm in this repository
// (paper Section 2): Memento uses one instance for approximate in-frame
// counting, MST uses H instances (one per prefix pattern), and RHHH
// randomly updates one of H instances. Allocated with k counters and
// fed N items, it guarantees for every key x:
//
//	f(x) ≤ Query(x) ≤ f(x) + N/k
//
// and for monitored keys the per-counter Err field bounds the
// overestimate: Count − Err ≤ f(x) ≤ Count.
//
// The implementation is slab-backed and allocation-free after
// construction: counters and buckets live in fixed arrays linked by
// int32 indices, so updates touch no pointers the GC cares about. The
// key→counter index is a packed open-addressing table of 8-byte
// {fingerprint, slot} buckets over the counter slab: the key lives only
// in its counter, which also caches the fingerprint, so an eviction
// finds the outgoing key's bucket without re-hashing it, a capture
// copies 8 bytes per bucket, and Flush — once per Memento frame —
// clears about 16·k bytes. The sketch keeps both ends of its bucket
// list, so IterateAtLeast reaches the counters at or above a count by
// walking down from the largest bucket, at a cost in the buckets that
// pass rather than in k. Instances are not safe for concurrent use.
package spacesaving

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"memento/internal/keyidx"
	"memento/internal/obs"
)

const nilIdx = int32(-1)

// fibMul spreads a caller hash before its high word becomes the
// fingerprint: the golden-ratio multiplier internal/keyidx uses, so the
// bucket a key homes to is the top bits of h·fibMul as there.
const fibMul = 0x9e3779b97f4a7c15

// fingerprint is the 32-bit value a key's hash h is indexed under: the
// high word of h·fibMul. Its top bits pick the home bucket.
func fingerprint(h uint64) uint32 { return uint32((h * fibMul) >> 32) }

// counter is one monitored (key, count) pair. Counters with equal
// counts are chained into the doubly linked list of their bucket.
type counter[K comparable] struct {
	key        K
	fp         uint32 // fingerprint of key (in the padding after a 12-byte key)
	err        uint64 // value of the evicted minimum when (re)allocated
	prev, next int32  // neighbours within the bucket's counter list
	bucket     int32  // owning bucket slab index
}

// bucket groups all counters sharing one count value. Buckets form a
// doubly linked list in strictly ascending count order; the list head
// is always the minimum.
type bucket struct {
	count      uint64
	head       int32 // first counter in this bucket
	prev, next int32 // neighbouring buckets (ascending by count)
}

// posBucket is one position-index bucket: the fingerprint of the key
// monitored in counter slot-1, or slot 0 for an empty bucket.
type posBucket struct {
	fp   uint32
	slot int32
}

// Sketch is a Space Saving instance with a fixed number of counters.
// Construct with NewWithHash.
type Sketch[K comparable] struct {
	counters []counter[K] //memento:reused (k counters from construction; a capture destination sizes once)
	buckets  []bucket     //memento:reused (k+2 buckets from construction; a capture destination sizes once)
	headB    int32        // min bucket, nilIdx when empty
	tailB    int32        // max bucket, nilIdx when empty
	freeB    int32        // bucket free list head
	used     int32        // counters in use (monotone until Flush)
	items    uint64

	// owner, id and n name the sketch's state: the n-th mutation under
	// state id, which the sketch drew from stateIDs the first time it
	// mutated as owner (owner == the sketch itself). A copy by
	// assignment carries its original's owner, so its first mutation
	// draws a fresh id instead of writing states under the original's.
	owner *Sketch[K]
	id, n uint64
	// fromID and fromN name the state this sketch was last copied as by
	// CopyInto: source state fromID after its fromN-th mutation. 0 (no
	// state id is 0) once the sketch has mutated since, so only an
	// untouched copy ever skips its slab copy.
	fromID, fromN uint64

	// pos is the position index: a power-of-two array of at least 2k
	// buckets (load ≤ ½), linear probe, backward-shift delete; a key
	// homes at the top bits of its fingerprint, pos[fp>>shift].
	pos   []posBucket //memento:reused (sized at construction; a capture destination sizes once)
	shift uint
	hash  func(K) uint64

	// onEvict, when set, observes the key each saturated Add evicts
	// (before it is replaced); nil costs the eviction branch one compare.
	onEvict func(K)

	// marks, when non-nil (TrackSlots), is a k-bit bitmap of the counter
	// slots Add touched since the last DrainSlotMarks. A monitored key
	// keeps its slot until it is evicted or the sketch is flushed, so
	// the Memento delta plane diffs by slot position and never looks a
	// key up; nil costs each Add branch one compare.
	marks []uint64

	// evictObs counts evictions for the obs plane, independent of
	// onEvict so instrumentation composes with delta tracking. A nil
	// counter is disabled (one compare inside Add's eviction branch).
	evictObs *obs.Counter
}

// stateIDs numbers sketch states process-wide, so a destination copied
// from one sketch never mistakes another's state for the one it holds,
// whatever addresses the sketches have.
var stateIDs atomic.Uint64

// NewWithHash returns a Sketch with capacity k counters (k positive)
// whose internal index hashes keys with hash. Layers that already hash
// every key (internal/shard partitions by hash) pass the same function
// here so one hash computation serves both, via AddHashed. hash may be
// nil, selecting keyidx.DefaultHasher.
func NewWithHash[K comparable](k int, hash func(K) uint64) (*Sketch[K], error) {
	if k <= 0 {
		return nil, errors.New("spacesaving: capacity must be positive")
	}
	const maxK = 1 << 28
	if k > maxK {
		return nil, fmt.Errorf("spacesaving: capacity %d exceeds maximum %d", k, maxK)
	}
	if hash == nil {
		hash = keyidx.DefaultHasher[K]()
	}
	logN := max(3, bits.Len(uint(2*k-1))) // at least 2k index buckets, at least 8
	s := &Sketch[K]{
		counters: make([]counter[K], k),
		buckets:  make([]bucket, k+2),
		pos:      make([]posBucket, 1<<logN),
		shift:    uint(32 - logN),
		hash:     hash,
	}
	s.reset()
	return s, nil
}

// Hash returns the sketch's hash of key, for callers feeding the
// hashed fast paths.
func (s *Sketch[K]) Hash(key K) uint64 { return s.hash(key) }

// reset rebuilds the free lists without allocating.
func (s *Sketch[K]) reset() {
	s.headB = nilIdx
	s.tailB = nilIdx
	s.used = 0
	s.items = 0
	for i := range s.buckets {
		s.buckets[i].next = int32(i) + 1
	}
	s.buckets[len(s.buckets)-1].next = nilIdx
	s.freeB = 0
}

// Cap returns the configured number of counters.
func (s *Sketch[K]) Cap() int { return len(s.counters) }

// Len returns the number of counters currently in use.
func (s *Sketch[K]) Len() int { return int(s.used) }

// Items returns the number of Add calls since the last Flush.
func (s *Sketch[K]) Items() uint64 { return s.items }

// Flush empties the sketch, retaining and reusing all memory. It is
// O(k): the slab bookkeeping and one clear of the position index.
//
//memento:noalloc
func (s *Sketch[K]) Flush() {
	s.touch()
	clear(s.pos)
	s.reset()
}

// touch records one mutation of s's state, first drawing a state id
// of its own if s has not mutated as owner yet (a new sketch, a copy
// by assignment or a CopyInto destination).
func (s *Sketch[K]) touch() {
	if s.owner != s {
		s.owner = s
		s.id = stateIDs.Add(1)
		s.n = 0
		s.fromID = 0
	}
	s.n++
}

// find probes the position index for key, whose hash has fingerprint
// fp: the bucket holding it, or the empty one ending its probe run, and
// its counter slot, nilIdx if key is not monitored.
func (s *Sketch[K]) find(key K, fp uint32) (i uint32, ci int32) {
	mask := uint32(len(s.pos) - 1)
	for i = fp >> s.shift; ; i = (i + 1) & mask {
		b := s.pos[i]
		if b.slot == 0 {
			return i, nilIdx
		}
		if b.fp == fp && s.counters[b.slot-1].key == key {
			return i, b.slot - 1
		}
	}
}

// lookup returns the slot monitoring key (hash h), nilIdx if none.
func (s *Sketch[K]) lookup(key K, h uint64) int32 {
	_, ci := s.find(key, fingerprint(h))
	return ci
}

// index points a bucket at counter ci, whose key has fingerprint fp and
// is not indexed yet.
func (s *Sketch[K]) index(ci int32, fp uint32) {
	mask := uint32(len(s.pos) - 1)
	i := fp >> s.shift
	for s.pos[i].slot != 0 {
		i = (i + 1) & mask
	}
	s.pos[i] = posBucket{fp: fp, slot: ci + 1}
}

// unindex removes counter ci's bucket, found from the fingerprint the
// counter caches rather than by re-hashing its key. The probe run is
// closed by backward shift, so no tombstones are needed: each following
// bucket moves into the hole unless it already sits at (or probes no
// further than) its home.
func (s *Sketch[K]) unindex(ci int32) {
	mask := uint32(len(s.pos) - 1)
	i := s.counters[ci].fp >> s.shift
	for s.pos[i].slot != ci+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.pos[j].slot != 0; j = (j + 1) & mask {
		// Entries whose home lies after i stay put, but the scan goes
		// on: the run can still hold movable entries.
		if (j-s.pos[j].fp>>s.shift)&mask >= (j-i)&mask {
			s.pos[i] = s.pos[j]
			i = j
		}
	}
	s.pos[i] = posBucket{}
}

// allocBucket takes a bucket from the free list.
func (s *Sketch[K]) allocBucket(count uint64) int32 {
	bi := s.freeB
	s.freeB = s.buckets[bi].next
	b := &s.buckets[bi]
	b.count = count
	b.head = nilIdx
	b.prev = nilIdx
	b.next = nilIdx
	return bi
}

// freeBucket unlinks bucket bi from the ascending list and returns it
// to the free list. bi is never the tail: increment frees a bucket only
// once its counter has moved to the bucket after it, so tailB stands.
func (s *Sketch[K]) freeBucket(bi int32) {
	b := &s.buckets[bi]
	if b.prev != nilIdx {
		s.buckets[b.prev].next = b.next
	} else {
		s.headB = b.next
	}
	s.buckets[b.next].prev = b.prev
	b.next = s.freeB
	s.freeB = bi
}

// attach links counter ci at the head of bucket bi.
func (s *Sketch[K]) attach(ci, bi int32) {
	c := &s.counters[ci]
	b := &s.buckets[bi]
	c.bucket = bi
	c.prev = nilIdx
	c.next = b.head
	if b.head != nilIdx {
		s.counters[b.head].prev = ci
	}
	b.head = ci
}

// detach unlinks counter ci from its bucket; the bucket is not freed
// even if it becomes empty (callers decide).
func (s *Sketch[K]) detach(ci int32) {
	c := &s.counters[ci]
	if c.prev != nilIdx {
		s.counters[c.prev].next = c.next
	} else {
		s.buckets[c.bucket].head = c.next
	}
	if c.next != nilIdx {
		s.counters[c.next].prev = c.prev
	}
}

// increment moves counter ci from its bucket to the bucket holding
// count+1, creating that bucket if needed, and returns the new count.
func (s *Sketch[K]) increment(ci int32) uint64 {
	c := &s.counters[ci]
	bi := c.bucket
	b := &s.buckets[bi]
	newCount := b.count + 1
	next := b.next
	var target int32
	if next != nilIdx && s.buckets[next].count == newCount {
		target = next
	} else {
		// Insert a fresh bucket immediately after bi.
		target = s.allocBucket(newCount)
		t := &s.buckets[target]
		t.prev = bi
		t.next = next
		s.buckets[bi].next = target
		if next != nilIdx {
			s.buckets[next].prev = target
		} else {
			s.tailB = target
		}
	}
	s.detach(ci)
	s.attach(ci, target)
	if s.buckets[bi].head == nilIdx {
		s.freeBucket(bi)
	}
	return newCount
}

// Add feeds one occurrence of key and returns its new estimated count.
// The returned value increases by exactly 1 per call for a given
// resident key, which Memento's overflow detection relies on.
//
//memento:noalloc
func (s *Sketch[K]) Add(key K) uint64 { return s.AddHashed(key, s.hash(key)) }

// AddHashed is Add with a caller-computed hash (which must equal
// Hash(key)); callers that already hashed the key for routing avoid a
// second hash computation on the hot path.
//
//memento:noalloc
func (s *Sketch[K]) AddHashed(key K, h uint64) uint64 {
	s.touch()
	s.items++
	fp := fingerprint(h)
	i, ci := s.find(key, fp)
	if ci >= 0 {
		s.mark(ci)
		return s.increment(ci)
	}
	if int(s.used) < len(s.counters) {
		ci := s.used
		s.used++
		s.mark(ci)
		c := &s.counters[ci]
		c.key = key
		c.fp = fp
		c.err = 0
		// The count-1 bucket is the head bucket or a new head.
		if s.headB != nilIdx && s.buckets[s.headB].count == 1 {
			s.attach(ci, s.headB)
		} else {
			bi := s.allocBucket(1)
			b := &s.buckets[bi]
			b.next = s.headB
			if s.headB != nilIdx {
				s.buckets[s.headB].prev = bi
			} else {
				s.tailB = bi
			}
			s.headB = bi
			s.attach(ci, bi)
		}
		s.pos[i] = posBucket{fp: fp, slot: ci + 1} // the empty bucket ending key's probe run
		return 1
	}
	// Full: evict one counter from the minimum bucket.
	ci = s.buckets[s.headB].head
	c := &s.counters[ci]
	minCount := s.buckets[s.headB].count
	s.evictObs.Inc()
	if s.onEvict != nil {
		s.onEvict(c.key)
	}
	s.unindex(ci)
	c.key = key
	c.fp = fp
	c.err = minCount
	s.index(ci, fp)
	s.mark(ci)
	return s.increment(ci)
}

// mark records that Add touched counter slot ci.
func (s *Sketch[K]) mark(ci int32) {
	if s.marks != nil {
		s.marks[ci>>6] |= 1 << (uint32(ci) & 63)
	}
}

// Min returns the minimum counter value, or 0 while free counters
// remain. Queries for unmonitored keys return this value (the upper
// bound Space Saving guarantees).
func (s *Sketch[K]) Min() uint64 {
	if int(s.used) < len(s.counters) || s.headB == nilIdx {
		return 0
	}
	return s.buckets[s.headB].count
}

// Query returns the estimated count of key: its counter value when
// monitored, otherwise Min().
//
//memento:noalloc
func (s *Sketch[K]) Query(key K) uint64 { return s.QueryHashed(key, s.hash(key)) }

// QueryHashed is Query with a caller-computed hash (which must equal
// Hash(key)); query paths that probe both the Memento overflow table
// and this index hash the key once and feed both.
//
//memento:noalloc
func (s *Sketch[K]) QueryHashed(key K, h uint64) uint64 {
	if ci := s.lookup(key, h); ci >= 0 {
		return s.buckets[s.counters[ci].bucket].count
	}
	return s.Min()
}

// SetEvictHook installs fn as the eviction observer: every saturated
// Add that replaces a monitored key first passes the outgoing key to
// fn. Pass nil to remove the hook. CopyInto does not propagate it
// (copies are read-only snapshots), and RestoreEntry bypasses it.
func (s *Sketch[K]) SetEvictHook(fn func(K)) { s.onEvict = fn }

// TrackSlots switches on slot marking: from now on every Add sets the
// bit of the counter slot it incremented, allocated or re-keyed.
// Idempotent. CopyInto does not propagate the marks (copies are
// read-only snapshots); RestoreEntry does not mark — a restore
// invalidates whatever the marks described.
func (s *Sketch[K]) TrackSlots() {
	if s.marks == nil {
		s.marks = make([]uint64, (len(s.counters)+63)/64)
	}
}

// DrainSlotMarks copies the slot bitmap into dst (bit i set: Add
// touched slot i since the previous drain), clears the live one and
// returns dst resized to ⌈Cap()/64⌉ words. Flush does not clear marks,
// so a bit may name a slot at or past Len(); such a slot holds nothing.
// Without TrackSlots the result is empty.
//
//memento:noalloc
func (s *Sketch[K]) DrainSlotMarks(dst []uint64) []uint64 {
	dst = append(dst[:0], s.marks...)
	clear(s.marks)
	return dst
}

// Slot returns the counter held by slot i, 0 ≤ i < Len(). A key keeps
// the slot Add gave it until it is evicted (the slot is re-keyed in
// place) or the sketch is flushed, and CopyInto preserves slot
// numbers, so position identifies a counter across captures.
//
//memento:noalloc
func (s *Sketch[K]) Slot(i int) Counter[K] {
	c := &s.counters[i]
	return Counter[K]{Key: c.key, Count: s.buckets[c.bucket].count, Err: c.err}
}

// SlotOfHashed returns the slot monitoring key, or -1, given the
// caller-computed hash (which must equal Hash(key)).
//
//memento:noalloc
func (s *Sketch[K]) SlotOfHashed(key K, h uint64) int { return int(s.lookup(key, h)) }

// SetEvictCounter installs c as the eviction counter (nil disables):
// every saturated Add increments it. Orthogonal to SetEvictHook so
// observability composes with delta tracking.
func (s *Sketch[K]) SetEvictCounter(c *obs.Counter) { s.evictObs = c }

// LookupHashed returns key's monitored counter, if any, given its hash
// h (which must equal Hash(key)). Unlike Query it distinguishes
// "monitored with count c" from "absent, Min() = c" and carries the
// per-counter error term.
//
//memento:noalloc
func (s *Sketch[K]) LookupHashed(key K, h uint64) (Counter[K], bool) {
	ci := s.lookup(key, h)
	if ci < 0 {
		return Counter[K]{}, false
	}
	c := &s.counters[ci]
	return Counter[K]{Key: key, Count: s.buckets[c.bucket].count, Err: c.err}, true
}

// QueryBounds returns upper and lower bounds for key's true count:
// upper = counter value (or Min for unmonitored keys), lower =
// upper − Err (0 for unmonitored keys).
func (s *Sketch[K]) QueryBounds(key K) (upper, lower uint64) {
	return s.QueryBoundsHashed(key, s.hash(key))
}

// QueryBoundsHashed is QueryBounds with a caller-computed hash.
func (s *Sketch[K]) QueryBoundsHashed(key K, h uint64) (upper, lower uint64) {
	if ci := s.lookup(key, h); ci >= 0 {
		c := &s.counters[ci]
		upper = s.buckets[c.bucket].count
		lower = upper - c.err
		return upper, lower
	}
	return s.Min(), 0
}

// CopyInto overwrites dst with a point-in-time copy of s, reusing
// dst's slabs when they are large enough, after which the copy answers
// Query/QueryBounds/Min/Iterate/Slot lock-free exactly as s did at copy
// time. dst may be a zero Sketch.
//
// When dst was last copied from s's current state and has not been
// mutated since, its slabs already hold that state and only the
// scalars are copied; otherwise the copy is three slab memmoves plus
// scalars — cheap enough to run under a shard lock either way.
func (s *Sketch[K]) CopyInto(dst *Sketch[K]) {
	if s.owner != s || dst.fromID != s.id || dst.fromN != s.n {
		dst.counters = append(dst.counters[:0], s.counters...)
		dst.buckets = append(dst.buckets[:0], s.buckets...)
		dst.pos = append(dst.pos[:0], s.pos...)
	}
	dst.shift = s.shift
	dst.hash = s.hash
	dst.headB = s.headB
	dst.tailB = s.tailB
	dst.freeB = s.freeB
	dst.used = s.used
	dst.items = s.items
	// dst holds no state of its own now: its next mutation draws an id.
	dst.owner = nil
	dst.fromID, dst.fromN = 0, 0
	if s.owner == s {
		dst.fromID, dst.fromN = s.id, s.n
	}
}

// RestoreEntry installs key with an explicit count and error term
// during a restore or decode: the durable-codec path (internal/codec,
// core.Sketch.RestoreFrom) rebuilds a sketch's monitored set entry by
// entry under the live index's own hash function instead of trusting
// a foreign slab layout. The sketch must have a free counter and must
// not already monitor key. Feeding entries in non-decreasing count
// order (the wire format's order, and Iterate's) makes each insert
// O(1) — the bucket walk resumes at the previous entry's bucket; other
// orders are correct but walk from the minimum.
func (s *Sketch[K]) RestoreEntry(key K, count, err uint64) error {
	if int(s.used) >= len(s.counters) {
		return fmt.Errorf("spacesaving: restore exceeds %d counters", len(s.counters))
	}
	if count == 0 {
		return errors.New("spacesaving: restored count must be positive")
	}
	if err >= count {
		return fmt.Errorf("spacesaving: restored error %d not below count %d", err, count)
	}
	h := s.hash(key)
	if s.lookup(key, h) >= 0 {
		return errors.New("spacesaving: duplicate restored key")
	}
	s.insertAt(key, count, err, h)
	return nil
}

// SetItems overrides the Add-call count (restore bookkeeping only;
// Add maintains it itself).
func (s *Sketch[K]) SetItems(n uint64) {
	s.touch()
	s.items = n
}

// Counter reports one monitored entry.
type Counter[K comparable] struct {
	Key   K
	Count uint64
	Err   uint64
}

// Iterate calls fn for every monitored counter until fn returns false.
// The iteration order is unspecified. The sketch must not be mutated
// during iteration.
func (s *Sketch[K]) Iterate(fn func(Counter[K]) bool) { s.iterateFrom(s.headB, fn) }

// IterateAtLeast is Iterate restricted to the counters whose count is
// at least min, handed to fn in Iterate's order. It walks down from the
// largest bucket to the first below min and iterates upward from there,
// so it costs the passing counters plus one bucket, whatever k is.
func (s *Sketch[K]) IterateAtLeast(min uint64, fn func(Counter[K]) bool) {
	bi := s.headB
	if bi != nilIdx && s.buckets[bi].count < min {
		// Some bucket is below min, the head at least: start right above
		// the largest such one.
		lo := s.tailB
		for s.buckets[lo].count >= min {
			lo = s.buckets[lo].prev
		}
		bi = s.buckets[lo].next
	}
	s.iterateFrom(bi, fn)
}

// iterateFrom is Iterate starting at bucket bi.
func (s *Sketch[K]) iterateFrom(bi int32, fn func(Counter[K]) bool) {
	for ; bi != nilIdx; bi = s.buckets[bi].next {
		count := s.buckets[bi].count
		for ci := s.buckets[bi].head; ci != nilIdx; ci = s.counters[ci].next {
			c := &s.counters[ci]
			if !fn(Counter[K]{Key: c.key, Count: count, Err: c.err}) {
				return
			}
		}
	}
}

// insertAt installs key (with hash h) at an explicit count;
// RestoreEntry builds sketches with it.
func (s *Sketch[K]) insertAt(key K, count, err, h uint64) {
	if int(s.used) >= len(s.counters) {
		return
	}
	s.touch()
	ci := s.used
	s.used++
	c := &s.counters[ci]
	c.key = key
	c.fp = fingerprint(h)
	c.err = err
	s.index(ci, c.fp)
	// Find the insert position. Both callers feed ascending counts, so
	// the walk starts at the bucket of the counter allocated just before
	// this one (live by construction: slots fill in order and a counter
	// always names its current bucket) and the target is that bucket or
	// a new one right after it; any other order falls back to walking
	// from the minimum.
	var prev int32 = nilIdx
	bi := s.headB
	if ci > 0 {
		if last := s.counters[ci-1].bucket; s.buckets[last].count <= count {
			prev, bi = s.buckets[last].prev, last
		}
	}
	for bi != nilIdx && s.buckets[bi].count < count {
		prev = bi
		bi = s.buckets[bi].next
	}
	if bi != nilIdx && s.buckets[bi].count == count {
		s.attach(ci, bi)
		return
	}
	nb := s.allocBucket(count)
	b := &s.buckets[nb]
	b.prev = prev
	b.next = bi
	if prev != nilIdx {
		s.buckets[prev].next = nb
	} else {
		s.headB = nb
	}
	if bi != nilIdx {
		s.buckets[bi].prev = nb
	} else {
		s.tailB = nb
	}
	s.attach(ci, nb)
}

// SetHashed makes key's counter read count, with error term err: a
// monitored key moves from its own bucket to the bucket holding count,
// walking the bucket list from there, and an unmonitored one takes the
// next free counter, placed by a walk up from the minimum (where a
// replicated newcomer usually lands). h must equal Hash(key). It fails,
// leaving the sketch unchanged, on a zero count, an error term not
// below the count, or a new key when every counter is in use. It
// serves followers that patch a replica in place (internal/delta); like
// RestoreEntry it does not mark slots.
//
//memento:noalloc
func (s *Sketch[K]) SetHashed(key K, h uint64, count, err uint64) error {
	if count == 0 || err >= count {
		return errSetCount
	}
	fp := fingerprint(h)
	i, ci := s.find(key, fp)
	if ci < 0 {
		if int(s.used) >= len(s.counters) {
			return errSetFull
		}
		s.touch()
		ci = s.used
		s.used++
		c := &s.counters[ci]
		c.key, c.fp, c.err = key, fp, err
		s.pos[i] = posBucket{fp: fp, slot: ci + 1} // the empty bucket ending key's probe run
		s.settle(ci, nilIdx, count)
		return nil
	}
	s.touch()
	c := &s.counters[ci]
	c.err = err
	bi := c.bucket
	if s.buckets[bi].count == count {
		return nil
	}
	s.detach(ci)
	s.settle(ci, bi, count)
	if s.buckets[bi].head == nilIdx {
		s.unlinkBucket(bi)
	}
	return nil
}

// SetHashed's rejections.
var (
	errSetCount = errors.New("spacesaving: set count must be positive, with an error term below it")
	errSetFull  = errors.New("spacesaving: set of a new key with every counter in use")
)

// settle attaches the detached counter ci to the bucket holding count,
// creating it if needed. The walk starts at bucket from — the counter's
// old bucket, which stays linked (even when emptied) until the caller
// frees it — or at the minimum when from is nilIdx, and moves toward
// count one bucket at a time.
func (s *Sketch[K]) settle(ci, from int32, count uint64) {
	// Find the neighbours prev.count < count ≤ next.count.
	prev, next := nilIdx, s.headB
	if from != nilIdx {
		if s.buckets[from].count < count {
			prev, next = from, s.buckets[from].next
		} else {
			prev, next = s.buckets[from].prev, from
		}
	}
	for next != nilIdx && s.buckets[next].count < count {
		prev, next = next, s.buckets[next].next
	}
	for prev != nilIdx && s.buckets[prev].count >= count {
		prev, next = s.buckets[prev].prev, prev
	}
	if next != nilIdx && s.buckets[next].count == count {
		s.attach(ci, next)
		return
	}
	nb := s.allocBucket(count)
	b := &s.buckets[nb]
	b.prev, b.next = prev, next
	if prev != nilIdx {
		s.buckets[prev].next = nb
	} else {
		s.headB = nb
	}
	if next != nilIdx {
		s.buckets[next].prev = nb
	} else {
		s.tailB = nb
	}
	s.attach(ci, nb)
}

// unlinkBucket removes the empty bucket bi from the ascending list,
// wherever it sits, and returns it to the free list.
func (s *Sketch[K]) unlinkBucket(bi int32) {
	b := &s.buckets[bi]
	if b.prev != nilIdx {
		s.buckets[b.prev].next = b.next
	} else {
		s.headB = b.next
	}
	if b.next != nilIdx {
		s.buckets[b.next].prev = b.prev
	} else {
		s.tailB = b.prev
	}
	b.next = s.freeB
	s.freeB = bi
}

// RemoveHashed stops monitoring key and reports whether it was
// monitored; h must equal Hash(key). The last slot in use moves into
// the freed one, so slot numbers stay dense: like SetHashed it serves
// replicas, never a sketch whose slots are tracked.
//
//memento:noalloc
func (s *Sketch[K]) RemoveHashed(key K, h uint64) bool {
	_, ci := s.find(key, fingerprint(h))
	if ci < 0 {
		return false
	}
	s.touch()
	bi := s.counters[ci].bucket
	s.detach(ci)
	if s.buckets[bi].head == nilIdx {
		s.unlinkBucket(bi)
	}
	s.unindex(ci)
	last := s.used - 1
	s.used--
	if ci == last {
		return true
	}
	// Move the last counter into slot ci: its list neighbours and its
	// index bucket follow it.
	c := &s.counters[ci]
	*c = s.counters[last]
	if c.prev != nilIdx {
		s.counters[c.prev].next = ci
	} else {
		s.buckets[c.bucket].head = ci
	}
	if c.next != nilIdx {
		s.counters[c.next].prev = ci
	}
	mask := uint32(len(s.pos) - 1)
	i := c.fp >> s.shift
	for s.pos[i].slot != last+1 {
		i = (i + 1) & mask
	}
	s.pos[i].slot = ci + 1
	return true
}

// Grow raises the sketch's capacity to n counters, keeping every
// counter in its slot; a smaller n does nothing. Min() reads 0 while
// fewer counters than the capacity are in use, so a replica that sizes
// itself by what it holds grows before it would read as saturated.
// Like SetHashed it serves replicas, never a sketch whose slots are
// tracked.
func (s *Sketch[K]) Grow(n int) {
	if n <= len(s.counters) {
		return
	}
	s.touch()
	s.counters = append(s.counters, make([]counter[K], n-len(s.counters))...)
	// The new buckets join the free list ahead of the old free ones.
	old := int32(len(s.buckets))
	s.buckets = append(s.buckets, make([]bucket, n+2-len(s.buckets))...)
	for i := old; i < int32(len(s.buckets)); i++ {
		s.buckets[i].next = i + 1
	}
	s.buckets[len(s.buckets)-1].next = s.freeB
	s.freeB = old
	if logN := max(3, bits.Len(uint(2*n-1))); 1<<logN > len(s.pos) {
		s.pos = make([]posBucket, 1<<logN)
		s.shift = uint(32 - logN)
		for ci := int32(0); ci < s.used; ci++ {
			s.index(ci, s.counters[ci].fp)
		}
	}
}

// Validate checks the stream summary's structure: bucket counts
// strictly ascending from headB to tailB with consistent back links,
// no empty bucket in the list, every counter in use on the list of the
// bucket it names with its error term below the count, and the
// position index naming each counter in use exactly once, under its
// key's fingerprint and reachable from its home. It returns the first
// violation. Tests and fuzzers of the in-place mutators call it.
func (s *Sketch[K]) Validate() error {
	seen := 0
	last := nilIdx
	for bi := s.headB; bi != nilIdx; bi = s.buckets[bi].next {
		b := &s.buckets[bi]
		if last != nilIdx && b.count <= s.buckets[last].count {
			return fmt.Errorf("spacesaving: bucket counts not strictly ascending: %d after %d", b.count, s.buckets[last].count)
		}
		if b.prev != last {
			return fmt.Errorf("spacesaving: bucket %d links back to %d, reached from %d", bi, b.prev, last)
		}
		if b.head == nilIdx {
			return fmt.Errorf("spacesaving: bucket %d (count %d) holds no counter", bi, b.count)
		}
		prevC := nilIdx
		for ci := b.head; ci != nilIdx; ci = s.counters[ci].next {
			c := &s.counters[ci]
			switch {
			case ci >= s.used:
				return fmt.Errorf("spacesaving: bucket %d lists unused slot %d", bi, ci)
			case c.bucket != bi:
				return fmt.Errorf("spacesaving: slot %d names bucket %d, listed in %d", ci, c.bucket, bi)
			case c.prev != prevC:
				return fmt.Errorf("spacesaving: slot %d links back to %d, reached from %d", ci, c.prev, prevC)
			case c.err >= b.count:
				return fmt.Errorf("spacesaving: slot %d error %d not below count %d", ci, c.err, b.count)
			}
			prevC = ci
			if seen++; seen > int(s.used) {
				return fmt.Errorf("spacesaving: bucket lists hold more than the %d counters in use", s.used)
			}
		}
		last = bi
	}
	if seen != int(s.used) {
		return fmt.Errorf("spacesaving: bucket lists hold %d counters, %d in use", seen, s.used)
	}
	if s.tailB != last {
		return fmt.Errorf("spacesaving: tailB is %d, the largest bucket %d", s.tailB, last)
	}
	indexed := 0
	for _, b := range s.pos {
		if b.slot != 0 {
			indexed++
		}
	}
	if indexed != int(s.used) {
		return fmt.Errorf("spacesaving: index holds %d slots, %d in use", indexed, s.used)
	}
	// With as many index buckets as counters, finding each counter's own
	// bucket means every counter is named exactly once.
	for ci := int32(0); ci < s.used; ci++ {
		c := &s.counters[ci]
		if c.fp != fingerprint(s.hash(c.key)) {
			return fmt.Errorf("spacesaving: slot %d caches fingerprint %#x, its key hashes to %#x", ci, c.fp, fingerprint(s.hash(c.key)))
		}
		if _, at := s.find(c.key, c.fp); at != ci {
			return fmt.Errorf("spacesaving: slot %d's key is indexed at slot %d", ci, at)
		}
	}
	return nil
}
