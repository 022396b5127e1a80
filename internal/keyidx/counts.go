package keyidx

import (
	"errors"
	"math/bits"
	"sync/atomic"
)

// Count is one Counts entry: a key and its positive count.
type Count[K comparable] struct {
	Key K
	Val int32
}

// Counts is the key→count table behind Memento's overflow table B: the
// live entries sit packed in one slab (append on insert, swap-remove on
// delete) and a bucket array of int32 — entry position + 1, 0 = empty,
// linear probe, backward-shift delete, load ≤ ½ — finds them. Reading
// every entry is a range over Entries. The bucket count is exactly
// twice the reserved capacity, not a power of two (a multiply-shift
// maps the hash onto it), so a copy carries no rounding slack either.
//
// No hash is stored: the bucket home of an entry that a delete shifts
// or re-points, or that growth reinserts, is recomputed from its key.
// There are no generation stamps either, so Flush clears the bucket
// array — B is flushed only by a sketch Reset; tables flushed per frame
// or per query belong on Index.
//
// A table built by NewCounts journals its mutations in a ring (see
// journal), so CopyInto brings a destination it copied before up to
// date by replaying what changed since, and copies in full — three
// memmoves, 4 bytes per bucket, one entry per key held and, for each
// tier rung, one bit per reserved entry and one per bitmap word — only
// when the ring no longer reaches back that far.
//
// A ladder of bitmaps over the entry slab marks the heavy tier: one
// bitmap per rung, marking the entries whose count has reached that
// rung's threshold (tierMin, 2·tierMin, … ; see tierRungs), and beside
// each a word map marking the bitmap's non-zero words. Every mutator
// keeps every rung and map exact in O(1). ForEachAtLeast ranges only
// the positions marked on the highest rung a request reaches, reading
// only the words its map marks, so a read that wants the few heavy
// entries of a large table walks neither the rest nor the empty words
// between them, and one that wants fewer still walks fewer.
//
// Construct with NewCounts; the zero value is only a CopyInto
// destination. Not safe for concurrent use.
type Counts[K comparable] struct {
	entries []Count[K] //memento:reused (reserved at construction; growth past it is the cold path)
	buckets []int32    //memento:reused (doubles only when entries outgrow the reserved capacity)
	// tier is the ladder: tierRungs bitmaps of w words each, rung r at
	// word r·w, then tierRungs word maps of m words each, rung r's at
	// word tierRungs·w + r·m (w, m = tierLayout(len(buckets))). Rung r
	// has bit p set iff entries[p].Val ≥ tierMin<<r, and its map has
	// bit i set iff the rung's word i is non-zero. A rung holds one bit
	// per reserved entry (half the bucket count), so the length follows
	// from the buckets alone and a replayed copy matches a full one.
	tier []uint64 //memento:reused (grows with the buckets)
	hash func(K) uint64

	// log is the mutation ring CopyInto replays from; nil on a CopyInto
	// destination, and dropped by a copy made by assignment once the
	// original has written to it.
	log *journal[K]
	// from and at name the state this table was last copied as: journal
	// from after its at-th op. 0 (no journal id is 0) once anything
	// mutates the table, so only an untouched copy is ever replayed onto.
	from, at uint64
}

// opKind names the mutation a journal entry replays.
type opKind uint8

const (
	opInc opKind = iota // IncH(key, val)
	opDec               // DecH(key)
	opPut               // PutH(key, val)
	opDel               // DeleteH(key)
)

// journalOp is one journaled mutation: a key, its value operand and the
// operation.
type journalOp[K comparable] struct {
	key K
	val int32
	op  opKind
}

// journal is the ring of a table's most recent mutations. Replaying a
// table's operations in order on an identical copy yields byte-identical
// slabs — the same entry order and bucket positions, hence the same
// answers and the same sweep order — so a destination that holds the
// state after op n of journal id needs only ops n..seq.
//
// The ring holds one op per 64 buckets, rounded up to a power of two
// and at least 64 (journalLen): replaying one op (a hash and a probe)
// costs about what copying 64 buckets does, so a destination further
// behind than the ring reaches is better served by the full copy.
type journal[K comparable] struct {
	ops []journalOp[K] // op n sits at n & (len(ops)-1)
	id  uint64         // drawn from journalIDs; a fresh one on every Flush
	seq uint64         // ops written under id
	// owner is the one table that writes here: the first to mutate. A
	// Counts copied by assignment shares the journal pointer, and
	// whichever of the two mutates second stops journaling (and is
	// never replayed from) instead of writing into the other's ring.
	owner *Counts[K]
}

// tierMin is the count from which an entry belongs to the heavy tier,
// and the threshold of the ladder's lowest rung; each of the
// tierRungs−1 rungs above doubles it, to 8, 16 and 32. Both are
// constants of the table, not options: what they trade is how many
// entries a rung holds (entries a tier range visits) against how low a
// floor can still take the tier path, and bits a mutator flips against
// a range's reach. On a 2D sketch of 256·H counters under a 0.5 Mpkt/s
// stream (the benchmark's dev2d-query), each shard's B holds ≈ 28 000
// entries, of which 94 % hold 1 and ≈ 540 at least 4, and the cuts of
// its phase-1 sweeps run 9–41 (all 602 428 shard sweeps of a 20 s
// seed-1 run); on dev1d-ingest they run up to 5. tierMin = 4 keeps the
// lowest rung near 2 % of the table with room below every 2D cut, but
// a single tier there handed a sweep ≈ 540 entries of which ≈ 90 %
// then failed the test on b. The rungs above follow the cut: 8–15
// ranges the 8 rung, 16–31 the 16 rung, 32 and up the 32 rung, and the
// same run ranged 80 entries a sweep. A ±1 change crosses at most one
// threshold, so it flips at most one bit.
const (
	tierMin   = 4
	tierRungs = 4
)

// tierLayout returns the length, in words, of one rung's bitmap for a
// table of the given bucket count (w: one bit per reserved entry) and
// of its word map (m: one bit per bitmap word).
func tierLayout(buckets int) (w, m int) {
	w = (buckets/2 + 63) / 64
	return w, (w + 63) / 64
}

// tierLen returns the length of the tier slab for a table of the given
// bucket count: every rung's bitmap and word map.
func tierLen(buckets int) int {
	w, m := tierLayout(buckets)
	return tierRungs * (w + m)
}

// journalIDs numbers journal states process-wide, so a destination
// copied from one table (or one epoch of it) never replays another's
// ring, whatever addresses the tables have.
var journalIDs atomic.Uint64

// journalLen returns the ring length for a table of the given bucket
// count (see journal).
func journalLen(buckets int) int {
	n := 64
	for n < buckets/64 {
		n <<= 1
	}
	return n
}

// restart begins a new journal state: destinations copied from an
// earlier one copy in full next time.
func (j *journal[K]) restart() {
	j.id = journalIDs.Add(1)
	j.seq = 0
}

// NewCounts returns a Counts with slab and buckets reserved for
// capacity entries, so it holds that many without allocating, and with
// its mutation journal. hash may be nil, selecting the same default as
// New.
func NewCounts[K comparable](capacity int, hash func(K) uint64) (*Counts[K], error) {
	if capacity <= 0 {
		return nil, errors.New("keyidx: capacity must be positive")
	}
	if capacity > maxCap {
		return nil, errors.New("keyidx: capacity too large")
	}
	if hash == nil {
		hash = DefaultHasher[K]()
	}
	log := &journal[K]{ops: make([]journalOp[K], journalLen(2*capacity))}
	log.restart()
	return &Counts[K]{
		entries: make([]Count[K], 0, capacity),
		buckets: make([]int32, 2*capacity),
		tier:    make([]uint64, tierLen(2*capacity)),
		hash:    hash,
		log:     log,
	}, nil
}

// MustNewCounts is NewCounts for statically valid capacities; it
// panics on error.
func MustNewCounts[K comparable](capacity int, hash func(K) uint64) *Counts[K] {
	c, err := NewCounts(capacity, hash)
	if err != nil {
		panic(err)
	}
	return c
}

// Hash returns the table's hash of key; callers that have it already
// use the *H variants.
func (c *Counts[K]) Hash(key K) uint64 { return c.hash(key) }

// home maps hash h onto the bucket array: the high word of the spread
// hash times the bucket count.
func (c *Counts[K]) home(h uint64) uint64 {
	hi, _ := bits.Mul64(h*fibMul, uint64(len(c.buckets)))
	return hi
}

// next is the bucket probed after i.
func (c *Counts[K]) next(i uint64) uint64 {
	if i++; i == uint64(len(c.buckets)) {
		return 0
	}
	return i
}

// span is the number of probe steps from bucket from to bucket to.
func (c *Counts[K]) span(from, to uint64) uint64 {
	if to < from {
		to += uint64(len(c.buckets))
	}
	return to - from
}

// Len returns the number of entries.
func (c *Counts[K]) Len() int { return len(c.entries) }

// Entries returns the live entries, oldest insertion first except
// where a delete moved the last entry into the freed position. The
// slice is the table's own: read-only, valid until the next mutation.
func (c *Counts[K]) Entries() []Count[K] { return c.entries }

// ForEachAtLeast calls fn, in entry order, with the position and value
// of a superset of the entries holding at least min, until fn returns
// false, and reports whether it ran to the end. With min at or above
// tierMin the superset is the highest tier rung whose threshold min
// reaches, read through its word map; below it, every entry. Each
// entry it passes over holds less than min, so a caller that still
// tests each entry it is handed sees, in the same order, what a range
// over Entries would show it. The entries are read-only for the
// duration.
func (c *Counts[K]) ForEachAtLeast(min int32, fn func(pos int, e Count[K]) bool) bool {
	if min < tierMin {
		for p, e := range c.entries {
			if !fn(p, e) {
				return false
			}
		}
		return true
	}
	r := bits.Len32(uint32(min/tierMin)) - 1 // the highest rung with tierMin<<r ≤ min
	if r >= tierRungs {
		r = tierRungs - 1
	}
	rung, words := c.rung(r)
	for j, occupied := range words {
		for occupied != 0 {
			i := j<<6 | bits.TrailingZeros64(occupied)
			occupied &= occupied - 1
			for word := rung[i]; word != 0; word &= word - 1 {
				p := i<<6 | bits.TrailingZeros64(word)
				if !fn(p, c.entries[p]) {
					return false
				}
			}
		}
	}
	return true
}

// rung returns the bitmap of tier rung r and its word map.
func (c *Counts[K]) rung(r int) (bitmap, words []uint64) {
	w, m := tierLayout(len(c.buckets))
	return c.tier[r*w : (r+1)*w], c.tier[tierRungs*w+r*m : tierRungs*w+(r+1)*m]
}

// retier flips entry pos's bit on every rung whose threshold its count
// crossed moving from old to val, and keeps each flipped word's bit in
// its rung's word map.
func (c *Counts[K]) retier(pos int32, old, val int32) {
	if old < tierMin && val < tierMin {
		return // below every rung: the bulk of the table
	}
	i := pos >> 6
	for r := range tierRungs {
		if m := int32(tierMin) << r; (old >= m) != (val >= m) {
			rung, words := c.rung(r)
			rung[i] ^= 1 << (pos & 63)
			if rung[i] != 0 {
				words[i>>6] |= 1 << (i & 63)
			} else {
				words[i>>6] &^= 1 << (i & 63)
			}
		}
	}
}

// Flush empties the table, keeping its memory. Its journal starts a new
// state, so every destination copies the emptied table in full.
func (c *Counts[K]) Flush() {
	c.entries = c.entries[:0]
	clear(c.buckets)
	clear(c.tier)
	c.from = 0
	if j := c.writer(); j != nil {
		j.restart()
	}
}

// writer returns c's journal if c is the table that writes it, claiming
// an unowned one, and nil otherwise (dropping a journal another table
// owns).
func (c *Counts[K]) writer() *journal[K] {
	j := c.log
	if j != nil && j.owner != c {
		if j.owner != nil {
			c.log = nil
			return nil
		}
		j.owner = c
	}
	return j
}

// record notes one mutation: c no longer holds the state it was last
// copied as, and its journal, if it writes one, gains the op.
func (c *Counts[K]) record(op opKind, key K, val int32) {
	c.from = 0
	if j := c.writer(); j != nil {
		j.ops[j.seq&uint64(len(j.ops)-1)] = journalOp[K]{key: key, val: val, op: op}
		j.seq++
	}
}

// CopyInto overwrites dst with a point-in-time copy of c, reusing
// dst's slabs when they are large enough. dst may be a zero Counts;
// afterwards it answers exactly as c did at copy time, down to entry
// order and bucket positions, and shares nothing with it. dst keeps no
// journal of its own: a copy is read, not copied from.
//
// When dst was last copied from c, has not been mutated since, and c's
// journal still holds every op since that copy, those ops are replayed
// on dst (one hash and probe each); otherwise the copy is one memmove
// each of the buckets, the live entries and the tier ladder.
//
//memento:noalloc
func (c *Counts[K]) CopyInto(dst *Counts[K]) {
	j := c.log
	if j != nil && j.owner != nil && j.owner != c {
		j = nil // c is a copy by assignment; the ring records another table
	}
	dst.log = nil
	if j != nil && dst.from == j.id && j.seq-dst.at <= uint64(len(j.ops)) {
		mask := uint64(len(j.ops) - 1)
		for n := dst.at; n < j.seq; n++ {
			dst.apply(&j.ops[n&mask])
		}
	} else {
		dst.buckets = append(dst.buckets[:0], c.buckets...)
		dst.entries = append(dst.entries[:0], c.entries...)
		dst.tier = append(dst.tier[:0], c.tier...)
		dst.hash = c.hash
	}
	dst.from = 0
	if j != nil {
		dst.from, dst.at = j.id, j.seq
	}
}

// apply replays one journaled op through the unjournaled mutators.
func (c *Counts[K]) apply(op *journalOp[K]) {
	h := c.hash(op.key)
	switch op.op {
	case opInc:
		c.inc(op.key, op.val, h)
	case opDec:
		c.dec(op.key, h)
	case opPut:
		c.put(op.key, op.val, h)
	case opDel:
		c.del(op.key, h)
	}
}

// find probes for key: the bucket it occupies (or the empty one that
// ends its probe run) and its entry position, -1 if absent.
func (c *Counts[K]) find(key K, h uint64) (bucket uint64, pos int32) {
	for i := c.home(h); ; i = c.next(i) {
		b := c.buckets[i]
		if b == 0 {
			return i, -1
		}
		if c.entries[b-1].Key == key {
			return i, b - 1
		}
	}
}

// Get returns the count stored for key.
func (c *Counts[K]) Get(key K) (int32, bool) { return c.GetH(key, c.hash(key)) }

// GetH is Get with a caller-computed hash (which must equal
// c.Hash(key)).
//
//memento:noalloc
func (c *Counts[K]) GetH(key K, h uint64) (int32, bool) {
	if _, pos := c.find(key, h); pos >= 0 {
		return c.entries[pos].Val, true
	}
	return 0, false
}

// Put stores val for key, inserting or overwriting.
func (c *Counts[K]) Put(key K, val int32) { c.PutH(key, val, c.hash(key)) }

// PutH is Put with a caller-computed hash.
//
//memento:noalloc
func (c *Counts[K]) PutH(key K, val int32, h uint64) {
	c.record(opPut, key, val)
	c.put(key, val, h)
}

// put is PutH without the journal.
func (c *Counts[K]) put(key K, val int32, h uint64) {
	i, pos := c.find(key, h)
	if pos >= 0 {
		c.retier(pos, c.entries[pos].Val, val)
		c.entries[pos].Val = val
		return
	}
	c.place(i, key, val)
}

// IncH adds delta to key's count, inserting it at delta if absent, and
// returns the new count; h is the caller-computed hash of key.
//
//memento:noalloc
func (c *Counts[K]) IncH(key K, delta int32, h uint64) int32 {
	c.record(opInc, key, delta)
	return c.inc(key, delta, h)
}

// inc is IncH without the journal.
func (c *Counts[K]) inc(key K, delta int32, h uint64) int32 {
	i, pos := c.find(key, h)
	if pos >= 0 {
		e := &c.entries[pos]
		old := e.Val
		e.Val += delta
		c.retier(pos, old, e.Val)
		return e.Val
	}
	c.place(i, key, delta)
	return delta
}

// Dec decrements key's count, deleting the entry when it reaches zero;
// it reports whether the key was present.
func (c *Counts[K]) Dec(key K) bool { return c.DecH(key, c.hash(key)) }

// DecH is Dec with a caller-computed hash.
//
//memento:noalloc
func (c *Counts[K]) DecH(key K, h uint64) bool {
	if !c.dec(key, h) {
		return false
	}
	c.record(opDec, key, 0)
	return true
}

// dec is DecH without the journal.
func (c *Counts[K]) dec(key K, h uint64) bool {
	i, pos := c.find(key, h)
	if pos < 0 {
		return false
	}
	e := &c.entries[pos]
	e.Val--
	c.retier(pos, e.Val+1, e.Val)
	if e.Val <= 0 {
		c.remove(i, pos)
	}
	return true
}

// DeleteH removes key, under a caller-computed hash, and reports
// whether it was present.
//
//memento:noalloc
func (c *Counts[K]) DeleteH(key K, h uint64) bool {
	if !c.del(key, h) {
		return false
	}
	c.record(opDel, key, 0)
	return true
}

// del is DeleteH without the journal.
func (c *Counts[K]) del(key K, h uint64) bool {
	i, pos := c.find(key, h)
	if pos < 0 {
		return false
	}
	c.remove(i, pos)
	return true
}

// place appends a new entry behind the known-empty bucket i and marks
// it on every tier rung its count starts on, or grows the buckets past
// load ½, which marks every entry.
func (c *Counts[K]) place(i uint64, key K, val int32) {
	c.entries = append(c.entries, Count[K]{Key: key, Val: val})
	pos := int32(len(c.entries) - 1)
	c.buckets[i] = pos + 1
	if 2*len(c.entries) > len(c.buckets) {
		c.grow()
		return
	}
	c.retier(pos, 0, val)
}

// grow doubles the bucket array and reinserts every entry. It runs only
// when the caller exceeds the capacity reserved at construction. The
// ladder takes the new layout and is rebuilt from the counts.
func (c *Counts[K]) grow() {
	c.buckets = append(c.buckets, c.buckets...) // twice the length; contents rebuilt below
	clear(c.buckets)
	for n := tierLen(len(c.buckets)); len(c.tier) < n; {
		c.tier = append(c.tier, 0)
	}
	clear(c.tier)
	for pos := range c.entries {
		i := c.home(c.hash(c.entries[pos].Key))
		for c.buckets[i] != 0 {
			i = c.next(i)
		}
		c.buckets[i] = int32(pos + 1)
		c.retier(int32(pos), 0, c.entries[pos].Val)
	}
}

// remove deletes the entry at pos, found through bucket i. The bucket
// run is closed by backward shift, so no tombstones are needed: each
// following bucket moves into the hole unless its entry already sits
// at (or probes no further than) its home. The slab stays dense by
// moving the last entry, and its bit on every tier rung, into pos and
// re-pointing its bucket.
func (c *Counts[K]) remove(i uint64, pos int32) {
	for j := c.next(i); c.buckets[j] != 0; j = c.next(j) {
		// Distance the entry behind j has probed from its home; it may
		// move back to i only if i is still within that probe span.
		// Entries whose home lies after i stay put, but the scan goes
		// on: the run can still hold movable entries.
		home := c.home(c.hash(c.entries[c.buckets[j]-1].Key))
		if c.span(home, j) >= c.span(i, j) {
			c.buckets[i] = c.buckets[j]
			i = j
		}
	}
	c.buckets[i] = 0

	last := int32(len(c.entries) - 1)
	// pos leaves every rung it is on; the last entry moves its rungs'
	// bits from last to pos. Each is a no-op for an entry below tierMin.
	c.retier(pos, c.entries[pos].Val, 0)
	if pos != last {
		moved := c.entries[last]
		c.retier(last, moved.Val, 0)
		c.retier(pos, 0, moved.Val)
		c.entries[pos] = moved
		j := c.home(c.hash(moved.Key))
		for c.buckets[j] != last+1 {
			j = c.next(j)
		}
		c.buckets[j] = pos + 1
	}
	c.entries = c.entries[:last]
}
