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
// date by replaying what changed since, and copies in full — two
// memmoves, 4 bytes per bucket and one entry per key held — only when
// the ring no longer reaches back that far.
//
// Construct with NewCounts; the zero value is only a CopyInto
// destination. Not safe for concurrent use.
type Counts[K comparable] struct {
	entries []Count[K] //memento:reused (reserved at construction; growth past it is the cold path)
	buckets []int32    //memento:reused (doubles only when entries outgrow the reserved capacity)
	hash    func(K) uint64

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

// Flush empties the table, keeping its memory. Its journal starts a new
// state, so every destination copies the emptied table in full.
func (c *Counts[K]) Flush() {
	c.entries = c.entries[:0]
	clear(c.buckets)
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
// of the buckets and one of the live entries.
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
		c.entries[pos].Val = val
		return
	}
	c.place(i, key, val)
}

// Inc adds delta to key's count, inserting it at delta if absent, and
// returns the new count.
func (c *Counts[K]) Inc(key K, delta int32) int32 { return c.IncH(key, delta, c.hash(key)) }

// IncH is Inc with a caller-computed hash.
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
		c.entries[pos].Val += delta
		return c.entries[pos].Val
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
	c.entries[pos].Val--
	if c.entries[pos].Val <= 0 {
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

// place appends a new entry behind the known-empty bucket i and grows
// the buckets past load ½.
func (c *Counts[K]) place(i uint64, key K, val int32) {
	c.entries = append(c.entries, Count[K]{Key: key, Val: val})
	c.buckets[i] = int32(len(c.entries))
	if 2*len(c.entries) > len(c.buckets) {
		c.grow()
	}
}

// grow doubles the bucket array and reinserts every entry. It runs only
// when the caller exceeds the capacity reserved at construction.
func (c *Counts[K]) grow() {
	c.buckets = append(c.buckets, c.buckets...) // twice the length; contents rebuilt below
	clear(c.buckets)
	for pos := range c.entries {
		i := c.home(c.hash(c.entries[pos].Key))
		for c.buckets[i] != 0 {
			i = c.next(i)
		}
		c.buckets[i] = int32(pos + 1)
	}
}

// remove deletes the entry at pos, found through bucket i. The bucket
// run is closed by backward shift, so no tombstones are needed: each
// following bucket moves into the hole unless its entry already sits
// at (or probes no further than) its home. The slab stays dense by
// moving the last entry into pos and re-pointing its bucket.
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
	if pos != last {
		moved := c.entries[last]
		c.entries[pos] = moved
		j := c.home(c.hash(moved.Key))
		for c.buckets[j] != last+1 {
			j = c.next(j)
		}
		c.buckets[j] = pos + 1
	}
	c.entries = c.entries[:last]
}
