package spacesaving

import (
	"slices"
	"testing"

	"memento/internal/rng"
)

// mapSketch is the seed implementation's Space Saving: identical
// stream-summary bucket logic, but with the key index held in a Go
// map. It serves as the differential oracle for the Sketch's flat
// position index — the index swap must not change any observable output,
// because eviction order depends only on the bucket lists.
type mapSketch[K comparable] struct {
	counters []mapCounter[K]
	buckets  []mapBucket
	index    map[K]int32
	headB    int32
	freeB    int32
	used     int32
	items    uint64
}

type mapCounter[K comparable] struct {
	key        K
	err        uint64
	prev, next int32
	bucket     int32
}

type mapBucket struct {
	count      uint64
	head       int32
	prev, next int32
}

func newMapSketch[K comparable](k int) *mapSketch[K] {
	s := &mapSketch[K]{
		counters: make([]mapCounter[K], k),
		buckets:  make([]mapBucket, k+2),
		index:    make(map[K]int32, k),
	}
	s.reset()
	return s
}

func (s *mapSketch[K]) reset() {
	s.headB = nilIdx
	s.used = 0
	s.items = 0
	for i := range s.buckets {
		s.buckets[i].next = int32(i) + 1
	}
	s.buckets[len(s.buckets)-1].next = nilIdx
	s.freeB = 0
}

func (s *mapSketch[K]) flush() {
	clear(s.index)
	s.reset()
}

func (s *mapSketch[K]) allocBucket(count uint64) int32 {
	bi := s.freeB
	s.freeB = s.buckets[bi].next
	b := &s.buckets[bi]
	b.count = count
	b.head = nilIdx
	b.prev = nilIdx
	b.next = nilIdx
	return bi
}

func (s *mapSketch[K]) freeBucket(bi int32) {
	b := &s.buckets[bi]
	if b.prev != nilIdx {
		s.buckets[b.prev].next = b.next
	} else {
		s.headB = b.next
	}
	if b.next != nilIdx {
		s.buckets[b.next].prev = b.prev
	}
	b.next = s.freeB
	s.freeB = bi
}

func (s *mapSketch[K]) attach(ci, bi int32) {
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

func (s *mapSketch[K]) detach(ci int32) {
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

func (s *mapSketch[K]) increment(ci int32) uint64 {
	c := &s.counters[ci]
	bi := c.bucket
	b := &s.buckets[bi]
	newCount := b.count + 1
	next := b.next
	var target int32
	if next != nilIdx && s.buckets[next].count == newCount {
		target = next
	} else {
		target = s.allocBucket(newCount)
		t := &s.buckets[target]
		t.prev = bi
		t.next = next
		s.buckets[bi].next = target
		if next != nilIdx {
			s.buckets[next].prev = target
		}
	}
	s.detach(ci)
	s.attach(ci, target)
	if s.buckets[bi].head == nilIdx {
		s.freeBucket(bi)
	}
	return newCount
}

func (s *mapSketch[K]) add(key K) uint64 {
	s.items++
	if ci, ok := s.index[key]; ok {
		return s.increment(ci)
	}
	if int(s.used) < len(s.counters) {
		ci := s.used
		s.used++
		c := &s.counters[ci]
		c.key = key
		c.err = 0
		if s.headB != nilIdx && s.buckets[s.headB].count == 1 {
			s.attach(ci, s.headB)
		} else {
			bi := s.allocBucket(1)
			b := &s.buckets[bi]
			b.next = s.headB
			if s.headB != nilIdx {
				s.buckets[s.headB].prev = bi
			}
			s.headB = bi
			s.attach(ci, bi)
		}
		s.index[key] = ci
		return 1
	}
	ci := s.buckets[s.headB].head
	c := &s.counters[ci]
	minCount := s.buckets[s.headB].count
	delete(s.index, c.key)
	c.key = key
	c.err = minCount
	s.index[key] = ci
	return s.increment(ci)
}

func (s *mapSketch[K]) min() uint64 {
	if int(s.used) < len(s.counters) || s.headB == nilIdx {
		return 0
	}
	return s.buckets[s.headB].count
}

func (s *mapSketch[K]) query(key K) uint64 {
	if ci, ok := s.index[key]; ok {
		return s.buckets[s.counters[ci].bucket].count
	}
	return s.min()
}

func (s *mapSketch[K]) queryBounds(key K) (upper, lower uint64) {
	if ci, ok := s.index[key]; ok {
		c := &s.counters[ci]
		upper = s.buckets[c.bucket].count
		return upper, upper - c.err
	}
	return s.min(), 0
}

// entries returns all monitored counters in descending count order.
func (s *mapSketch[K]) entries() []Counter[K] {
	var out []Counter[K]
	for bi := s.headB; bi != nilIdx; bi = s.buckets[bi].next {
		count := s.buckets[bi].count
		for ci := s.buckets[bi].head; ci != nilIdx; ci = s.counters[ci].next {
			c := &s.counters[ci]
			out = append(out, Counter[K]{Key: c.key, Count: count, Err: c.err})
		}
	}
	slices.Reverse(out)
	return out
}

// descending returns s's monitored counters in descending count order:
// Iterate's walk, reversed.
func descending[K comparable](s *Sketch[K]) []Counter[K] {
	var out []Counter[K]
	s.Iterate(func(c Counter[K]) bool { out = append(out, c); return true })
	slices.Reverse(out)
	return out
}

// TestDifferentialKeyidxVsMap feeds identical skewed streams (fixed
// seed) through the flat-indexed Sketch and the map-indexed seed
// implementation, interleaving flushes, and requires exact agreement:
// same returned count per Add, same Min, same per-key bounds, same
// counter sequence. Returned Add counts increasing by exactly 1 per
// resident key is what Memento's overflow detection builds on, so
// "exact" here means bit-for-bit.
func TestDifferentialKeyidxVsMap(t *testing.T) {
	for _, k := range []int{1, 7, 64, 257} {
		src := rng.New(0xD1FF + uint64(k))
		s := mustNew[uint64](k)
		ref := newMapSketch[uint64](k)
		const ops = 60000
		for i := 0; i < ops; i++ {
			// Zipf-ish mix: small hot set plus a heavy tail of one-hit
			// keys to force constant eviction churn.
			var key uint64
			if src.Intn(3) == 0 {
				key = uint64(src.Intn(8))
			} else {
				key = uint64(src.Intn(1 << 20))
			}
			got, want := s.Add(key), ref.add(key)
			if got != want {
				t.Fatalf("k=%d op %d: Add(%d) = %d, reference %d", k, i, key, got, want)
			}
			if s.Min() != ref.min() {
				t.Fatalf("k=%d op %d: Min() = %d, reference %d", k, i, s.Min(), ref.min())
			}
			if i%997 == 0 {
				gu, gl := s.QueryBounds(key)
				wu, wl := ref.queryBounds(key)
				if gu != wu || gl != wl {
					t.Fatalf("k=%d op %d: QueryBounds(%d) = (%d,%d), reference (%d,%d)",
						k, i, key, gu, gl, wu, wl)
				}
				gotE := descending(s)
				wantE := ref.entries()
				if len(gotE) != len(wantE) {
					t.Fatalf("k=%d op %d: %d entries, reference %d", k, i, len(gotE), len(wantE))
				}
				for j := range gotE {
					if gotE[j] != wantE[j] {
						t.Fatalf("k=%d op %d: entry %d = %+v, reference %+v",
							k, i, j, gotE[j], wantE[j])
					}
				}
			}
			if i%9973 == 9972 { // exercise Flush + slab reuse mid-stream
				s.Flush()
				ref.flush()
			}
		}
		if s.Items() != ref.items {
			t.Fatalf("k=%d: Items() = %d, reference %d", k, s.Items(), ref.items)
		}
	}
}

// TestDifferentialQueriesOverKeyspace compares Query across a dense
// keyspace — monitored and unmonitored keys alike — after a fixed
// stream.
func TestDifferentialQueriesOverKeyspace(t *testing.T) {
	const k = 32
	src := rng.New(424242)
	s := mustNew[uint64](k)
	ref := newMapSketch[uint64](k)
	for i := 0; i < 20000; i++ {
		key := uint64(src.Intn(200))
		s.Add(key)
		ref.add(key)
	}
	for key := uint64(0); key < 200; key++ {
		if got, want := s.Query(key), ref.query(key); got != want {
			t.Fatalf("Query(%d) = %d, reference %d", key, got, want)
		}
	}
}

// TestAddZeroAlloc pins the allocation-free guarantee of Add under
// heavy eviction churn.
func TestAddZeroAlloc(t *testing.T) {
	s := mustNew[uint64](256)
	src := rng.New(11)
	allocs := testing.AllocsPerRun(20000, func() {
		s.Add(uint64(src.Intn(1 << 16)))
	})
	if allocs != 0 {
		t.Fatalf("Add allocs/op = %v, want 0", allocs)
	}
}
