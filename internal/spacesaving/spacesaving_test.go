package spacesaving

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"

	"memento/internal/rng"
)

func TestNewValidation(t *testing.T) {
	if _, err := New[int](0); err == nil {
		t.Error("capacity 0 should fail")
	}
	if _, err := New[int](-5); err == nil {
		t.Error("negative capacity should fail")
	}
	if _, err := New[int](1 << 29); err == nil {
		t.Error("absurd capacity should fail")
	}
	s, err := New[int](4)
	if err != nil || s.Cap() != 4 || s.Len() != 0 {
		t.Fatalf("New(4): %v, cap=%d len=%d", err, s.Cap(), s.Len())
	}
}

func TestExactUnderCapacity(t *testing.T) {
	s := MustNew[string](8)
	feed := []string{"a", "b", "a", "c", "a", "b"}
	for _, k := range feed {
		s.Add(k)
	}
	for k, want := range map[string]uint64{"a": 3, "b": 2, "c": 1, "zzz": 0} {
		if got := s.Query(k); got != want {
			t.Errorf("Query(%q) = %d, want %d", k, got, want)
		}
	}
	if s.Min() != 0 {
		t.Errorf("Min = %d while free counters remain", s.Min())
	}
	if s.Items() != uint64(len(feed)) {
		t.Errorf("Items = %d", s.Items())
	}
}

func TestPaperEvictionExample(t *testing.T) {
	// Section 2: minimal counter is flow x with value 4, flow y has no
	// counter. When y arrives, x's counter is reallocated to y at 5.
	s := MustNew[string](2)
	for i := 0; i < 6; i++ {
		s.Add("big")
	}
	for i := 0; i < 4; i++ {
		s.Add("x")
	}
	s.Add("y")
	if got := s.Query("y"); got != 5 {
		t.Fatalf("Query(y) = %d, want 5", got)
	}
	// x lost its counter; its estimate falls back to the minimum (5).
	if got := s.Query("x"); got != 5 {
		t.Fatalf("Query(x) = %d, want min=5", got)
	}
	up, lo := s.QueryBounds("y")
	if up != 5 || lo != 1 {
		t.Fatalf("QueryBounds(y) = (%d, %d), want (5, 1)", up, lo)
	}
	up, lo = s.QueryBounds("x")
	if up != 5 || lo != 0 {
		t.Fatalf("QueryBounds(x) = (%d, %d), want (5, 0)", up, lo)
	}
}

func TestAddReturnsNewCount(t *testing.T) {
	// Memento's overflow detection requires Add to return a value that
	// advances by exactly 1 for a resident key.
	s := MustNew[int](2)
	prev := uint64(0)
	for i := 0; i < 10; i++ {
		c := s.Add(7)
		if c != prev+1 {
			t.Fatalf("Add #%d returned %d, want %d", i, c, prev+1)
		}
		prev = c
	}
	// Fill the second counter, then force an eviction: the counter
	// value continuum still advances by exactly one step even when the
	// key changes hands.
	if c := s.Add(8); c != 1 {
		t.Fatalf("fresh key count = %d, want 1", c)
	}
	minBefore := s.Min()
	if minBefore != 1 {
		t.Fatalf("Min = %d, want 1", minBefore)
	}
	if c := s.Add(9); c != minBefore+1 {
		t.Fatalf("eviction Add returned %d, want min+1 = %d", c, minBefore+1)
	}
}

func TestErrorBoundProperty(t *testing.T) {
	// The Space Saving guarantee: for every key,
	// f(x) ≤ Query(x) ≤ f(x) + N/k.
	f := func(keys []uint8, capRaw uint8) bool {
		k := int(capRaw%16) + 1
		s := MustNew[uint8](k)
		truth := map[uint8]uint64{}
		for _, key := range keys {
			s.Add(key)
			truth[key]++
		}
		n := uint64(len(keys))
		slack := n / uint64(k)
		for key := uint8(0); key < 255; key++ {
			est := s.Query(key)
			if est < truth[key] {
				return false
			}
			if est > truth[key]+slack+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsBracketTruth(t *testing.T) {
	// Count − Err ≤ f(x) ≤ Count for monitored keys, under heavy churn.
	r := rng.New(99)
	s := MustNew[int](16)
	truth := map[int]uint64{}
	for i := 0; i < 20000; i++ {
		k := int(r.Uint64() % 200)
		s.Add(k)
		truth[k]++
	}
	checked := 0
	s.Iterate(func(c Counter[int]) bool {
		f := truth[c.Key]
		if c.Count < f {
			t.Fatalf("key %d: count %d below truth %d", c.Key, c.Count, f)
		}
		if c.Count-c.Err > f {
			t.Fatalf("key %d: lower bound %d above truth %d", c.Key, c.Count-c.Err, f)
		}
		checked++
		return true
	})
	if checked != 16 {
		t.Fatalf("iterated %d counters, want 16", checked)
	}
}

func TestHeavyHitterSurvives(t *testing.T) {
	// A flow holding 30% of a stream must survive eviction pressure in
	// a sketch with k=16 counters (error 1/16 < 30%).
	r := rng.New(7)
	s := MustNew[uint64](16)
	var heavyCount uint64
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Float64() < 0.3 {
			s.Add(1)
			heavyCount++
		} else {
			s.Add(2 + r.Uint64()%5000)
		}
	}
	est := s.Query(1)
	if est < heavyCount {
		t.Fatalf("heavy flow underestimated: %d < %d", est, heavyCount)
	}
	if est > heavyCount+n/16 {
		t.Fatalf("heavy flow overestimated beyond bound: %d > %d", est, heavyCount+n/16)
	}
}

func TestFlushReuses(t *testing.T) {
	s := MustNew[int](4)
	for i := 0; i < 100; i++ {
		s.Add(i % 6)
	}
	s.Flush()
	if s.Len() != 0 || s.Items() != 0 || s.Min() != 0 {
		t.Fatal("Flush must empty the sketch")
	}
	// Must be fully functional after flush.
	s.Add(42)
	s.Add(42)
	if got := s.Query(42); got != 2 {
		t.Fatalf("post-flush Query = %d, want 2", got)
	}
	count := 0
	s.Iterate(func(Counter[int]) bool { count++; return true })
	if count != 1 {
		t.Fatalf("post-flush counters = %d, want 1", count)
	}
}

func TestEntriesDescending(t *testing.T) {
	s := MustNew[string](8)
	for i, k := range []string{"a", "b", "c"} {
		for j := 0; j <= i*3; j++ {
			s.Add(k)
		}
	}
	es := s.Entries(nil)
	if len(es) != 3 {
		t.Fatalf("Entries = %v", es)
	}
	for i := 1; i < len(es); i++ {
		if es[i].Count > es[i-1].Count {
			t.Fatalf("Entries not descending: %v", es)
		}
	}
	if es[0].Key != "c" || es[0].Count != 7 {
		t.Fatalf("top entry = %+v", es[0])
	}
}

func TestIterateEarlyStop(t *testing.T) {
	s := MustNew[int](8)
	for i := 0; i < 5; i++ {
		s.Add(i)
	}
	seen := 0
	s.Iterate(func(Counter[int]) bool {
		seen++
		return seen < 2
	})
	if seen != 2 {
		t.Fatalf("early stop visited %d", seen)
	}
}

func TestMergeDominates(t *testing.T) {
	// After Merge, each key's estimate must dominate the sum of true
	// counts fed to either sketch.
	r := rng.New(123)
	a := MustNew[int](32)
	b := MustNew[int](32)
	truth := map[int]uint64{}
	for i := 0; i < 5000; i++ {
		k := int(r.Uint64() % 100)
		if i%2 == 0 {
			a.Add(k)
		} else {
			b.Add(k)
		}
		truth[k]++
	}
	itemsWant := a.Items() + b.Items()
	a.Merge(b)
	if a.Items() != itemsWant {
		t.Fatalf("merged Items = %d, want %d", a.Items(), itemsWant)
	}
	if a.Len() > a.Cap() {
		t.Fatalf("merged Len %d exceeds capacity", a.Len())
	}
	for k, f := range truth {
		if est := a.Query(k); est < f {
			t.Fatalf("merged estimate for %d: %d < truth %d", k, est, f)
		}
	}
}

func TestMergeKeepsLargest(t *testing.T) {
	a := MustNew[int](2)
	b := MustNew[int](2)
	for i := 0; i < 10; i++ {
		a.Add(1)
	}
	for i := 0; i < 20; i++ {
		b.Add(2)
	}
	for i := 0; i < 3; i++ {
		b.Add(3)
	}
	a.Merge(b)
	// Keys 2 (20) and 1 (10) must be retained over 3 (3 + min slack).
	if a.Query(2) < 20 || a.Query(1) < 10 {
		t.Fatalf("merged sketch lost a large key: q1=%d q2=%d", a.Query(1), a.Query(2))
	}
}

func TestBucketInvariant(t *testing.T) {
	// Internal structural check: bucket list counts strictly ascend and
	// every counter's bucket back-reference is consistent.
	// The second hasher has five values, so every index probe run is
	// long and every eviction's backward shift moves buckets.
	for _, hash := range []func(uint64) uint64{nil, func(k uint64) uint64 { return k % 5 }} {
		r := rng.New(5)
		s, err := NewWithHash[uint64](32, hash)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50000; i++ {
			s.Add(r.Uint64() % 64)
			if i%997 == 0 {
				checkStructure(t, s)
			}
		}
		checkStructure(t, s)
	}
}

func checkStructure[K comparable](t *testing.T, s *Sketch[K]) {
	t.Helper()
	prev := uint64(0)
	first := true
	seen := 0
	last := nilIdx // the bucket tailB must name
	for bi := s.headB; bi != nilIdx; bi = s.buckets[bi].next {
		b := s.buckets[bi]
		if !first && b.count <= prev {
			t.Fatalf("bucket counts not strictly ascending: %d after %d", b.count, prev)
		}
		if b.prev != last {
			t.Fatalf("bucket %d: prev %d, the list reached it from %d", bi, b.prev, last)
		}
		prev, first, last = b.count, false, bi
		if b.head == nilIdx {
			t.Fatal("live bucket with no counters")
		}
		for ci := b.head; ci != nilIdx; ci = s.counters[ci].next {
			if s.counters[ci].bucket != bi {
				t.Fatal("counter bucket back-reference wrong")
			}
			seen++
		}
	}
	if seen != s.Len() {
		t.Fatalf("structure holds %d counters, Len() = %d", seen, s.Len())
	}
	if s.tailB != last {
		t.Fatalf("tailB = %d, the largest bucket is %d", s.tailB, last)
	}
	// The position index points exactly once at every counter in use,
	// under the fingerprint of its key, at or after its home.
	pointed := map[int32]bool{}
	mask := uint32(len(s.pos) - 1)
	for i, b := range s.pos {
		if b.slot == 0 {
			continue
		}
		ci := b.slot - 1
		if ci >= s.used || pointed[ci] {
			t.Fatalf("index bucket %d names slot %d: unused or named twice (%d in use)", i, ci, s.used)
		}
		pointed[ci] = true
		c := s.counters[ci]
		if b.fp != c.fp || c.fp != fingerprint(s.hash(c.key)) {
			t.Fatalf("index bucket %d: fingerprint %#x, counter caches %#x", i, b.fp, c.fp)
		}
		for j := b.fp >> s.shift; j != uint32(i); j = (j + 1) & mask {
			if s.pos[j].slot == 0 {
				t.Fatalf("index bucket %d unreachable: empty bucket %d in its probe run", i, j)
			}
		}
	}
	if len(pointed) != s.Len() {
		t.Fatalf("index size %d != Len %d", len(pointed), s.Len())
	}
}

func BenchmarkAddHit(b *testing.B) {
	s := MustNew[uint64](1024)
	for i := uint64(0); i < 1024; i++ {
		s.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i) & 1023)
	}
}

func BenchmarkAddChurn(b *testing.B) {
	s := MustNew[uint64](1024)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(r.Uint64())
	}
}

// TestCopyIntoMatchesSource pins the snapshot primitive: the copy
// answers Query/QueryBounds/Min/Iterate exactly like the source at
// copy time and is unaffected by later source mutations.
func TestCopyIntoMatchesSource(t *testing.T) {
	s := MustNew[uint64](8)
	src := rng.New(33)
	for i := 0; i < 5000; i++ {
		s.Add(uint64(src.Intn(40)))
	}
	var snap Sketch[uint64] // zero value: CopyInto must make it usable
	s.CopyInto(&snap)

	type state struct{ q, u, l uint64 }
	frozen := map[uint64]state{}
	for k := uint64(0); k < 48; k++ {
		u, l := s.QueryBounds(k)
		frozen[k] = state{q: s.Query(k), u: u, l: l}
	}
	if snap.Min() != s.Min() || snap.Len() != s.Len() || snap.Items() != s.Items() {
		t.Fatalf("copy scalars diverge: Min %d/%d Len %d/%d Items %d/%d",
			snap.Min(), s.Min(), snap.Len(), s.Len(), snap.Items(), s.Items())
	}

	for i := 0; i < 5000; i++ { // mutate the source
		s.Add(uint64(40 + src.Intn(40)))
	}
	for k, want := range frozen {
		u, l := snap.QueryBounds(k)
		if snap.Query(k) != want.q || u != want.u || l != want.l {
			t.Fatalf("key %d: copy (%d, %d, %d) != frozen source (%d, %d, %d)",
				k, snap.Query(k), u, l, want.q, want.u, want.l)
		}
	}
	n := 0
	snap.Iterate(func(Counter[uint64]) bool { n++; return true })
	if n != snap.Len() {
		t.Fatalf("copy Iterate visited %d, Len %d", n, snap.Len())
	}
}

// TestCopyIntoReusesSlabs asserts steady-state CopyInto is
// allocation-free once the destination slabs fit.
func TestCopyIntoReusesSlabs(t *testing.T) {
	s := MustNew[uint64](32)
	for i := 0; i < 1000; i++ {
		s.Add(uint64(i % 50))
	}
	var snap Sketch[uint64]
	s.CopyInto(&snap)
	allocs := testing.AllocsPerRun(100, func() { s.CopyInto(&snap) })
	if allocs != 0 {
		t.Fatalf("steady-state CopyInto allocs/op = %v, want 0", allocs)
	}
}

// TestHashedQueryVariantsMatch pins QueryHashed/QueryBoundsHashed
// against their hashing counterparts.
func TestHashedQueryVariantsMatch(t *testing.T) {
	s := MustNew[uint64](8)
	src := rng.New(34)
	for i := 0; i < 2000; i++ {
		s.Add(uint64(src.Intn(30)))
	}
	for k := uint64(0); k < 40; k++ {
		h := s.Hash(k)
		if got, want := s.QueryHashed(k, h), s.Query(k); got != want {
			t.Fatalf("QueryHashed(%d) = %d, Query = %d", k, got, want)
		}
		u1, l1 := s.QueryBoundsHashed(k, h)
		u2, l2 := s.QueryBounds(k)
		if u1 != u2 || l1 != l2 {
			t.Fatalf("QueryBoundsHashed(%d) = (%d, %d), QueryBounds = (%d, %d)", k, u1, l1, u2, l2)
		}
	}
}

// TestSlotMarksNameTouchedSlots pins the slot-tracking contract the
// Memento delta plane builds on: between two drains the marked slots
// are exactly the slots whose counter changed, a key's slot is stable
// until it is evicted, and Slot/SlotOfHashed agree with Lookup.
func TestSlotMarksNameTouchedSlots(t *testing.T) {
	r := rng.New(11)
	s := MustNew[uint64](16)
	s.TrackSlots()
	var marks []uint64
	prev := make([]Counter[uint64], s.Cap())
	for round := 0; round < 400; round++ {
		for i, n := 0, 1+int(r.Uint64()%24); i < n; i++ {
			s.Add(r.Uint64() % 40)
		}
		if round%97 == 96 {
			s.Flush() // marks survive a flush; slots are handed out afresh
			clear(prev)
		}
		marks = s.DrainSlotMarks(marks)
		for i := 0; i < s.Cap(); i++ {
			marked := marks[i>>6]&(1<<(i&63)) != 0
			if i >= s.Len() {
				continue // stale or unused: holds nothing
			}
			cur := s.Slot(i)
			if cur != prev[i] && !marked {
				t.Fatalf("round %d: slot %d went %+v -> %+v unmarked", round, i, prev[i], cur)
			}
			if got := s.SlotOfHashed(cur.Key, s.Hash(cur.Key)); got != i {
				t.Fatalf("round %d: SlotOfHashed(%d) = %d, key sits in slot %d", round, cur.Key, got, i)
			}
			if c, ok := s.Lookup(cur.Key); !ok || c != cur {
				t.Fatalf("round %d: Lookup %+v vs Slot %+v", round, c, cur)
			}
			prev[i] = cur
		}
	}
	if marks = s.DrainSlotMarks(marks); slices.ContainsFunc(marks, func(w uint64) bool { return w != 0 }) {
		t.Fatal("a drain left marks behind")
	}
	if s.SlotOfHashed(1<<40, s.Hash(1<<40)) != -1 {
		t.Fatal("unmonitored key has a slot")
	}
}

// TestRestoreEntryAnyOrder checks the bucket walk's resume point:
// ascending input (the wire order, O(1) per insert) and arbitrary
// input build the same sketch.
func TestRestoreEntryAnyOrder(t *testing.T) {
	r := rng.New(3)
	entries := make([]Counter[uint64], 200)
	for i := range entries {
		count := 1 + r.Uint64()%30
		entries[i] = Counter[uint64]{Key: uint64(i), Count: count, Err: r.Uint64() % count}
	}
	build := func(in []Counter[uint64]) *Sketch[uint64] {
		s := MustNew[uint64](len(in))
		for _, e := range in {
			if err := s.RestoreEntry(e.Key, e.Count, e.Err); err != nil {
				t.Fatal(err)
			}
		}
		checkStructure(t, s)
		return s
	}
	shuffled := build(entries)
	sorted := slices.Clone(entries)
	slices.SortStableFunc(sorted, func(a, b Counter[uint64]) int { return cmp.Compare(a.Count, b.Count) })
	ascending := build(sorted)
	for _, e := range entries {
		for _, s := range []*Sketch[uint64]{shuffled, ascending} {
			if c, ok := s.Lookup(e.Key); !ok || c != e {
				t.Fatalf("restored %+v, want %+v", c, e)
			}
		}
	}
	if shuffled.Min() != ascending.Min() {
		t.Fatalf("Min %d vs %d", shuffled.Min(), ascending.Min())
	}
}

// checkIterateAtLeast holds IterateAtLeast to Iterate filtered by
// count, in order, at every count boundary the sketch holds (and one
// past the largest), and stopping where fn stops it.
func checkIterateAtLeast(t *testing.T, tag string, s *Sketch[uint64]) {
	t.Helper()
	var all []Counter[uint64]
	s.Iterate(func(c Counter[uint64]) bool { all = append(all, c); return true })
	mins := []uint64{0, 1}
	for _, c := range all {
		mins = append(mins, c.Count, c.Count+1)
	}
	for _, min := range mins {
		var want, got []Counter[uint64]
		for _, c := range all {
			if c.Count >= min {
				want = append(want, c)
			}
		}
		s.IterateAtLeast(min, func(c Counter[uint64]) bool { got = append(got, c); return true })
		if !slices.Equal(got, want) {
			t.Fatalf("%s: IterateAtLeast(%d) = %v, Iterate filtered %v", tag, min, got, want)
		}
		if len(want) < 2 {
			continue
		}
		stop := len(want) / 2
		got = got[:0]
		s.IterateAtLeast(min, func(c Counter[uint64]) bool { got = append(got, c); return len(got) <= stop })
		if !slices.Equal(got, want[:stop+1]) {
			t.Fatalf("%s: IterateAtLeast(%d) stopped after %d: %v, want %v", tag, min, stop+1, got, want[:stop+1])
		}
	}
}

// TestIterateAtLeastFiltersIterate walks the top-down start through a
// sketch's whole life: filling, saturated and evicting, merged into,
// restored entry by entry, flushed, and copied.
func TestIterateAtLeastFiltersIterate(t *testing.T) {
	r := rng.New(33)
	s := MustNew[uint64](48)
	checkIterateAtLeast(t, "empty", s)
	for i := 0; i < 20000; i++ {
		k := r.Uint64() % 200
		if r.Intn(3) == 0 {
			k %= 6 // a heavy few climb well above the churn
		}
		s.Add(k)
		if i == 30 {
			checkIterateAtLeast(t, "filling", s)
		}
	}
	checkStructure(t, s)
	checkIterateAtLeast(t, "evicting", s)

	other := MustNew[uint64](48)
	for i := 0; i < 5000; i++ {
		other.Add(r.Uint64() % 90)
	}
	s.Merge(other)
	checkStructure(t, s)
	checkIterateAtLeast(t, "merged", s)

	restored := MustNew[uint64](64)
	for _, c := range s.Entries(nil) { // descending: the walk from the minimum
		if err := restored.RestoreEntry(c.Key, c.Count, c.Err); err != nil {
			t.Fatal(err)
		}
	}
	checkStructure(t, restored)
	checkIterateAtLeast(t, "restored", restored)

	var cp Sketch[uint64]
	s.CopyInto(&cp)
	checkIterateAtLeast(t, "copied", &cp)

	s.Flush()
	checkStructure(t, s)
	checkIterateAtLeast(t, "flushed", s)
	for i := 0; i < 300; i++ {
		s.Add(r.Uint64() % 10)
	}
	checkStructure(t, s)
	checkIterateAtLeast(t, "refilled", s)
}
