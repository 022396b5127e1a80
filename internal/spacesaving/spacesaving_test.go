package spacesaving

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"memento/internal/rng"
)

// mustNew returns a sketch of k counters under the default hasher.
func mustNew[K comparable](k int) *Sketch[K] {
	s, err := NewWithHash[K](k, nil)
	if err != nil {
		panic(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := NewWithHash[int](0, nil); err == nil {
		t.Error("capacity 0 should fail")
	}
	if _, err := NewWithHash[int](-5, nil); err == nil {
		t.Error("negative capacity should fail")
	}
	if _, err := NewWithHash[int](1<<29, nil); err == nil {
		t.Error("absurd capacity should fail")
	}
	s, err := NewWithHash[int](4, nil)
	if err != nil || s.Cap() != 4 || s.Len() != 0 {
		t.Fatalf("New(4): %v, cap=%d len=%d", err, s.Cap(), s.Len())
	}
}

func TestExactUnderCapacity(t *testing.T) {
	s := mustNew[string](8)
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
	s := mustNew[string](2)
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
	s := mustNew[int](2)
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
		s := mustNew[uint8](k)
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
	s := mustNew[int](16)
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
	s := mustNew[uint64](16)
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
	s := mustNew[int](4)
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

func TestIterateEarlyStop(t *testing.T) {
	s := mustNew[int](8)
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
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddHit(b *testing.B) {
	s := mustNew[uint64](1024)
	for i := uint64(0); i < 1024; i++ {
		s.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i) & 1023)
	}
}

func BenchmarkAddChurn(b *testing.B) {
	s := mustNew[uint64](1024)
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
	s := mustNew[uint64](8)
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
	s := mustNew[uint64](32)
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

// sameCopy fails unless got holds want's slabs element for element and
// its scalars, and answers Query, Min, Iterate (in order) and Slot as
// want does.
func sameCopy(t *testing.T, tag string, got, want *Sketch[uint64]) {
	t.Helper()
	if !slices.Equal(got.counters, want.counters) || !slices.Equal(got.buckets, want.buckets) || !slices.Equal(got.pos, want.pos) {
		t.Fatalf("%s: slabs differ from a full copy", tag)
	}
	if got.headB != want.headB || got.tailB != want.tailB || got.freeB != want.freeB ||
		got.used != want.used || got.items != want.items || got.shift != want.shift {
		t.Fatalf("%s: scalars differ from a full copy", tag)
	}
	if got.Min() != want.Min() {
		t.Fatalf("%s: Min %d, full copy %d", tag, got.Min(), want.Min())
	}
	for k := uint64(0); k < 20; k++ {
		if got.Query(k) != want.Query(k) {
			t.Fatalf("%s: Query(%d) = %d, full copy %d", tag, k, got.Query(k), want.Query(k))
		}
	}
	var g, w []Counter[uint64]
	got.Iterate(func(c Counter[uint64]) bool { g = append(g, c); return true })
	want.Iterate(func(c Counter[uint64]) bool { w = append(w, c); return true })
	if !slices.Equal(g, w) {
		t.Fatalf("%s: Iterate %v, full copy %v", tag, g, w)
	}
	for i := 0; i < want.Len(); i++ {
		if got.Slot(i) != want.Slot(i) {
			t.Fatalf("%s: Slot(%d) = %+v, full copy %+v", tag, i, got.Slot(i), want.Slot(i))
		}
	}
}

// copyIdentityOps replays ops as a capture-identity op stream over two
// sources and three destinations, each destination copying from one
// source. A byte's low four bits pick the op and its high four bits are
// the operand: Add, Flush, RestoreEntry, SetHashed and SetItems on a
// source; a source replaced by a copy by assignment of the other (own
// slabs, shared identity fields) that then adds a key; a write to a
// destination; switching a destination's source; zeroing a
// destination; and CopyInto. After every CopyInto the destination must
// equal a fresh full copy of its source. It reports how many copies
// skipped the slabs and how many copied them.
func copyIdentityOps(t *testing.T, ops []byte) (skipped, full int) {
	t.Helper()
	collide := func(k uint64) uint64 { return k % 3 } // long probe runs
	srcs := [2]*Sketch[uint64]{}
	for i := range srcs {
		s, err := NewWithHash[uint64](4+i, collide)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = s
	}
	var dsts [3]Sketch[uint64]
	var from [3]int
	for n, b := range ops {
		arg := int(b >> 4)
		s := srcs[arg&1]
		d := arg % len(dsts)
		switch b & 15 {
		case 0, 1, 2, 3, 4:
			s.Add(uint64(arg >> 1))
		case 5:
			s.Flush()
		case 6:
			_ = s.RestoreEntry(uint64(8+arg>>1), uint64(1+arg), uint64(arg>>2)) // full or duplicate: no-op
		case 7:
			key := uint64(arg >> 1)
			_ = s.SetHashed(key, s.hash(key), uint64(2+arg), 1) // a new key on a full sketch: no-op
		case 8:
			s.SetItems(uint64(arg) * 3)
		case 9:
			cp := *srcs[1-arg&1]
			cp.counters, cp.buckets, cp.pos = slices.Clone(cp.counters), slices.Clone(cp.buckets), slices.Clone(cp.pos)
			cp.Add(uint64(arg >> 1))
			srcs[arg&1] = &cp
		case 10:
			if len(dsts[d].counters) > 0 { // a zero Sketch cannot take an Add
				dsts[d].Add(uint64(arg >> 2))
			}
		case 11:
			from[d] ^= 1
		case 12:
			dsts[d] = Sketch[uint64]{}
		default:
			src := srcs[from[d]]
			if src.owner == src && dsts[d].fromID == src.id && dsts[d].fromN == src.n {
				skipped++
			} else {
				full++
			}
			src.CopyInto(&dsts[d])
			var ref Sketch[uint64]
			src.CopyInto(&ref)
			sameCopy(t, fmt.Sprintf("op %d (%#x), destination %d", n, b, d), &dsts[d], &ref)
		}
	}
	return skipped, full
}

// copyIdentitySeeds are streams that break a capture identity that
// forgets a destination was written to (the first) or lets a copy by
// assignment keep writing states under its original's id (the second).
var copyIdentitySeeds = [][]byte{
	{0x20, 0x0d, 0xca, 0x0d},
	{0x20, 0x0d, 0xb9, 0x40, 0x0b, 0x0d, 0x0b, 0x0d},
}

// TestCopyIntoIdentity drives copyIdentityOps with the seeds and with
// random streams, and requires both CopyInto paths to have run.
func TestCopyIntoIdentity(t *testing.T) {
	skipped, full := 0, 0
	for _, ops := range copyIdentitySeeds {
		s, f := copyIdentityOps(t, ops)
		skipped, full = skipped+s, full+f
	}
	src := rng.New(36)
	for range 300 {
		ops := make([]byte, 400)
		for i := range ops {
			ops[i] = byte(src.Intn(256))
		}
		s, f := copyIdentityOps(t, ops)
		skipped, full = skipped+s, full+f
	}
	if skipped == 0 || full == 0 {
		t.Fatalf("%d skipped copies, %d full: a path never ran", skipped, full)
	}
}

// FuzzCopyIntoIdentity is TestCopyIntoIdentity over fuzzer-chosen
// streams.
func FuzzCopyIntoIdentity(f *testing.F) {
	for _, ops := range copyIdentitySeeds {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { copyIdentityOps(t, ops) })
}

// TestHashedQueryVariantsMatch pins QueryHashed/QueryBoundsHashed
// against their hashing counterparts.
func TestHashedQueryVariantsMatch(t *testing.T) {
	s := mustNew[uint64](8)
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
	s := mustNew[uint64](16)
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
			if c, ok := s.LookupHashed(cur.Key, s.hash(cur.Key)); !ok || c != cur {
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
		s := mustNew[uint64](len(in))
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
			if c, ok := s.LookupHashed(e.Key, s.hash(e.Key)); !ok || c != e {
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
// sketch's whole life: filling, saturated and evicting, restored entry
// by entry, flushed, and copied.
func TestIterateAtLeastFiltersIterate(t *testing.T) {
	r := rng.New(33)
	s := mustNew[uint64](48)
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

	restored := mustNew[uint64](64)
	for _, c := range descending(s) { // the walk from the minimum
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

// TestSetRemoveMatchModel drives SetHashed, RemoveHashed and Grow —
// the in-place mutators a replica is patched with — against a map of
// key → (count, err), on a hasher with long probe runs, and checks the
// structure, every key's counter, Min's saturated/unsaturated rule and
// that Add and CopyInto still work on the patched sketch.
func TestSetRemoveMatchModel(t *testing.T) {
	for _, hash := range []func(uint64) uint64{nil, func(k uint64) uint64 { return k % 7 }} {
		r := rng.New(17)
		s, err := NewWithHash[uint64](2, hash)
		if err != nil {
			t.Fatal(err)
		}
		const limit = 48
		model := map[uint64]Counter[uint64]{}
		for op := 0; op < 20000; op++ {
			key := r.Uint64() % 80
			h := s.Hash(key)
			switch r.Uint64() % 4 {
			case 0:
				if got, want := s.RemoveHashed(key, h), model[key].Count > 0; got != want {
					t.Fatalf("op %d: RemoveHashed(%d) = %v, model has it: %v", op, key, got, want)
				}
				delete(model, key)
			default:
				count := 1 + r.Uint64()%24
				errTerm := r.Uint64() % count
				if _, ok := model[key]; !ok && s.Len() == s.Cap() {
					if s.Cap() == limit {
						if s.SetHashed(key, h, count, errTerm) == nil {
							t.Fatalf("op %d: set past a full sketch succeeded", op)
						}
						continue
					}
					s.Grow(min(2*s.Cap(), limit))
				}
				if err := s.SetHashed(key, h, count, errTerm); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				model[key] = Counter[uint64]{Key: key, Count: count, Err: errTerm}
			}
			if op%13 == 0 {
				checkStructure(t, s)
			}
		}
		checkStructure(t, s)
		if s.Len() != len(model) {
			t.Fatalf("Len %d, model holds %d", s.Len(), len(model))
		}
		for key := uint64(0); key < 80; key++ {
			got, ok := s.LookupHashed(key, s.hash(key))
			if want, in := model[key]; ok != in || (in && got != want) {
				t.Fatalf("Lookup(%d) = %+v %v, model %+v %v", key, got, ok, want, in)
			}
		}
		wantMin := uint64(0)
		if s.Len() == s.Cap() {
			wantMin = ^uint64(0)
			for _, c := range model {
				wantMin = min(wantMin, c.Count)
			}
		}
		if s.Min() != wantMin {
			t.Fatalf("Min %d, want %d (%d of %d in use)", s.Min(), wantMin, s.Len(), s.Cap())
		}
		var cp Sketch[uint64]
		s.CopyInto(&cp)
		for i := 0; i < 500; i++ {
			s.Add(r.Uint64() % 80)
		}
		checkStructure(t, s)
		checkStructure(t, &cp)
		for key, want := range model {
			if got, _ := cp.LookupHashed(key, cp.hash(key)); got != want {
				t.Fatalf("copy Lookup(%d) = %+v, want %+v", key, got, want)
			}
		}
	}
}
