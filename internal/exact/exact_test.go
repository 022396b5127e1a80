package exact

import (
	"testing"
	"testing/quick"
)

func TestSlidingWindowBasic(t *testing.T) {
	s := MustNewSlidingWindow[string](3)
	s.Add("a")
	s.Add("b")
	s.Add("a")
	if s.Count("a") != 2 || s.Count("b") != 1 || s.Count("zz") != 0 {
		t.Fatalf("counts wrong: a=%d b=%d", s.Count("a"), s.Count("b"))
	}
	if s.Len() != 3 || s.Window() != 3 {
		t.Fatalf("Len=%d Window=%d", s.Len(), s.Window())
	}
	s.Add("c") // evicts the first "a"
	if s.Count("a") != 1 || s.Count("c") != 1 {
		t.Fatalf("after slide: a=%d c=%d", s.Count("a"), s.Count("c"))
	}
	s.Add("c")
	s.Add("c") // window now {c,c,c}
	if s.Count("a") != 0 || s.Count("b") != 0 || s.Count("c") != 3 {
		t.Fatal("full eviction failed")
	}
}

func TestSlidingWindowMatchesBruteForce(t *testing.T) {
	f := func(keys []uint8, wRaw uint8) bool {
		w := int(wRaw%20) + 1
		s := MustNewSlidingWindow[uint8](w)
		for i, k := range keys {
			s.Add(k)
			// Brute-force count of k in the last w items.
			lo := i + 1 - w
			if lo < 0 {
				lo = 0
			}
			want := 0
			for _, prev := range keys[lo : i+1] {
				if prev == k {
					want++
				}
			}
			if s.Count(k) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSlidingWindowCountSumsToLen(t *testing.T) {
	s := MustNewSlidingWindow[int](50)
	for i := 0; i < 237; i++ {
		s.Add(i % 7)
	}
	total := 0
	s.Each(func(_ int, c int) bool {
		total += c
		return true
	})
	if total != 50 {
		t.Fatalf("in-window counts sum to %d, want 50", total)
	}
}

func TestSlidingWindowHeavyHitters(t *testing.T) {
	s := MustNewSlidingWindow[int](100)
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			s.Add(1)
		} else {
			s.Add(100 + i)
		}
	}
	hh := s.HeavyHitters(0.4)
	if len(hh) != 1 || hh[1] != 50 {
		t.Fatalf("HeavyHitters = %v", hh)
	}
	if len(s.HeavyHitters(0.6)) != 0 {
		t.Fatal("no flow reaches 60%")
	}
}

func TestSlidingWindowReset(t *testing.T) {
	s := MustNewSlidingWindow[int](4)
	for i := 0; i < 10; i++ {
		s.Add(1)
	}
	s.Reset()
	if s.Count(1) != 0 || s.Len() != 0 {
		t.Fatal("Reset left state")
	}
	s.Add(2)
	if s.Count(2) != 1 || s.Len() != 1 {
		t.Fatal("post-reset add failed")
	}
}

func TestSlidingWindowValidation(t *testing.T) {
	if _, err := NewSlidingWindow[int](0); err == nil {
		t.Fatal("w=0 must fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewSlidingWindow should panic on bad w")
		}
	}()
	MustNewSlidingWindow[int](-1)
}

// mustNewInterval is NewInterval for a period the test knows is valid.
func mustNewInterval[K comparable](w int) *Interval[K] {
	s, err := NewInterval[K](w)
	if err != nil {
		panic(err)
	}
	return s
}

func TestIntervalResets(t *testing.T) {
	s := mustNewInterval[int](4)
	for i := 0; i < 4; i++ {
		s.Add(9)
	}
	if s.Count(9) != 4 || s.Pos() != 4 {
		t.Fatalf("end of first interval: count=%d pos=%d", s.Count(9), s.Pos())
	}
	s.Add(9) // triggers boundary reset, lands in the new interval
	if s.Count(9) != 1 || s.Pos() != 1 {
		t.Fatalf("after boundary: count=%d pos=%d", s.Count(9), s.Pos())
	}
}

func TestIntervalIndependentKeys(t *testing.T) {
	s := mustNewInterval[string](10)
	s.Add("x")
	s.Add("y")
	s.Add("x")
	if s.Count("x") != 2 || s.Count("y") != 1 {
		t.Fatal("per-key counts wrong")
	}
	s.Reset()
	if s.Count("x") != 0 || s.Pos() != 0 {
		t.Fatal("Reset left state")
	}
}

func TestIntervalValidation(t *testing.T) {
	if _, err := NewInterval[int](0); err == nil {
		t.Fatal("w=0 must fail")
	}
}
