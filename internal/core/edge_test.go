package core

import (
	"testing"

	"memento/internal/exact"
)

// TestFrameBoundaryFlush pins the frame-wrap behaviour: the in-frame
// counter resets exactly at M = 0 and estimates remain one-sided
// across the boundary.
func TestFrameBoundaryFlush(t *testing.T) {
	const window = 200
	const k = 10
	s := mustNew[int](Config{Window: window, Counters: k})
	oracle := exact.MustNewSlidingWindow[int](s.EffectiveWindow())
	slack := 4.0 * float64(s.EffectiveWindow()) / k
	// Drive exactly to several frame boundaries, querying at W-1, W,
	// and W+1 relative offsets.
	for frame := 0; frame < 5; frame++ {
		for i := 0; i < window; i++ {
			key := i % 7
			s.Update(key)
			oracle.Add(key)
			atBoundary := s.Updates()%uint64(s.EffectiveWindow()) <= 1
			if !atBoundary && s.Updates() < uint64(window) {
				continue
			}
			for q := 0; q < 7; q++ {
				f := float64(oracle.Count(q))
				est := s.Query(q)
				if est < f || est > f+slack {
					t.Fatalf("frame %d pos %d key %d: est %v truth %v slack %v",
						frame, i, q, est, f, slack)
				}
			}
		}
	}
}

// TestMinimalGeometry exercises the smallest legal configurations,
// where blocks are single packets.
func TestMinimalGeometry(t *testing.T) {
	s := mustNew[int](Config{Window: 1, Counters: 1})
	if s.EffectiveWindow() != 1 {
		t.Fatalf("EffectiveWindow = %d", s.EffectiveWindow())
	}
	for i := 0; i < 100; i++ {
		s.Update(i % 2)
	}
	if s.ForcedDrains() != 0 {
		t.Fatalf("forced drains in minimal geometry: %d", s.ForcedDrains())
	}
	// Window of 1: only the last item can have weight; estimates stay
	// bounded by window + slack.
	if est := s.Query(0); est > 10 {
		t.Fatalf("estimate %v absurd for window 1", est)
	}
}

// TestWindowEqualsCounters covers W == k (single-packet blocks).
func TestWindowEqualsCounters(t *testing.T) {
	const k = 32
	s := mustNew[int](Config{Window: k, Counters: k})
	oracle := exact.MustNewSlidingWindow[int](s.EffectiveWindow())
	for i := 0; i < 10*k; i++ {
		s.Update(i % 3)
		oracle.Add(i % 3)
	}
	for q := 0; q < 3; q++ {
		f := float64(oracle.Count(q))
		est := s.Query(q)
		if est < f {
			t.Fatalf("key %d: est %v below truth %v", q, est, f)
		}
	}
	if s.ForcedDrains() != 0 {
		t.Fatalf("forced drains: %d", s.ForcedDrains())
	}
}

// TestQueryUnknownKeyIsBounded ensures never-seen keys get the
// conservative no-overflow estimate, not garbage.
func TestQueryUnknownKeyIsBounded(t *testing.T) {
	s := mustNew[uint64](Config{Window: 1000, Counters: 20, Tau: 0.5, Seed: 4})
	for i := uint64(0); i < 5000; i++ {
		s.Update(i % 10)
	}
	est := s.Query(999999)
	// ≤ scale·(2 blocks + SS min).
	bound := s.Scale() * (2*float64(s.blockCounts) + float64(s.y.Min()))
	if est < 0 || est > bound {
		t.Fatalf("unknown key estimate %v outside [0, %v]", est, bound)
	}
}

// TestHeavyHittersEmptySketch must return no items and not panic.
func TestHeavyHittersEmptySketch(t *testing.T) {
	s := mustNew[string](Config{Window: 100, Counters: 4})
	if hh := s.HeavyHitters(0.1, nil); len(hh) != 0 {
		t.Fatalf("empty sketch reported %v", hh)
	}
	if est := s.Query("nothing"); est < 0 {
		t.Fatalf("negative estimate %v", est)
	}
}

// TestDstBearingKeysInTwoD ensures the generic sketch works with the
// 2D prefix keys used by H-Memento (regression guard for key packing).
func TestDstBearingKeysInTwoD(t *testing.T) {
	s := mustNew[[2]uint64](Config{Window: 500, Counters: 10})
	a := [2]uint64{1, 2}
	b := [2]uint64{1, 3}
	for i := 0; i < 400; i++ {
		if i%2 == 0 {
			s.Update(a)
		} else {
			s.Update(b)
		}
	}
	if s.Query(a) < 150 || s.Query(b) < 150 {
		t.Fatalf("composite keys mis-tracked: %v %v", s.Query(a), s.Query(b))
	}
}
