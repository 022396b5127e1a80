// Package exact provides exact frequency oracles used as ground truth
// throughout the evaluation: an exact sliding window (the paper's
// Definition 3.1 window frequency, and the OPT baseline of Figure 10)
// and an exact interval counter (the Interval method of Section 3).
//
// Both keep O(distinct keys) state plus, for the window, O(W) for the
// ring of in-window keys — affordable at evaluation scale, which is the
// whole point: these are oracles, not data-plane structures.
package exact

import "errors"

// SlidingWindow counts key occurrences within the last W items exactly.
type SlidingWindow[K comparable] struct {
	ring   []K
	pos    int
	filled bool
	counts map[K]int
}

// NewSlidingWindow returns an exact window oracle over the last w items.
func NewSlidingWindow[K comparable](w int) (*SlidingWindow[K], error) {
	if w <= 0 {
		return nil, errors.New("exact: window must be positive")
	}
	return &SlidingWindow[K]{
		ring:   make([]K, w),
		counts: make(map[K]int),
	}, nil
}

// MustNewSlidingWindow panics on error; for tests and examples.
func MustNewSlidingWindow[K comparable](w int) *SlidingWindow[K] {
	s, err := NewSlidingWindow[K](w)
	if err != nil {
		panic(err)
	}
	return s
}

// Add appends one item, expiring the item that leaves the window.
func (s *SlidingWindow[K]) Add(k K) {
	if s.filled {
		old := s.ring[s.pos]
		if c := s.counts[old]; c <= 1 {
			delete(s.counts, old)
		} else {
			s.counts[old] = c - 1
		}
	}
	s.ring[s.pos] = k
	s.counts[k]++
	s.pos++
	if s.pos == len(s.ring) {
		s.pos = 0
		s.filled = true
	}
}

// Count returns k's exact frequency within the current window.
func (s *SlidingWindow[K]) Count(k K) int { return s.counts[k] }

// Window returns the configured window size W.
func (s *SlidingWindow[K]) Window() int { return len(s.ring) }

// Len returns the number of items currently inside the window
// (min(items seen, W)).
func (s *SlidingWindow[K]) Len() int {
	if s.filled {
		return len(s.ring)
	}
	return s.pos
}

// Distinct returns the number of distinct keys currently in the window
// (the table size an Aggregation report must ship).
func (s *SlidingWindow[K]) Distinct() int { return len(s.counts) }

// Each calls fn for every distinct in-window key with its count until
// fn returns false.
func (s *SlidingWindow[K]) Each(fn func(k K, count int) bool) {
	for k, c := range s.counts {
		if !fn(k, c) {
			return
		}
	}
}

// HeavyHitters returns all keys with window frequency ≥ theta·W
// (Definition 3.3 uses the full window W as the denominator, matching
// the sketches' thresholds).
func (s *SlidingWindow[K]) HeavyHitters(theta float64) map[K]int {
	threshold := theta * float64(len(s.ring))
	out := make(map[K]int)
	for k, c := range s.counts {
		if float64(c) >= threshold {
			out[k] = c
		}
	}
	return out
}

// Reset empties the oracle, reusing memory.
func (s *SlidingWindow[K]) Reset() {
	clear(s.counts)
	s.pos = 0
	s.filled = false
}

// Interval counts key occurrences exactly within back-to-back
// measurement intervals of length W, resetting at each boundary — the
// Interval method the paper argues against (Section 3, Figure 1a).
type Interval[K comparable] struct {
	counts map[K]int
	w      int
	inCur  int
}

// NewInterval returns an exact interval oracle with period w.
func NewInterval[K comparable](w int) (*Interval[K], error) {
	if w <= 0 {
		return nil, errors.New("exact: interval must be positive")
	}
	return &Interval[K]{counts: make(map[K]int), w: w}, nil
}

// Add appends one item, resetting counts at interval boundaries.
func (s *Interval[K]) Add(k K) {
	if s.inCur == s.w {
		clear(s.counts)
		s.inCur = 0
	}
	s.counts[k]++
	s.inCur++
}

// Count returns k's frequency within the current (partial) interval.
func (s *Interval[K]) Count(k K) int { return s.counts[k] }

// Pos returns the number of items in the current interval.
func (s *Interval[K]) Pos() int { return s.inCur }

// Reset empties the oracle.
func (s *Interval[K]) Reset() {
	clear(s.counts)
	s.inCur = 0
}
