// Log-linear histogram: HDR-style fixed bucket layout over the full
// uint64 range in constant memory (~4KB), lock-free to observe,
// mergeable, with p50/p99/p999 extraction from snapshots.

package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// The bucket layout: values 0..7 map to their own exact bucket;
// above that each power-of-two octave is split into 8 sub-buckets
// (3 significant bits kept), giving ≤12.5% relative error on any
// recorded value. 61 octaves × 8 + 8 exact = 496 buckets total.
const (
	histSubBits = 3
	histSubs    = 1 << histSubBits                      // 8 sub-buckets per octave
	histExact   = histSubs                              // values < 8 are exact
	HistBuckets = histExact + (64-histSubBits)*histSubs // 496
)

// histIndex maps a value to its bucket. For v < 16 the index equals
// the value; beyond that buckets widen geometrically.
//
//memento:noalloc
func histIndex(v uint64) int {
	if v < histExact {
		return int(v)
	}
	major := uint(bits.Len64(v)) - 1 // v ∈ [2^major, 2^(major+1))
	sub := (v >> (major - histSubBits)) & (histSubs - 1)
	return histExact + int(major-histSubBits)*histSubs + int(sub)
}

// histLower returns the smallest value that maps to bucket i.
func histLower(i int) uint64 {
	if i < histExact {
		return uint64(i)
	}
	major := uint(i-histExact)/histSubs + histSubBits
	sub := uint64(i-histExact) % histSubs
	return (histSubs + sub) << (major - histSubBits)
}

// histUpper returns the largest value that maps to bucket i.
func histUpper(i int) uint64 {
	if i < histExact {
		return uint64(i)
	}
	next := i + 1
	if next >= HistBuckets {
		return math.MaxUint64
	}
	return histLower(next) - 1
}

// Histogram records uint64 observations (latency nanoseconds, ring
// occupancies, batch sizes) into a fixed bucket array. Observe is
// wait-free (three relaxed atomic adds); memory never grows. The
// zero value is ready to use; a nil *Histogram is disabled.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [HistBuckets]atomic.Uint64
}

// Observe records v.
//
//memento:noalloc
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[histIndex(v)].Add(1)
}

// Snapshot copies the current state into s (reused across scrapes;
// pass a fresh or recycled snapshot). Buckets are loaded one at a
// time, so a snapshot taken under concurrent writes is a consistent
// set of monotone per-bucket reads, not a single atomic cut — fine
// for quantiles, documented for the pedantic.
func (h *Histogram) Snapshot(s *HistSnapshot) {
	if h == nil || s == nil {
		*s = HistSnapshot{}
		return
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
}

// HistSnapshot is a point-in-time copy of a Histogram, safe to
// merge, serialize, and query without synchronization.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [HistBuckets]uint64
}

// Mean returns the arithmetic mean of all observations (0 if empty).
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an estimate of the q-quantile (q in [0,1]). The
// estimate is the midpoint of the bucket holding the target rank, so
// the relative error is bounded by the bucket width (≤12.5%).
func (s *HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range s.Buckets {
		seen += c
		if seen >= rank {
			lo, hi := histLower(i), histUpper(i)
			return lo + (hi-lo)/2
		}
	}
	return histUpper(HistBuckets - 1)
}

// P50, P99, P999 are the quantiles the debug endpoints export.
func (s *HistSnapshot) P50() uint64  { return s.Quantile(0.50) }
func (s *HistSnapshot) P99() uint64  { return s.Quantile(0.99) }
func (s *HistSnapshot) P999() uint64 { return s.Quantile(0.999) }

// Max returns the upper bound of the highest non-empty bucket.
func (s *HistSnapshot) Max() uint64 {
	for i := HistBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return histUpper(i)
		}
	}
	return 0
}
