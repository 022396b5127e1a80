package obs

import (
	"math/bits"
	"testing"
)

func TestHistIndexSmallValuesExact(t *testing.T) {
	// By construction values below 16 land in a bucket equal to the
	// value itself (8 exact + first octave's sub-buckets are width 1).
	for v := uint64(0); v < 16; v++ {
		if got := histIndex(v); got != int(v) {
			t.Fatalf("histIndex(%d) = %d, want %d", v, got, v)
		}
	}
}

func TestHistBucketBoundsConsistent(t *testing.T) {
	for i := 0; i < HistBuckets; i++ {
		lo, hi := histLower(i), histUpper(i)
		if lo > hi {
			t.Fatalf("bucket %d: lower %d > upper %d", i, lo, hi)
		}
		if got := histIndex(lo); got != i {
			t.Fatalf("histIndex(lower(%d)=%d) = %d", i, lo, got)
		}
		if got := histIndex(hi); got != i {
			t.Fatalf("histIndex(upper(%d)=%d) = %d", i, hi, got)
		}
		if i > 0 && histLower(i) != histUpper(i-1)+1 {
			t.Fatalf("gap between bucket %d and %d", i-1, i)
		}
	}
	if histIndex(1<<63) >= HistBuckets || histIndex(^uint64(0)) != HistBuckets-1 {
		t.Fatal("top of range does not map into the bucket array")
	}
}

func TestHistRelativeError(t *testing.T) {
	// The bucket midpoint must be within 1/8 of any member value.
	for _, v := range []uint64{17, 100, 1000, 12345, 1 << 20, 3<<40 + 7} {
		i := histIndex(v)
		lo, hi := histLower(i), histUpper(i)
		mid := lo + (hi-lo)/2
		diff := int64(mid) - int64(v)
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > float64(v)/8+1 {
			t.Fatalf("value %d: midpoint %d off by %d (>12.5%%)", v, mid, diff)
		}
	}
	_ = bits.Len64
}

func TestHistQuantiles(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	var s HistSnapshot
	h.Snapshot(&s)
	if s.Count != 1000 || s.Sum != 500500 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	checks := []struct {
		q    float64
		want uint64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {0, 1}, {1, 1000}}
	for _, c := range checks {
		got := s.Quantile(c.q)
		lo := float64(c.want) * 0.85
		hi := float64(c.want)*1.15 + 1
		if float64(got) < lo || float64(got) > hi {
			t.Fatalf("Quantile(%g) = %d, want within 15%% of %d", c.q, got, c.want)
		}
	}
	if m := s.Mean(); m < 500 || m > 501 {
		t.Fatalf("mean = %g", m)
	}
	if mx := s.Max(); mx < 1000 || mx > 1150 {
		t.Fatalf("max = %d", mx)
	}
}

func TestHistEmptyQuantileEdges(t *testing.T) {
	// A zero-value snapshot must answer every quantile — including
	// out-of-range q, which Quantile clamps — with 0, never scan into
	// the bucket array's fallback upper bound.
	var s HistSnapshot
	for _, q := range []float64{-1, 0, 0.5, 0.99, 0.999, 1, 2} {
		if got := s.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%g) = %d, want 0", q, got)
		}
	}
	if s.P50() != 0 || s.P99() != 0 || s.P999() != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty P50/P99/P999/Mean/Max must be 0")
	}
	// Snapshotting a nil histogram must reset a dirty snapshot, not
	// leave stale buckets behind.
	s.Count, s.Buckets[3] = 7, 7
	var nilH *Histogram
	nilH.Snapshot(&s)
	if s.Count != 0 || s.Buckets[3] != 0 || s.P99() != 0 {
		t.Fatal("Snapshot on nil histogram must zero the snapshot")
	}
}

func TestHistSingleBucket(t *testing.T) {
	// All mass in one exact bucket: every quantile is the value
	// itself, exactly (values < 8 have width-1 buckets).
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(5)
	}
	var s HistSnapshot
	h.Snapshot(&s)
	for _, q := range []float64{0, 0.001, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 5 {
			t.Fatalf("single-bucket Quantile(%g) = %d, want 5", q, got)
		}
	}
	if s.Max() != 5 || s.Mean() != 5 {
		t.Fatalf("max=%d mean=%g, want 5", s.Max(), s.Mean())
	}

	// All mass in one log-range bucket: every quantile collapses to
	// that bucket's midpoint, within the 12.5% width bound of the
	// recorded value.
	var hl Histogram
	const v = uint64(1)<<30 + 12345
	for i := 0; i < 1000; i++ {
		hl.Observe(v)
	}
	var sl HistSnapshot
	hl.Snapshot(&sl)
	p0, p50, p100 := sl.Quantile(0), sl.P50(), sl.Quantile(1)
	if p0 != p50 || p50 != p100 {
		t.Fatalf("single-bucket quantiles differ: %d %d %d", p0, p50, p100)
	}
	if float64(p50) < float64(v)*0.875 || float64(p50) > float64(v)*1.125 {
		t.Fatalf("single-bucket p50 = %d, want within 12.5%% of %d", p50, v)
	}
}
