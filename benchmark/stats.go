package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for an
// even count), or 0 when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile returns the nearest-rank q-quantile of xs, or 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// minBeyond is how many samples must lie beyond a quoted quantile.
const minBeyond = 10

// supported reports whether n samples leave at least minBeyond of them beyond
// the q-quantile — the rule for the highest percentile a run may quote.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9 // 100·(1−0.9) is 9.999… in floating point
}

// spread summarises repeated measurements of one quantity: the median is what
// the run reports, min and max show what one noisy segment cost.
type spread struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func spreadOf(vals []float64) spread {
	s := spread{Median: median(vals), Values: vals}
	if len(vals) > 0 {
		s.Min, s.Max = vals[0], vals[0]
		for _, v := range vals {
			s.Min, s.Max = math.Min(s.Min, v), math.Max(s.Max, v)
		}
	}
	return s
}

// rel returns (max − min)/median, the segment spread -compare sets against a
// metric's bound.
func (s spread) rel() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / math.Abs(s.Median)
}

// numSegments is how many equal parts the steady phase is cut into.
const numSegments = 5

// segmenter cuts a fixed wall-time phase into numSegments equal parts. The
// loop that owns the phase calls mark after each unit of work; a segment
// closes at the first mark past its boundary and is rated over the time and
// work it really spanned, so a late mark costs no accuracy.
type segmenter struct {
	start    time.Time
	segLen   time.Duration
	lastT    time.Time
	lastWork uint64
	lastIdle time.Duration
	rates    []float64 // work per busy second, one per closed segment
}

func newSegmenter(start time.Time, total time.Duration) *segmenter {
	return &segmenter{start: start, segLen: total / numSegments, lastT: start}
}

// mark records cumulative work and cumulative time not spent on it (idle: the
// quiesced control ticks of a fleet loop) as of now, and reports whether the
// phase is over, which is when the last segment has closed.
func (s *segmenter) mark(now time.Time, work uint64, idle time.Duration) bool {
	if boundary := s.start.Add(time.Duration(len(s.rates)+1) * s.segLen); !now.Before(boundary) {
		rate := 0.0
		if busy := now.Sub(s.lastT) - (idle - s.lastIdle); busy > 0 {
			rate = float64(work-s.lastWork) / busy.Seconds()
		}
		s.rates = append(s.rates, rate)
		s.lastT, s.lastWork, s.lastIdle = now, work, idle
	}
	return len(s.rates) >= numSegments
}

// segmentOf returns the index of the segment a sample taken at t falls in.
func (s *segmenter) segmentOf(t time.Time) int {
	return min(max(int(t.Sub(s.start)/s.segLen), 0), numSegments-1)
}

// latencies pools duration samples (in ms) and remembers the segment of each.
type latencies struct {
	ms  []float64
	seg []int
}

func (l *latencies) add(d time.Duration, seg int) {
	l.ms = append(l.ms, float64(d.Nanoseconds())/1e6)
	l.seg = append(l.seg, seg)
}

// segmentP50s returns the p50 of the samples of each segment that has any.
func (l *latencies) segmentP50s() []float64 {
	by := make([][]float64, numSegments)
	for i, v := range l.ms {
		by[l.seg[i]] = append(by[l.seg[i]], v)
	}
	var out []float64
	for _, b := range by {
		if len(b) > 0 {
			out = append(out, median(b))
		}
	}
	return out
}

// closeTo reports whether a share measured over n trials equals want to
// within 1 %, or within four standard deviations of the binomial noise of n
// trials where that is wider.
func closeTo(got, want float64, n int) bool {
	tol := math.Max(0.01*want, 4*math.Sqrt(want*(1-want)/float64(n)))
	return math.Abs(got-want) <= tol
}
