package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a.Seed(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical outputs of 1000", same)
	}
}

func TestSeedReset(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after reseed, step %d: got %d want %d", i, got, first[i])
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(2)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ≈ 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 2000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(4)
	const n = 10
	const trials = 100000
	var counts [n]int
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Intn bucket %d: %d, want ≈ %v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulliRate(t *testing.T) {
	for _, p := range []float64{0, 0.001, 0.1, 0.5, 0.9, 1} {
		b := NewBernoulli(New(5), p)
		const trials = 500000
		hits := 0
		for i := 0; i < trials; i++ {
			if b.Sample() {
				hits++
			}
		}
		got := float64(hits) / trials
		tol := 5 * math.Sqrt(p*(1-p)/trials)
		if p == 0 && hits != 0 {
			t.Fatalf("p=0 fired %d times", hits)
		}
		if p == 1 && hits != trials {
			t.Fatalf("p=1 fired only %d of %d", hits, trials)
		}
		if math.Abs(got-p) > tol+1e-9 {
			t.Fatalf("Bernoulli(%v) empirical rate %v beyond tolerance %v", p, got, tol)
		}
	}
}

func TestBernoulliClamps(t *testing.T) {
	b := NewBernoulli(New(6), 2)
	if b.p != 1 {
		t.Fatalf("P clamped to %v, want 1", b.p)
	}
	b.SetP(-3)
	if b.p != 0 {
		t.Fatalf("P clamped to %v, want 0", b.p)
	}
	for i := 0; i < 100; i++ {
		if b.Sample() {
			t.Fatal("p=0 sampler fired")
		}
	}
}

func TestGeometricMean(t *testing.T) {
	for _, p := range []float64{0.5, 0.1, 0.01} {
		g := NewGeometric(New(10), p)
		const trials = 200000
		sum := 0.0
		for i := 0; i < trials; i++ {
			sum += float64(g.Next())
		}
		mean := sum / trials
		want := (1 - p) / p
		sd := math.Sqrt((1-p)/(p*p)) / math.Sqrt(trials)
		if math.Abs(mean-want) > 6*sd+0.01 {
			t.Fatalf("Geometric(%v) mean %v, want ≈ %v", p, mean, want)
		}
	}
}

func TestGeometricEdge(t *testing.T) {
	g := NewGeometric(New(11), 1)
	for i := 0; i < 100; i++ {
		if g.Next() != 0 {
			t.Fatal("p=1 must always return 0 failures")
		}
	}
	g.SetP(0) // clamps to a tiny positive probability, must not panic
	if v := g.Next(); v < 0 {
		t.Fatalf("negative geometric draw %d", v)
	}
}

func TestUint64BitBalance(t *testing.T) {
	// Each bit of the output should be set about half the time.
	r := New(12)
	const trials = 50000
	var ones [64]int
	for i := 0; i < trials; i++ {
		v := r.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<uint(b)) != 0 {
				ones[b]++
			}
		}
	}
	for b, c := range ones {
		if math.Abs(float64(c)-trials/2) > 6*math.Sqrt(trials)/2 {
			t.Fatalf("bit %d set %d/%d times", b, c, trials)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkBernoulli(b *testing.B) {
	s := NewBernoulli(New(1), 0.01)
	n := 0
	for i := 0; i < b.N; i++ {
		if s.Sample() {
			n++
		}
	}
	_ = n
}

func BenchmarkGeometric(b *testing.B) {
	g := NewGeometric(New(1), 0.01)
	n := 0
	for i := 0; i < b.N; i++ {
		n += g.Next()
	}
	_ = n
}
