package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZKnownValues(t *testing.T) {
	cases := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959963985},
		{0.025, -1.959963985},
		{0.95, 1.644853627},
		{0.99, 2.326347874},
		{0.999, 3.090232306},
		{0.9999, 3.719016485},
		{0.99995, 3.890591886}, // the paper's δ = 10⁻⁴ two-sided value
		{0.8, 0.841621234},
	}
	for _, c := range cases {
		got, err := Z(c.p)
		if err != nil {
			t.Fatalf("Z(%v): %v", c.p, err)
		}
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("Z(%v) = %.9f, want %.9f", c.p, got, c.want)
		}
	}
}

func TestZErrors(t *testing.T) {
	for _, p := range []float64{0, 1, -0.1, 1.1, math.NaN()} {
		if _, err := Z(p); err == nil {
			t.Errorf("Z(%v) should fail", p)
		}
	}
}

func TestZRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Abs(math.Mod(raw, 1))
		if p <= 1e-12 || p >= 1-1e-12 {
			return true
		}
		z, err := Z(p)
		if err != nil {
			return false
		}
		return math.Abs(NormCDF(z)-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// mustZ is Z for probabilities the test knows are valid.
func mustZ(t *testing.T, p float64) float64 {
	t.Helper()
	z, err := Z(p)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestZPaperBound(t *testing.T) {
	// Theorem 5.2 remarks "Z_{1−δ/4} < 4 for any δ > 10⁻⁶"; the remark
	// is loose (the true value at δ = 10⁻⁶ is ≈ 5.03). Assert the real
	// numbers so the discrepancy is documented, and that the bound does
	// hold from δ = 10⁻⁴ up — the regime every experiment uses.
	if z := mustZ(t, 1-1e-6/4); math.Abs(z-5.0263) > 1e-3 {
		t.Fatalf("Z(1-1e-6/4) = %v, want ≈ 5.0263", z)
	}
	if z := mustZ(t, 1-1e-4/4); z >= 4.2 || z <= 3.8 {
		t.Fatalf("Z(1-1e-4/4) = %v, want in (3.8, 4.2)", z)
	}
	// Monotone in p.
	if mustZ(t, 0.999) >= mustZ(t, 0.9999) {
		t.Fatal("Z must be increasing in p")
	}
}

func TestNormCDF(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963985, 0.975},
		{-1.959963985, 0.025},
		{3, 0.998650102},
	}
	for _, c := range cases {
		if got := NormCDF(c.x); math.Abs(got-c.want) > 1e-8 {
			t.Errorf("NormCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestRMSE(t *testing.T) {
	var r RMSE
	if r.Value() != 0 {
		t.Fatal("empty RMSE should be 0")
	}
	r.Add(3, 0)
	r.Add(0, 4)
	// sqrt((9+16)/2)
	want := math.Sqrt(12.5)
	if math.Abs(r.Value()-want) > 1e-12 {
		t.Fatalf("RMSE = %v, want %v", r.Value(), want)
	}
	if r.N() != 2 {
		t.Fatalf("N = %d, want 2", r.N())
	}
}

func TestRMSENonNegativeProperty(t *testing.T) {
	f := func(est, truth []float64) bool {
		var r RMSE
		n := len(est)
		if len(truth) < n {
			n = len(truth)
		}
		for i := 0; i < n; i++ {
			r.Add(est[i], truth[i])
		}
		return r.Value() >= 0 && r.N() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
