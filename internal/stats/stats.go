// Package stats implements the statistical machinery the paper's
// analysis and evaluation rely on:
//
//   - Z — the inverse CDF of the standard normal distribution, used in
//     Theorems 5.2–5.5 to size sampling probabilities and error bounds.
//   - An RMSE accumulator for the On-Arrival evaluation model
//     (Section 6: RMSE(Alg) = sqrt(1/N Σ (f̂ − f)²)).
//
// Everything is pure computation on float64 and safe for concurrent use
// by construction (no shared state), except the accumulator, which is
// single-writer like the sketches it instruments.
package stats

import (
	"errors"
	"math"
)

// ErrBadProbability is returned by quantile functions for p outside (0,1).
var ErrBadProbability = errors.New("stats: probability must be in (0, 1)")

// NormCDF returns the standard normal cumulative distribution function
// Φ(x).
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// Z returns the inverse of the standard normal CDF at p, i.e. the value
// z with Φ(z) = p. This is the Z_α of the paper (Table 1: "inverse CDF
// of the normal distribution"). It uses Acklam's rational approximation
// refined by one step of Halley's method against math.Erfc, giving
// near machine precision over (0, 1).
func Z(p float64) (float64, error) {
	if !(p > 0 && p < 1) {
		return 0, ErrBadProbability
	}
	x := acklam(p)
	// Halley refinement: solve Φ(x) - p = 0.
	e := NormCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x, nil
}

// acklam computes Peter Acklam's rational approximation to the inverse
// normal CDF (relative error < 1.15e-9 over the full range).
func acklam(p float64) float64 {
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
	const pLow = 0.02425
	const pHigh = 1 - pLow
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > pHigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// RMSE accumulates squared errors and reports the root mean square
// error, the paper's On-Arrival accuracy metric. The zero value is
// ready to use.
type RMSE struct {
	n   int
	sum float64
}

// Add incorporates one (estimate, truth) observation.
func (r *RMSE) Add(estimate, truth float64) {
	d := estimate - truth
	r.n++
	r.sum += d * d
}

// N returns the number of observations.
func (r *RMSE) N() int { return r.n }

// Value returns sqrt(mean squared error); 0 for an empty accumulator.
func (r *RMSE) Value() float64 {
	if r.n == 0 {
		return 0
	}
	return math.Sqrt(r.sum / float64(r.n))
}
