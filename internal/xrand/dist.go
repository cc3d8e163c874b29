package xrand

import (
	"fmt"
	"math"
	"sort"
)

// Dist is a bounded one-dimensional distribution. All values produced by
// Sample must lie in [Min(), Max()], and Mean must return the exact
// analytical mean — the experiment harness uses it as ground truth when the
// underlying population is virtual (not materialized).
type Dist interface {
	// Sample draws one value using the supplied generator.
	Sample(r *RNG) float64
	// Mean returns the exact expected value of the distribution.
	Mean() float64
	// Min and Max bound the support.
	Min() float64
	Max() float64
}

// Point is a degenerate distribution concentrated at a single value.
type Point float64

// Sample returns the point value.
func (p Point) Sample(*RNG) float64 { return float64(p) }

// Mean returns the point value.
func (p Point) Mean() float64 { return float64(p) }

// Min returns the point value.
func (p Point) Min() float64 { return float64(p) }

// Max returns the point value.
func (p Point) Max() float64 { return float64(p) }

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct {
	Lo, Hi float64
}

// Sample draws uniformly from [Lo, Hi].
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// Mean returns (Lo+Hi)/2.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Min returns Lo.
func (u Uniform) Min() float64 { return u.Lo }

// Max returns Hi.
func (u Uniform) Max() float64 { return u.Hi }

// Bernoulli is a two-point distribution on {Lo, Hi}: it returns Hi with
// probability P and Lo otherwise. The paper's "bernoulli" workload uses
// Lo=0, Hi=100 with P chosen so the mean matches a target.
type Bernoulli struct {
	Lo, Hi float64
	P      float64 // probability of Hi
}

// NewBernoulliWithMean returns a Bernoulli distribution on {lo, hi} whose
// mean is exactly mean. It panics if mean lies outside [lo, hi].
func NewBernoulliWithMean(lo, hi, mean float64) Bernoulli {
	if hi <= lo {
		panic("xrand: Bernoulli requires hi > lo")
	}
	p := (mean - lo) / (hi - lo)
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("xrand: Bernoulli mean %v outside [%v, %v]", mean, lo, hi))
	}
	return Bernoulli{Lo: lo, Hi: hi, P: p}
}

// Sample draws from the two-point distribution.
func (b Bernoulli) Sample(r *RNG) float64 {
	if r.Float64() < b.P {
		return b.Hi
	}
	return b.Lo
}

// Mean returns Lo + P*(Hi-Lo).
func (b Bernoulli) Mean() float64 { return b.Lo + b.P*(b.Hi-b.Lo) }

// Min returns the lower point of the support.
func (b Bernoulli) Min() float64 { return b.Lo }

// Max returns the upper point of the support.
func (b Bernoulli) Max() float64 { return b.Hi }

// TruncNormal is a normal distribution with the given location and scale,
// truncated by rejection to [Lo, Hi]. The paper's "truncnorm" workload
// truncates to [0, 100].
//
// Mean is computed analytically from the standard truncated-normal formula
// so it is exact even when the truncation is asymmetric.
type TruncNormal struct {
	Mu, Sigma float64
	Lo, Hi    float64
}

// Sample draws from the truncated normal. When the bulk of the normal lies
// inside the window, plain rejection is used. When the window sits deep in
// a tail (the mean is far outside [Lo, Hi]), rejection would starve, so the
// sampler switches to Robert's (1995) exponential-proposal method for the
// one-sided standard-normal tail, which has bounded expected cost at any
// truncation depth.
func (t TruncNormal) Sample(r *RNG) float64 {
	if t.Sigma <= 0 {
		return clamp(t.Mu, t.Lo, t.Hi)
	}
	a := (t.Lo - t.Mu) / t.Sigma
	b := (t.Hi - t.Mu) / t.Sigma
	const tailCut = 3.0
	switch {
	case a >= tailCut:
		// Right tail of the standard normal, mirrored into [a, b].
		return t.Mu + t.Sigma*sampleNormalTail(r, a, b)
	case b <= -tailCut:
		// Left tail: mirror.
		return t.Mu - t.Sigma*sampleNormalTail(r, -b, -a)
	}
	for {
		x := r.NormFloat64()
		if x >= a && x <= b {
			return t.Mu + t.Sigma*x
		}
	}
}

// sampleNormalTail draws a standard normal conditioned on [a, b] with
// a >= 3 (deep right tail), via Robert's exponential rejection: propose
// x = a − ln(U)/λ with λ = (a + sqrt(a²+4))/2 and accept with probability
// exp(−(x−λ)²/2); re-propose if x lands past b (vanishingly rare for the
// windows this package builds).
func sampleNormalTail(r *RNG, a, b float64) float64 {
	lambda := (a + math.Sqrt(a*a+4)) / 2
	for {
		x := a - math.Log(1-r.Float64())/lambda
		if x > b {
			continue
		}
		d := x - lambda
		if r.Float64() <= math.Exp(-d*d/2) {
			return x
		}
	}
}

// Mean returns the analytical mean of the truncated normal:
// mu + sigma * (phi(a) - phi(b)) / (Phi(b) - Phi(a)), with the window
// probability computed in tail-stable form so deep truncations (the mean
// many sigmas outside [Lo, Hi]) do not cancel to zero.
func (t TruncNormal) Mean() float64 {
	if t.Sigma <= 0 {
		return clamp(t.Mu, t.Lo, t.Hi)
	}
	a := (t.Lo - t.Mu) / t.Sigma
	b := (t.Hi - t.Mu) / t.Sigma
	za := stdNormPDF(a)
	zb := stdNormPDF(b)
	den := normWindowProb(a, b)
	if den <= 0 {
		return clamp(t.Mu, t.Lo, t.Hi)
	}
	m := t.Mu + t.Sigma*(za-zb)/den
	return clamp(m, t.Lo, t.Hi)
}

// normWindowProb returns P(a <= Z <= b) for a standard normal Z, computed
// from complementary error functions on the side where the window lies so
// the subtraction never catastrophically cancels.
func normWindowProb(a, b float64) float64 {
	switch {
	case a > 0:
		// Right tail: Q(a) − Q(b) with Q(x) = erfc(x/√2)/2.
		return 0.5 * (math.Erfc(a/math.Sqrt2) - math.Erfc(b/math.Sqrt2))
	case b < 0:
		// Left tail, by symmetry.
		return 0.5 * (math.Erfc(-b/math.Sqrt2) - math.Erfc(-a/math.Sqrt2))
	default:
		return stdNormCDF(b) - stdNormCDF(a)
	}
}

// Min returns the lower truncation bound.
func (t TruncNormal) Min() float64 { return t.Lo }

// Max returns the upper truncation bound.
func (t TruncNormal) Max() float64 { return t.Hi }

// Mixture is a finite mixture of component distributions with the given
// weights. Weights need not be normalized.
type Mixture struct {
	Components []Dist
	Weights    []float64

	cum []float64 // cached cumulative weights
}

// NewMixture returns a mixture over the given components and weights.
// It panics if the lengths differ, no components are given, or any weight is
// negative.
func NewMixture(components []Dist, weights []float64) *Mixture {
	if len(components) == 0 || len(components) != len(weights) {
		panic("xrand: mixture needs equal, nonzero numbers of components and weights")
	}
	m := &Mixture{Components: components, Weights: weights}
	m.cum = make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("xrand: negative mixture weight")
		}
		total += w
		m.cum[i] = total
	}
	if total <= 0 {
		panic("xrand: mixture weights sum to zero")
	}
	return m
}

// Sample picks a component proportionally to its weight and samples from it.
func (m *Mixture) Sample(r *RNG) float64 {
	u := r.Float64() * m.cum[len(m.cum)-1]
	i := sort.SearchFloat64s(m.cum, u)
	if i == len(m.Components) {
		i--
	}
	return m.Components[i].Sample(r)
}

// Mean returns the weighted average of the component means.
func (m *Mixture) Mean() float64 {
	total := m.cum[len(m.cum)-1]
	mean := 0.0
	for i, c := range m.Components {
		mean += m.Weights[i] / total * c.Mean()
	}
	return mean
}

// Min returns the smallest component lower bound.
func (m *Mixture) Min() float64 {
	lo := math.Inf(1)
	for _, c := range m.Components {
		lo = math.Min(lo, c.Min())
	}
	return lo
}

// Max returns the largest component upper bound.
func (m *Mixture) Max() float64 {
	hi := math.Inf(-1)
	for _, c := range m.Components {
		hi = math.Max(hi, c.Max())
	}
	return hi
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// stdNormPDF is the standard normal density.
func stdNormPDF(x float64) float64 {
	return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
}

// stdNormCDF is the standard normal cumulative distribution function,
// computed via the complementary error function.
func stdNormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
