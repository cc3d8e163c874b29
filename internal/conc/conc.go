// Package conc implements the concentration inequalities that drive every
// sampling algorithm in this repository: the classical Hoeffding bound, the
// Hoeffding–Serfling bound for sampling without replacement, and — most
// importantly — the anytime confidence-interval schedule of IFOCUS
// (Algorithm 1, Line 6 of the paper), which unions Hoeffding–Serfling over
// geometrically spaced rounds in the style of the law of the iterated
// logarithm so the interval is simultaneously valid at *every* round.
package conc

import (
	"fmt"
	"math"
)

// Schedule computes the anytime confidence-interval half-width ε_m used by
// IFOCUS and ROUNDROBIN. With probability at least 1-Delta/K (per group;
// 1-Delta after the union bound across the K groups), the running sample
// mean of a group stays within ε_m of the true mean at every round m
// simultaneously.
//
// The zero value is not usable; construct with NewSchedule.
type Schedule struct {
	// C is the width of the value domain: every sampled value lies in [0, C].
	C float64
	// K is the number of groups; the per-group failure budget is Delta/K.
	K int
	// Delta is the overall failure probability.
	Delta float64
	// Kappa is the geometric spacing of the union bound (κ in the paper).
	// Kappa == 1 selects the paper's experimental configuration, where the
	// iterated-logarithm term uses the natural log (paper footnote †).
	Kappa float64
	// N is the population size used by the Hoeffding–Serfling
	// finite-population correction (max_{i∈A} n_i in Algorithm 1).
	// N == 0 means sampling with replacement: the correction term is
	// dropped, exactly as §3.6 of the paper prescribes.
	N int64

	logTerm float64 // cached log(π²K/(3δ))
}

// NewSchedule validates the parameters and returns a Schedule.
func NewSchedule(c float64, k int, delta, kappa float64, n int64) (*Schedule, error) {
	s, err := newSchedule(c, k, delta, kappa, n)
	if err != nil {
		return nil, err
	}
	return &s, nil
}

// newSchedule is NewSchedule by value, for the bounds that embed one.
func newSchedule(c float64, k int, delta, kappa float64, n int64) (Schedule, error) {
	switch {
	case c <= 0:
		return Schedule{}, fmt.Errorf("conc: domain width c must be positive, got %v", c)
	case k <= 0:
		return Schedule{}, fmt.Errorf("conc: group count k must be positive, got %d", k)
	case delta <= 0 || delta >= 1:
		return Schedule{}, fmt.Errorf("conc: delta must be in (0,1), got %v", delta)
	case kappa < 1:
		return Schedule{}, fmt.Errorf("conc: kappa must be >= 1, got %v", kappa)
	case n < 0:
		return Schedule{}, fmt.Errorf("conc: population size must be non-negative, got %d", n)
	}
	s := Schedule{C: c, K: k, Delta: delta, Kappa: kappa, N: n}
	s.logTerm = math.Log(math.Pi * math.Pi * float64(k) / (3 * delta))
	return s, nil
}

// MustSchedule is NewSchedule but panics on invalid parameters. It is used
// by internal callers whose parameters are validated upstream.
func MustSchedule(c float64, k int, delta, kappa float64, n int64) *Schedule {
	s, err := NewSchedule(c, k, delta, kappa, n)
	if err != nil {
		panic(err)
	}
	return s
}

// Epsilon returns the confidence-interval half-width after m samples per
// active group:
//
//	ε_m = C · sqrt( (1 − (m/κ − 1)/N) · (2·loglog_κ(m) + log(π²K/(3δ))) / (2m/κ) )
//
// The finite-population factor is clamped to [0, 1] and dropped entirely
// when N == 0 (with-replacement mode). The iterated logarithm is clamped at
// zero: log log m is negative or undefined for small m, and clamping only
// widens the interval, which preserves the correctness guarantee.
func (s *Schedule) Epsilon(m int) float64 {
	return s.EpsilonN(m, s.N)
}

// EpsilonN is Epsilon with an explicit population size n, allowing callers
// to track the shrinking max_{i∈A} n_i of Algorithm 1 as groups deactivate.
// n == 0 drops the finite-population correction.
func (s *Schedule) EpsilonN(m int, n int64) float64 {
	if m < 1 {
		return s.C // no information yet; the whole domain
	}
	mf := float64(m)
	mk := mf // m/κ with the paper's κ=1 convention
	if s.Kappa > 1 {
		mk = mf / s.Kappa
	}
	ll := loglog(mf, s.Kappa)
	num := 2*ll + s.logTerm
	finite := 1.0
	if n > 0 {
		finite = 1 - (mk-1)/float64(n)
		if finite < 0 {
			finite = 0
		}
		if finite > 1 {
			finite = 1
		}
	}
	eps := s.C * math.Sqrt(finite*num/(2*mk))
	return eps
}

// SampleBound returns a conservative upper bound on the number of rounds
// needed to drive ε_m below target (the m* of Lemma 3 with target = η/4).
// It returns the smallest power-of-two-stepped m found by doubling then
// binary search; the exact minimal m is not needed by callers.
func (s *Schedule) SampleBound(target float64) int {
	if target <= 0 {
		return math.MaxInt32
	}
	lo, hi := 1, 1
	for s.Epsilon(hi) >= target {
		if hi > 1<<40 {
			return hi
		}
		lo = hi
		hi *= 2
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s.Epsilon(mid) < target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// loglog computes the clamped iterated logarithm term loglog_κ(m). With
// κ == 1 the outer log base degenerates, so the paper's footnote prescribes
// the natural logarithm instead.
func loglog(m, kappa float64) float64 {
	if m < math.E {
		return 0
	}
	inner := math.Log(m) // ln m, i.e. log_κ(m) for the κ=1 convention
	if kappa > 1 {
		inner /= math.Log(kappa) // log_κ(m)
	}
	outer := math.Log(inner)
	if outer < 0 {
		return 0
	}
	return outer
}

// HoeffdingRadius returns the two-sided Hoeffding confidence half-width for
// the mean of m i.i.d. samples in [0, c] at confidence 1-delta:
//
//	ε = c · sqrt( ln(2/δ) / (2m) )
func HoeffdingRadius(c float64, m int, delta float64) float64 {
	if m <= 0 {
		return c
	}
	return c * math.Sqrt(math.Log(2/delta)/(2*float64(m)))
}

// HoeffdingSampleSize returns the number of i.i.d. samples in [0, c]
// sufficient for the sample mean to be within ±eps of the true mean with
// probability at least 1-delta (Lemma 4 / Algorithm 2 of the paper):
//
//	m = ceil( c² / (2ε²) · ln(2/δ) )
func HoeffdingSampleSize(c, eps, delta float64) int {
	if eps <= 0 {
		return math.MaxInt32
	}
	m := c * c / (2 * eps * eps) * math.Log(2/delta)
	n := int(math.Ceil(m))
	if n < 1 {
		n = 1
	}
	return n
}

// SerflingRadius returns the Hoeffding–Serfling confidence half-width for
// the running mean of m samples drawn without replacement from a population
// of size n with values in [0, c], valid for all rounds up to m with
// probability 1-delta:
//
//	ε = c · sqrt( (1 − (m−1)/n) · ln(2/δ) / (2m) )
//
// The (1−(m−1)/n) factor is the finite-population correction of Serfling
// (1974); as m → n the radius collapses to zero because the remaining
// uncertainty vanishes.
func SerflingRadius(c float64, m int, n int64, delta float64) float64 {
	if m <= 0 {
		return c
	}
	if n > 0 && int64(m) >= n {
		return 0
	}
	finite := 1.0
	if n > 0 {
		finite = 1 - float64(m-1)/float64(n)
		if finite < 0 {
			finite = 0
		}
	}
	return c * math.Sqrt(finite*math.Log(2/delta)/(2*float64(m)))
}

// TheoreticalSampleComplexity evaluates the IFOCUS sample-complexity bound
// of Theorem 3.6 for a single group with minimal mean gap eta:
//
//	m*_i = O( c² · (log(k/δ) + loglog(1/η)) / η² )
//
// It is exposed for the difficulty analyses behind Figures 6(c) and 7(c).
func TheoreticalSampleComplexity(c, eta float64, k int, delta float64) float64 {
	if eta <= 0 {
		return math.Inf(1)
	}
	ll := math.Log(math.Max(math.Log(1/eta), 1))
	if ll < 0 {
		ll = 0
	}
	return c * c * (math.Log(float64(k)/delta) + ll) / (eta * eta)
}

// Difficulty returns the paper's difficulty proxy c²/η² used on the y-axes
// of Figures 6(c) and 7(c).
func Difficulty(c, eta float64) float64 {
	if eta <= 0 {
		return math.Inf(1)
	}
	return c * c / (eta * eta)
}
