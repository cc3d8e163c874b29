package conc

import (
	"fmt"
	"math"
)

// This file makes the concentration inequality pluggable. Every sampling
// algorithm in the repository only needs *some* valid anytime per-group
// confidence radius — the ordering guarantees, stopping rules, and mistake
// bounds are all proved against "an interval that contains the true mean
// with probability 1−δ/K at every round simultaneously", never against the
// Hoeffding form specifically. Bound abstracts that contract so the
// Hoeffding/Serfling schedule (the paper's choice, and the default),
// a variance-adaptive empirical-Bernstein bound, and its finite-population
// variant can be swapped per run.
//
// The Bernstein bounds consume per-group sufficient statistics (count,
// mean, M2) maintained incrementally by the sampler accounting layer —
// Welford updates folded in as draws happen, never a rescan of past draws —
// which is exactly the single-pass, close-to-the-data discipline the
// memory-bottleneck argument of the PIM line of work prescribes.

// Kind names a Bound implementation. The zero value selects the default
// Hoeffding/Serfling schedule.
type Kind string

// Kind values.
const (
	// KindHoeffding is the paper's anytime Hoeffding/Hoeffding–Serfling
	// schedule (Algorithm 1, Line 6): variance-oblivious, bit-for-bit the
	// behavior of every release before bounds became pluggable.
	KindHoeffding Kind = "hoeffding"
	// KindBernstein is the anytime empirical-Bernstein bound: its radius
	// scales with the *observed* per-group standard deviation instead of
	// the domain width C, so low-spread groups separate with far fewer
	// samples. Population sizes are ignored (with-replacement analysis);
	// a fully consumed group still reports radius zero.
	KindBernstein Kind = "bernstein"
	// KindBernsteinFinite is KindBernstein with a Serfling-style
	// finite-population correction on the variance term: as a group's
	// sample approaches its population the radius collapses, the same way
	// the Hoeffding–Serfling schedule's correction behaves.
	KindBernsteinFinite Kind = "bernstein-finite"
)

// ParseKind normalizes a user-facing bound name. The empty string selects
// the default Hoeffding schedule.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case "", KindHoeffding:
		return KindHoeffding, nil
	case KindBernstein:
		return KindBernstein, nil
	case KindBernsteinFinite:
		return KindBernsteinFinite, nil
	}
	return "", fmt.Errorf("conc: unknown bound %q (want %s, %s, or %s)",
		s, KindHoeffding, KindBernstein, KindBernsteinFinite)
}

// Moments is an incrementally maintained Welford accumulator: the
// sufficient statistics (count, mean, sum of squared deviations) behind
// the variance-adaptive bounds. One Moments per group lives in the sampler
// accounting layer and is folded forward as draws happen; it is never
// rebuilt by rescanning past draws. Like a group's RNG stream, it is
// group-owned state: at most one goroutine may update a given group's
// Moments at a time (the parallel round driver's per-group discipline).
type Moments struct {
	// N is the number of observed values.
	N int64
	// Mean is the running mean.
	Mean float64
	// M2 is the running sum of squared deviations from the mean.
	M2 float64
}

// Add folds one value into the moments.
func (mo *Moments) Add(x float64) {
	mo.N++
	d := x - mo.Mean
	mo.Mean += d / float64(mo.N)
	mo.M2 += d * (x - mo.Mean)
}

// AddAll folds a block of values in one call.
func (mo *Moments) AddAll(xs []float64) {
	for _, x := range xs {
		mo.Add(x)
	}
}

// Variance returns the empirical (1/N) variance — the convention of the
// empirical-Bernstein inequality of Audibert, Munos & Szepesvári. Zero
// before two values have been observed.
func (mo *Moments) Variance() float64 {
	if mo.N < 2 {
		return 0
	}
	v := mo.M2 / float64(mo.N)
	if v < 0 {
		return 0 // floating-point guard; M2 is non-negative analytically
	}
	return v
}

// Reset clears the accumulator.
func (mo *Moments) Reset() { *mo = Moments{} }

// Bound computes an anytime per-group confidence radius. With probability
// at least 1−Delta/K per group (1−Delta after the union bound over the K
// groups), the group's running sample mean stays within Radius of its true
// mean at every sample count simultaneously — the contract every round
// algorithm's settle logic is proved against.
//
// A Bound belongs to one run: Radius may update memoised state, so it is
// not safe for concurrent use.
type Bound interface {
	// Kind identifies the implementation.
	Kind() Kind
	// NeedsMoments reports whether Radius consumes per-group moments.
	// Variance-oblivious bounds return false and tolerate a nil Moments,
	// letting callers skip the accounting entirely.
	NeedsMoments() bool
	// Radius returns the confidence half-width for a group holding m
	// samples drawn from a population of size n (n == 0 means sampling
	// with replacement / unknown size: finite-population corrections are
	// dropped). mom carries the group's incrementally maintained moments;
	// it may be nil when NeedsMoments is false.
	Radius(m int, n int64, mom *Moments) float64
}

// NewBound builds the Bound implementation named by kind over the value
// domain [0, c] with k groups, failure probability delta, and geometric
// round spacing kappa (the same κ the Hoeffding schedule uses).
func NewBound(kind Kind, c float64, k int, delta, kappa float64) (Bound, error) {
	kind, err := ParseKind(string(kind))
	if err != nil {
		return nil, err
	}
	s, err := newSchedule(c, k, delta, kappa, 0)
	if err != nil {
		return nil, err
	}
	if kind != KindHoeffding {
		return &bernsteinBound{c: s.C, kappa: s.Kappa, logTerm: s.logTerm, finite: kind == KindBernsteinFinite}, nil
	}
	return &hoeffdingBound{s: s}, nil
}

// MustBound is NewBound but panics on invalid parameters; for internal
// callers whose parameters are validated upstream.
func MustBound(kind Kind, c float64, k int, delta, kappa float64) Bound {
	b, err := NewBound(kind, c, k, delta, kappa)
	if err != nil {
		panic(err)
	}
	return b
}

// hoeffdingBound adapts the anytime Hoeffding/Serfling Schedule to the
// Bound interface. Radius is exactly Schedule.EpsilonN, so runs routed
// through it match the shared-schedule code path bit for bit.
type hoeffdingBound struct {
	s Schedule
}

func (b *hoeffdingBound) Kind() Kind         { return KindHoeffding }
func (b *hoeffdingBound) NeedsMoments() bool { return false }

func (b *hoeffdingBound) Radius(m int, n int64, _ *Moments) float64 {
	return b.s.EpsilonN(m, n)
}

// ln3 is the empirical-Bernstein constant: the inequality of Audibert,
// Munos & Szepesvári (2009) holds with probability 1−δ at radius
// sqrt(2·V̂·ln(3/δ)/m) + 3·C·ln(3/δ)/m, the 3 covering its two internal
// deviation events plus the variance estimate.
var ln3 = math.Log(3)

// bernsteinBound is the anytime empirical-Bernstein bound. It reuses the
// Hoeffding schedule's iterated-logarithm union machinery: allocating the
// per-group budget δ/K across geometrically spaced sample counts exactly
// as Schedule does yields the per-count budget
//
//	δ_m = 3δ / (π²·K·log_κ(m)²)
//
// so ln(3/δ_m) = 2·loglog_κ(m) + ln(π²K/(3δ)) + ln 3 — the schedule's
// cached logTerm plus the Bernstein constant. The radius is then
//
//	ε_m = sqrt(2·V̂_m·f·L_m / (m/κ)) + 3·C·L_m / (m/κ)
//
// with V̂_m the group's empirical variance and f the optional Serfling
// finite-population factor (finite variant only). The first term shrinks
// with the observed spread — the whole point — while the second, the
// price of not knowing the variance a priori, decays at 1/m and is soon
// negligible. The radius is clamped to C: values live in [0, C], so the
// true mean is always within C of any estimate.
type bernsteinBound struct {
	c, kappa, logTerm float64 // the schedule's C, Kappa and logTerm
	finite            bool
	// L_m depends on m alone, and in a round every group holds the same m,
	// so L is memoised for the last m asked (memoM 0: nothing yet).
	memoM int
	memoL float64
}

func (b *bernsteinBound) Kind() Kind {
	if b.finite {
		return KindBernsteinFinite
	}
	return KindBernstein
}

func (b *bernsteinBound) NeedsMoments() bool { return true }

func (b *bernsteinBound) Radius(m int, n int64, mom *Moments) float64 {
	if m < 2 || mom == nil || mom.N < 2 {
		return b.c // not enough information to estimate the spread
	}
	if n > 0 && int64(m) >= n {
		return 0 // the whole population is consumed; the mean is exact
	}
	mf := float64(m)
	mk := mf
	if b.kappa > 1 {
		mk = mf / b.kappa
	}
	if m != b.memoM {
		b.memoM, b.memoL = m, 2*loglog(mf, b.kappa)+b.logTerm+ln3
	}
	l := b.memoL
	f := 1.0
	if b.finite && n > 0 {
		f = 1 - (mf-1)/float64(n)
		if f < 0 {
			f = 0
		}
	}
	r := math.Sqrt(2*mom.Variance()*f*l/mk) + 3*b.c*l/mk
	if r > b.c {
		r = b.c
	}
	return r
}

// EBRadius is the fixed-confidence (non-anytime) empirical-Bernstein
// radius: with probability at least 1−delta, the mean of m samples in
// [0, c] with empirical variance v is within
//
//	ε = sqrt(2·v·ln(3/δ)/m) + 3·c·ln(3/δ)/m
//
// of the true mean (Audibert–Munos–Szepesvári). It is the Bernstein
// counterpart of HoeffdingRadius, used by IREFINE's variance-adaptive
// re-estimation.
func EBRadius(c float64, m int, v, delta float64) float64 {
	if m < 2 {
		return c
	}
	l := math.Log(3 / delta)
	r := math.Sqrt(2*v*l/float64(m)) + 3*c*l/float64(m)
	if r > c {
		r = c
	}
	return r
}
