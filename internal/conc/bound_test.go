package conc

import (
	"math"
	"testing"
)

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"", KindHoeffding, true},
		{"hoeffding", KindHoeffding, true},
		{"bernstein", KindBernstein, true},
		{"bernstein-finite", KindBernsteinFinite, true},
		{"chernoff", "", false},
		{"Bernstein", "", false},
	}
	for _, tc := range cases {
		got, err := ParseKind(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseKind(%q) accepted", tc.in)
		}
	}
}

func TestMomentsWelford(t *testing.T) {
	var mo Moments
	xs := []float64{3, 7, 7, 19, 24, 1, 12}
	mo.AddAll(xs)
	mean, sq := 0.0, 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	wantVar := sq / float64(len(xs))
	if math.Abs(mo.Mean-mean) > 1e-12 {
		t.Fatalf("mean %v, want %v", mo.Mean, mean)
	}
	if math.Abs(mo.Variance()-wantVar) > 1e-9 {
		t.Fatalf("variance %v, want %v", mo.Variance(), wantVar)
	}
	mo.Reset()
	if mo.N != 0 || mo.Variance() != 0 {
		t.Fatalf("reset left state: %+v", mo)
	}
}

// TestRadiusMonotoneInM: every bound's radius is non-increasing in the
// sample count (at fixed observed variance) — the property the settle
// logic relies on when it treats "interval separated" as permanent.
func TestRadiusMonotoneInM(t *testing.T) {
	const c = 100.0
	for _, kind := range []Kind{KindHoeffding, KindBernstein, KindBernsteinFinite} {
		b := MustBound(kind, c, 8, 0.05, 1)
		prev := math.Inf(1)
		for m := 2; m <= 1<<20; m = m*5/4 + 1 {
			mom := &Moments{N: int64(m), M2: 9 * float64(m)} // variance 9
			r := b.Radius(m, 0, mom)
			if r > prev+1e-12 {
				t.Fatalf("%s: radius rose at m=%d: %v -> %v", kind, m, prev, r)
			}
			if r < 0 {
				t.Fatalf("%s: negative radius %v at m=%d", kind, r, m)
			}
			prev = r
		}
	}
}

// TestBernsteinBeatsHoeffdingLowVariance: once the observed variance is
// far below (C/2)² — the implicit variance the Hoeffding bound charges —
// the empirical-Bernstein radius is strictly smaller.
func TestBernsteinBeatsHoeffdingLowVariance(t *testing.T) {
	const c = 100.0
	h := MustBound(KindHoeffding, c, 8, 0.05, 1)
	eb := MustBound(KindBernstein, c, 8, 0.05, 1)
	for _, v := range []float64{0, 1, 25} { // all ≪ (c/2)² = 2500
		for m := 512; m <= 1<<20; m *= 4 {
			mom := &Moments{N: int64(m), M2: v * float64(m)}
			rh := h.Radius(m, 0, nil)
			rb := eb.Radius(m, 0, mom)
			if rb >= rh {
				t.Fatalf("variance %v, m=%d: bernstein %v >= hoeffding %v", v, m, rb, rh)
			}
		}
	}
}

// TestBernsteinFiniteTightens: the finite-population variant never
// exceeds the plain bound, and collapses to zero once the population is
// consumed.
func TestBernsteinFiniteTightens(t *testing.T) {
	const c = 100.0
	eb := MustBound(KindBernstein, c, 4, 0.05, 1)
	fin := MustBound(KindBernsteinFinite, c, 4, 0.05, 1)
	const n = 10_000
	for m := 2; m < n; m = m*2 + 1 {
		mom := &Moments{N: int64(m), M2: 50 * float64(m)}
		rp, rf := eb.Radius(m, 0, mom), fin.Radius(m, n, mom)
		if rf > rp {
			t.Fatalf("m=%d: finite %v > plain %v", m, rf, rp)
		}
	}
	mom := &Moments{N: n, M2: 50 * n}
	if r := fin.Radius(n, n, mom); r != 0 {
		t.Fatalf("exhausted population: radius %v, want 0", r)
	}
	if r := eb.Radius(n, n, mom); r != 0 {
		t.Fatalf("plain bound on exhausted population: radius %v, want 0", r)
	}
}

// TestRadiusEarlyAndClamped: with fewer than two observations every bound
// reports the whole domain, and no radius ever exceeds C.
func TestRadiusEarlyAndClamped(t *testing.T) {
	const c = 100.0
	for _, kind := range []Kind{KindBernstein, KindBernsteinFinite} {
		b := MustBound(kind, c, 4, 0.05, 1)
		if r := b.Radius(1, 0, &Moments{N: 1}); r != c {
			t.Fatalf("%s: m=1 radius %v, want C", kind, r)
		}
		if r := b.Radius(0, 0, nil); r != c {
			t.Fatalf("%s: nil moments radius %v, want C", kind, r)
		}
		// Huge variance at tiny m: the clamp keeps the radius at C.
		if r := b.Radius(3, 0, &Moments{N: 3, M2: 3 * 2500}); r > c {
			t.Fatalf("%s: radius %v above the domain width", kind, r)
		}
	}
}

// TestBoundCoverage is a seeded coverage simulation: across many
// independent runs, the fraction in which the running mean *ever* leaves
// [μ ± Radius(m)] at any checkpoint must stay at or below δ — the anytime
// guarantee every algorithm's settle logic consumes. The bounds are
// conservative, so the observed miscoverage should in fact be near zero.
func TestBoundCoverage(t *testing.T) {
	const (
		c      = 100.0
		delta  = 0.05
		trials = 300
		draws  = 2000
	)
	// A deliberately skewed bounded distribution: most mass at 5, a tail
	// at 95. Mean 5 + 0.1*90 = 14.
	const mean = 14.0
	for _, kind := range []Kind{KindHoeffding, KindBernstein} {
		b := MustBound(kind, c, 1, delta, 1)
		violations := 0
		rng := newTestRNG(0xc0ffee ^ uint64(len(kind)))
		for trial := 0; trial < trials; trial++ {
			var mo Moments
			sum := 0.0
			violated := false
			for m := 1; m <= draws; m++ {
				x := 5.0
				if rng.float64() < 0.1 {
					x = 95.0
				}
				sum += x
				mo.Add(x)
				if math.Abs(sum/float64(m)-mean) > b.Radius(m, 0, &mo) {
					violated = true
					break
				}
			}
			if violated {
				violations++
			}
		}
		if float64(violations) > delta*trials {
			t.Fatalf("%s: %d/%d runs broke the anytime interval (allowed %v)",
				kind, violations, trials, delta*trials)
		}
	}
}

// newTestRNG is a tiny splitmix64 so the conc package's tests need no
// dependency on internal/xrand.
type testRNG struct{ s uint64 }

func newTestRNG(seed uint64) *testRNG { return &testRNG{s: seed} }

func (r *testRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *testRNG) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// TestRadiusMemoMatchesFresh: a bound that memoises L_m across calls must
// return exactly the radius a freshly built bound returns, whatever the
// sequence of m — repeated, increasing, decreasing, interleaved with the
// degenerate m < 2 — and whatever the population and moments.
func TestRadiusMemoMatchesFresh(t *testing.T) {
	const c = 100.0
	ms := []int{2, 2, 3, 50, 50, 49, 1, 1000, 7, 1000, 1000, 999, 4096, 3, 0, 65536, 2}
	ns := []int64{0, 40, 5000}
	for _, kind := range []Kind{KindHoeffding, KindBernstein, KindBernsteinFinite} {
		for _, kappa := range []float64{1, 1.3} {
			memo := MustBound(kind, c, 6, 0.05, kappa)
			for step, m := range ms {
				n := ns[step%len(ns)]
				mom := &Moments{N: int64(m), Mean: 40, M2: float64(m) * float64(step+1) * 9}
				got := memo.Radius(m, n, mom)
				want := MustBound(kind, c, 6, 0.05, kappa).Radius(m, n, mom)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s κ=%v step %d (m=%d, n=%d): memoised radius %v, fresh %v", kind, kappa, step, m, n, got, want)
				}
			}
		}
	}
}
