package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

// empiricalMean estimates a distribution's mean with n samples.
func empiricalMean(d Dist, n int, seed uint64) float64 {
	r := New(seed)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

// checkDist verifies a distribution's analytical mean against sampling and
// that every sample respects the declared bounds.
func checkDist(t *testing.T, d Dist, tol float64) {
	t.Helper()
	r := New(99)
	for i := 0; i < 10_000; i++ {
		v := d.Sample(r)
		if v < d.Min()-1e-9 || v > d.Max()+1e-9 {
			t.Fatalf("sample %v outside [%v, %v]", v, d.Min(), d.Max())
		}
	}
	emp := empiricalMean(d, 400_000, 7)
	if math.Abs(emp-d.Mean()) > tol {
		t.Fatalf("empirical mean %v vs analytical %v (tol %v)", emp, d.Mean(), tol)
	}
}

func TestPoint(t *testing.T)   { checkDist(t, Point(42), 1e-12) }
func TestUniform(t *testing.T) { checkDist(t, Uniform{Lo: 10, Hi: 30}, 0.1) }

func TestBernoulli(t *testing.T) {
	checkDist(t, NewBernoulliWithMean(0, 100, 37), 0.5)
}

func TestBernoulliMeanExact(t *testing.T) {
	for _, mean := range []float64{0, 1, 50, 99, 100} {
		b := NewBernoulliWithMean(0, 100, mean)
		if math.Abs(b.Mean()-mean) > 1e-12 {
			t.Fatalf("Bernoulli mean %v != %v", b.Mean(), mean)
		}
	}
}

func TestBernoulliPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mean outside support")
		}
	}()
	NewBernoulliWithMean(0, 100, 101)
}

func TestTruncNormalSymmetric(t *testing.T) {
	// Symmetric truncation: mean equals mu exactly.
	d := TruncNormal{Mu: 50, Sigma: 10, Lo: 0, Hi: 100}
	if math.Abs(d.Mean()-50) > 1e-9 {
		t.Fatalf("symmetric truncnorm mean %v != 50", d.Mean())
	}
	checkDist(t, d, 0.1)
}

func TestTruncNormalAsymmetric(t *testing.T) {
	// Mean near the edge: analytical mean must shift inward, and the
	// empirical mean must agree.
	d := TruncNormal{Mu: 5, Sigma: 10, Lo: 0, Hi: 100}
	if d.Mean() <= 5 {
		t.Fatalf("left-truncated mean %v should exceed mu", d.Mean())
	}
	checkDist(t, d, 0.1)
}

func TestTruncNormalZeroSigma(t *testing.T) {
	d := TruncNormal{Mu: 42, Sigma: 0, Lo: 0, Hi: 100}
	if d.Mean() != 42 {
		t.Fatalf("zero-sigma mean %v", d.Mean())
	}
	if v := d.Sample(New(1)); v != 42 {
		t.Fatalf("zero-sigma sample %v", v)
	}
}

func TestMixture(t *testing.T) {
	m := NewMixture(
		[]Dist{Point(10), Point(20), Point(60)},
		[]float64{1, 2, 1},
	)
	want := (10 + 2*20 + 60) / 4.0
	if math.Abs(m.Mean()-want) > 1e-12 {
		t.Fatalf("mixture mean %v != %v", m.Mean(), want)
	}
	if m.Min() != 10 || m.Max() != 60 {
		t.Fatalf("mixture bounds [%v, %v]", m.Min(), m.Max())
	}
	checkDist(t, m, 0.2)
}

func TestMixturePanics(t *testing.T) {
	cases := []func(){
		func() { NewMixture(nil, nil) },
		func() { NewMixture([]Dist{Point(1)}, []float64{1, 2}) },
		func() { NewMixture([]Dist{Point(1)}, []float64{-1}) },
		func() { NewMixture([]Dist{Point(1)}, []float64{0}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestMixtureSamplesFromComponents(t *testing.T) {
	// A two-point mixture must produce only the two component values, in
	// roughly the weighted proportion.
	m := NewMixture([]Dist{Point(0), Point(1)}, []float64{3, 1})
	r := New(3)
	ones := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		switch m.Sample(r) {
		case 1:
			ones++
		case 0:
		default:
			t.Fatal("unexpected sample value")
		}
	}
	if frac := float64(ones) / n; math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("component weight fraction %v != 0.25", frac)
	}
}

// Property: for arbitrary (bounded) truncnorm parameters, samples stay in
// bounds and the analytical mean lies within them too.
func TestTruncNormalProperty(t *testing.T) {
	r := New(5)
	check := func(muRaw, sigmaRaw uint16) bool {
		mu := float64(muRaw%200) - 50 // [-50, 150): may sit outside the window
		sigma := 0.1 + float64(sigmaRaw%300)/10
		d := TruncNormal{Mu: mu, Sigma: sigma, Lo: 0, Hi: 100}
		m := d.Mean()
		if m < 0 || m > 100 || math.IsNaN(m) {
			return false
		}
		for i := 0; i < 64; i++ {
			v := d.Sample(r)
			if v < 0 || v > 100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStdNormCDF(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959964, 0.975},
		{-1.959964, 0.025},
	}
	for _, c := range cases {
		if got := stdNormCDF(c.x); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("Phi(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestTruncNormalDeepTail(t *testing.T) {
	// Mean far below the truncation window: the tail sampler must agree
	// with the analytical mean (this is the flight-delay regime where the
	// old rejection fallback silently produced uniform garbage).
	d := TruncNormal{Mu: -139, Sigma: 45, Lo: 0, Hi: 1440}
	checkDist(t, d, 0.2)
	// And even deeper.
	d2 := TruncNormal{Mu: -400, Sigma: 45, Lo: 0, Hi: 1440}
	checkDist(t, d2, 0.1)
}
