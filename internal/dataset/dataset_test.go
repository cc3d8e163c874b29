package dataset

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestSliceGroupBasics(t *testing.T) {
	g := NewSliceGroup("g", []float64{1, 2, 3, 4})
	if g.Name() != "g" || g.Size() != 4 {
		t.Fatalf("name/size wrong: %q %d", g.Name(), g.Size())
	}
	if g.TrueMean() != 2.5 {
		t.Fatalf("mean %v", g.TrueMean())
	}
	r := xrand.New(1)
	for i := 0; i < 100; i++ {
		v := g.Draw(r)
		if v < 1 || v > 4 {
			t.Fatalf("draw %v outside values", v)
		}
	}
}

func TestSliceGroupEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty group should panic")
		}
	}()
	NewSliceGroup("e", nil)
}

func TestWithoutReplacementIsPermutation(t *testing.T) {
	vals := []float64{10, 20, 30, 40, 50, 60, 70}
	g := NewSliceGroup("g", vals)
	r := xrand.New(2)
	var drawn []float64
	for {
		v, ok := g.DrawWithoutReplacement(r)
		if !ok {
			break
		}
		drawn = append(drawn, v)
	}
	if len(drawn) != len(vals) {
		t.Fatalf("drew %d of %d values", len(drawn), len(vals))
	}
	sort.Float64s(drawn)
	for i, v := range vals {
		if drawn[i] != v {
			t.Fatalf("multiset mismatch at %d: %v", i, drawn)
		}
	}
	// Exhausted: further draws report false.
	if _, ok := g.DrawWithoutReplacement(r); ok {
		t.Fatal("exhausted group still drawing")
	}
	// Reset gives a fresh pass.
	g.ResetDraws()
	if _, ok := g.DrawWithoutReplacement(r); !ok {
		t.Fatal("reset group not drawing")
	}
}

func TestWithoutReplacementMeanExact(t *testing.T) {
	// Consuming the full permutation reproduces the exact mean, for any
	// contents — the property exhaustion-settling in IFOCUS relies on.
	r := xrand.New(3)
	check := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, b := range raw {
			vals[i] = float64(b)
		}
		g := NewSliceGroup("g", vals)
		sum := 0.0
		n := 0
		for {
			v, ok := g.DrawWithoutReplacement(r)
			if !ok {
				break
			}
			sum += v
			n++
		}
		return n == len(vals) && math.Abs(sum/float64(n)-g.TrueMean()) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestScan(t *testing.T) {
	g := NewSliceGroup("g", []float64{1, 2, 3})
	sum := 0.0
	n := g.Scan(func(v float64) { sum += v })
	if n != 3 || sum != 6 {
		t.Fatalf("scan n=%d sum=%v", n, sum)
	}
}

func TestDistGroup(t *testing.T) {
	g := NewDistGroup("d", xrand.Point(5), 1000)
	if g.TrueMean() != 5 || g.Size() != 1000 {
		t.Fatalf("dist group basics wrong")
	}
	if v := g.Draw(xrand.New(1)); v != 5 {
		t.Fatalf("draw %v", v)
	}
}

func TestDistGroupPanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDistGroup("d", xrand.Point(5), 0)
}

func TestUniverse(t *testing.T) {
	u := NewUniverse(100,
		NewSliceGroup("a", []float64{1, 2}),
		NewSliceGroup("b", []float64{3, 4, 5}),
	)
	if u.K() != 2 || u.TotalSize() != 5 || u.MaxSize() != 3 {
		t.Fatalf("universe shape wrong: k=%d total=%d max=%d", u.K(), u.TotalSize(), u.MaxSize())
	}
	means := u.TrueMeans()
	if means[0] != 1.5 || means[1] != 4 {
		t.Fatalf("means %v", means)
	}
}

func TestUniverseUnknownSize(t *testing.T) {
	// A func-like group with unknown size makes TotalSize 0.
	u := NewUniverse(1, unknownGroup{})
	if u.TotalSize() != 0 {
		t.Fatal("unknown sizes should yield 0 total")
	}
}

type unknownGroup struct{}

func (unknownGroup) Name() string            { return "u" }
func (unknownGroup) Size() int64             { return 0 }
func (unknownGroup) Draw(*xrand.RNG) float64 { return 0.5 }
func (unknownGroup) TrueMean() float64       { return 0.5 }

func TestEtas(t *testing.T) {
	means := []float64{10, 12, 20}
	etas := Etas(means)
	want := []float64{2, 2, 8}
	for i := range want {
		if etas[i] != want[i] {
			t.Fatalf("etas %v, want %v", etas, want)
		}
	}
	if MinEta(means) != 2 {
		t.Fatalf("min eta %v", MinEta(means))
	}
}

func TestEtasBruteForce(t *testing.T) {
	check := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		means := make([]float64, len(raw))
		for i, b := range raw {
			means[i] = float64(b)
		}
		etas := Etas(means)
		for i := range means {
			want := math.Inf(1)
			for j := range means {
				if i != j {
					want = math.Min(want, math.Abs(means[i]-means[j]))
				}
			}
			if etas[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerAccounting(t *testing.T) {
	u := NewUniverse(10,
		NewSliceGroup("a", []float64{1, 1, 1}),
		NewSliceGroup("b", []float64{2, 2}),
	)
	s := NewStreamSampler(u, 4, false)
	for i := 0; i < 5; i++ {
		s.Draw(0)
	}
	s.Draw(1)
	if s.Count(0) != 5 || s.Count(1) != 1 || s.Total() != 6 {
		t.Fatalf("counts %v total %d", s.Counts(), s.Total())
	}
}

func TestSamplerWithoutReplacementExhaustion(t *testing.T) {
	u := NewUniverse(10, NewSliceGroup("a", []float64{1, 2}))
	s := NewStreamSampler(u, 5, true)
	s.Draw(0)
	s.Draw(0)
	if s.Exhausted(0) {
		t.Fatal("exhausted too early")
	}
	s.Draw(0) // falls back to with-replacement
	if !s.Exhausted(0) {
		t.Fatal("exhaustion not recorded")
	}
}

func TestSamplerModes(t *testing.T) {
	u := NewUniverse(10, NewSliceGroup("a", []float64{1}))
	if !NewStreamSampler(u, 1, true).WithoutReplacement() {
		t.Fatal("mode flag lost")
	}
	if NewStreamSampler(u, 1, false).WithoutReplacement() {
		t.Fatal("mode flag wrong")
	}
}

func TestPairGroups(t *testing.T) {
	g := NewSlicePairGroup("p", []float64{1, 2, 3}, []float64{10, 20, 30})
	if g.TrueMean() != 2 || g.TrueMeanZ() != 20 {
		t.Fatalf("pair means %v %v", g.TrueMean(), g.TrueMeanZ())
	}
	r := xrand.New(6)
	y, z := g.DrawPair(r)
	if z != y*10 {
		t.Fatalf("pair draw not aligned: y=%v z=%v", y, z)
	}

	dg := NewDistPairGroup("dp", xrand.Point(1), xrand.Point(2), 100)
	if dg.TrueMeanZ() != 2 {
		t.Fatalf("dist pair z mean %v", dg.TrueMeanZ())
	}
	y, z = dg.DrawPair(r)
	if y != 1 || z != 2 {
		t.Fatalf("dist pair draw %v %v", y, z)
	}
}

func TestSlicePairGroupMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched slices")
		}
	}()
	NewSlicePairGroup("p", []float64{1}, []float64{1, 2})
}

func TestMembershipFractionEstimatorUnbiased(t *testing.T) {
	u := NewUniverse(10,
		NewSliceGroup("a", make([]float64, 300)),
		NewSliceGroup("b", make([]float64, 700)),
	)
	est := NewMembershipFractionEstimator(u)
	r := xrand.New(7)
	const n = 200_000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += est.DrawFractionEstimate(1, r)
	}
	if frac := sum / n; math.Abs(frac-0.7) > 0.01 {
		t.Fatalf("estimated fraction %v, want 0.7", frac)
	}
}
