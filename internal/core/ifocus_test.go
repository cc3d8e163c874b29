package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/xrand"
)

// sepUniverse builds k materialized groups with well-separated means
// (gap 10 on [0,100]) of n values each.
func sepUniverse(k int, n int, seed uint64) *dataset.Universe {
	r := xrand.New(seed)
	groups := make([]dataset.Group, k)
	for i := 0; i < k; i++ {
		mean := 10 + 10*float64(i)
		d := xrand.TruncNormal{Mu: mean, Sigma: 5, Lo: 0, Hi: 100}
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = d.Sample(r)
		}
		groups[i] = dataset.NewSliceGroup(groupNames(i), vals)
	}
	return dataset.NewUniverse(100, groups...)
}

// virtUniverse builds k virtual groups at the given means.
func virtUniverse(means []float64, n int64) *dataset.Universe {
	groups := make([]dataset.Group, len(means))
	for i, m := range means {
		groups[i] = dataset.NewDistGroup(groupNames(i), xrand.TruncNormal{Mu: m, Sigma: 8, Lo: 0, Hi: 100}, n)
	}
	return dataset.NewUniverse(100, groups...)
}

func groupNames(i int) string {
	return string(rune('a' + i%26))
}

func TestIFocusOrdersCorrectly(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		u := sepUniverse(6, 50_000, seed)
		res, err := IFocus(u, xrand.New(seed+100), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !CorrectOrdering(res.Estimates, u.TrueMeans()) {
			t.Fatalf("seed %d: incorrect ordering", seed)
		}
		if res.Capped {
			t.Fatalf("seed %d: unexpectedly capped", seed)
		}
	}
}

func TestIFocusDeterministic(t *testing.T) {
	u := sepUniverse(5, 10_000, 1)
	a, err := IFocus(u, xrand.New(9), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Fresh universe (the first run consumed permutations).
	u2 := sepUniverse(5, 10_000, 1)
	b, err := IFocus(u2, xrand.New(9), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSamples != b.TotalSamples || a.Rounds != b.Rounds {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d samples/rounds",
			a.TotalSamples, a.Rounds, b.TotalSamples, b.Rounds)
	}
	for i := range a.Estimates {
		if a.Estimates[i] != b.Estimates[i] {
			t.Fatalf("estimate %d differs", i)
		}
	}
}

func TestIFocusSampleCountsMatchSettling(t *testing.T) {
	u := virtUniverse([]float64{10, 50, 52, 90}, 1_000_000)
	res, err := IFocus(u, xrand.New(3), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The contentious pair (50, 52) must be sampled more than the easy
	// extremes.
	if res.SampleCounts[1] <= res.SampleCounts[0] || res.SampleCounts[2] <= res.SampleCounts[3] {
		t.Fatalf("contentious groups undersampled: %v", res.SampleCounts)
	}
	// Sample counts equal the settling rounds (one sample per round while
	// active).
	for i, m := range res.SampleCounts {
		if int(m) > res.SettledRound[i] {
			t.Fatalf("group %d: %d samples after settling at round %d", i, m, res.SettledRound[i])
		}
	}
	if res.TotalSamples != res.SampleCounts[0]+res.SampleCounts[1]+res.SampleCounts[2]+res.SampleCounts[3] {
		t.Fatal("total samples does not sum counts")
	}
}

func TestIFocusResolutionStopsEarly(t *testing.T) {
	// Two groups 1 apart: strict ordering needs many samples, resolution
	// r=5 may order them arbitrarily and stop at ε < 5/4.
	u := virtUniverse([]float64{50, 51}, 10_000_000)
	strictOpts := DefaultOptions()
	strictOpts.MaxRounds = 1 << 22
	strict, err := IFocus(u, xrand.New(4), strictOpts)
	if err != nil {
		t.Fatal(err)
	}
	relOpts := DefaultOptions()
	relOpts.Resolution = 5
	relaxed, err := IFocus(u, xrand.New(4), relOpts)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.TotalSamples >= strict.TotalSamples {
		t.Fatalf("resolution did not reduce samples: %d vs %d", relaxed.TotalSamples, strict.TotalSamples)
	}
	if relaxed.FinalEpsilon >= relOpts.Resolution {
		t.Fatalf("final epsilon %v not below resolution", relaxed.FinalEpsilon)
	}
	if !ResolutionCorrect(relaxed.Estimates, u.TrueMeans(), 5) {
		t.Fatal("resolution ordering violated")
	}
}

func TestIFocusExhaustionGivesExactMeans(t *testing.T) {
	// Two tiny groups with nearly equal means: the algorithm must exhaust
	// them and return their exact means.
	a := []float64{49, 51, 50, 50}   // mean 50
	b := []float64{50, 50, 51, 49.2} // mean 50.05
	u := dataset.NewUniverse(100,
		dataset.NewSliceGroup("a", a),
		dataset.NewSliceGroup("b", b),
	)
	res, err := IFocus(u, xrand.New(5), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimates[0]-50) > 1e-9 || math.Abs(res.Estimates[1]-50.05) > 1e-9 {
		t.Fatalf("exhausted groups not exact: %v", res.Estimates)
	}
	if !CorrectOrdering(res.Estimates, u.TrueMeans()) {
		t.Fatal("ordering wrong after exhaustion")
	}
}

func TestIFocusSingleGroup(t *testing.T) {
	u := virtUniverse([]float64{42}, 1000)
	res, err := IFocus(u, xrand.New(6), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// A single group has no one to overlap: it settles immediately after
	// the first comparison round.
	if res.TotalSamples > 2 {
		t.Fatalf("single group took %d samples", res.TotalSamples)
	}
}

func TestIFocusHeuristicFactorReducesSamples(t *testing.T) {
	u := virtUniverse([]float64{40, 45, 60, 80}, 1_000_000)
	pure, err := IFocus(u, xrand.New(7), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.HeuristicFactor = 4
	cheat, err := IFocus(u, xrand.New(7), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cheat.TotalSamples >= pure.TotalSamples {
		t.Fatalf("heuristic factor did not reduce samples: %d vs %d", cheat.TotalSamples, pure.TotalSamples)
	}
}

func TestIFocusMaxRoundsCaps(t *testing.T) {
	// Equal means with replacement never separate; the cap must fire.
	u := virtUniverse([]float64{50, 50}, 1_000_000)
	opts := DefaultOptions()
	opts.WithReplacement = true
	opts.MaxRounds = 500
	res, err := IFocus(u, xrand.New(8), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Capped {
		t.Fatal("cap did not fire")
	}
	if res.Rounds > 500 {
		t.Fatalf("ran %d rounds past the cap", res.Rounds)
	}
}

func TestIFocusPartialResultsOrder(t *testing.T) {
	u := virtUniverse([]float64{10, 50, 52, 90}, 1_000_000)
	var order []int
	opts := DefaultOptions()
	opts.OnPartial = func(g int, est float64, round int, eps float64) {
		order = append(order, g)
	}
	res, err := IFocus(u, xrand.New(9), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("partial callbacks: %v", order)
	}
	// Callbacks arrive in settling order, consistent with SettledRound.
	for i := 0; i+1 < len(order); i++ {
		if res.SettledRound[order[i]] > res.SettledRound[order[i+1]] {
			t.Fatalf("partial order inconsistent: %v vs rounds %v", order, res.SettledRound)
		}
	}
	// The contentious middle pair settles last.
	last2 := map[int]bool{order[2]: true, order[3]: true}
	if !last2[1] || !last2[2] {
		t.Fatalf("expected groups 1,2 to settle last: %v", order)
	}
}

func TestIFocusTracerInvariants(t *testing.T) {
	u := virtUniverse([]float64{20, 60, 85}, 100_000)
	prevEps := math.Inf(1)
	prevActive := 4
	calls := 0
	opts := DefaultOptions()
	opts.OnRound = func(m int, eps float64, _ []float64, active []bool, est []float64, total int64) {
		calls++
		n := 0
		for _, a := range active {
			if a {
				n++
			}
		}
		if m > 2 && eps > prevEps {
			t.Fatalf("epsilon grew at round %d", m)
		}
		if n > prevActive {
			t.Fatalf("active set grew at round %d", m)
		}
		if m > 1 {
			prevEps = eps
		}
		prevActive = n
	}
	if _, err := IFocus(u, xrand.New(10), opts); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("tracer never called")
	}
}

func TestIFocusValidation(t *testing.T) {
	u := virtUniverse([]float64{10, 20}, 1000)
	bad := []Options{
		{Delta: 0},
		{Delta: 1.5},
		{Delta: 0.05, Kappa: 0.5},
		{Delta: 0.05, HeuristicFactor: 0.5},
		{Delta: 0.05, Resolution: -1},
	}
	for i, opts := range bad {
		if _, err := IFocus(u, xrand.New(1), opts); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	if _, err := IFocus(nil, xrand.New(1), DefaultOptions()); err == nil {
		t.Error("nil universe accepted")
	}
}

func TestIFocusWithReplacementUnknownSizes(t *testing.T) {
	// With-replacement mode must work without group sizes.
	groups := []dataset.Group{
		funcishGroup{name: "a", mean: 30},
		funcishGroup{name: "b", mean: 70},
	}
	u := dataset.NewUniverse(100, groups...)
	opts := DefaultOptions()
	opts.WithReplacement = true
	res, err := IFocus(u, xrand.New(11), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Estimates[0] < res.Estimates[1]) {
		t.Fatal("ordering wrong")
	}
	// Without-replacement mode must refuse unknown sizes.
	if _, err := IFocus(u, xrand.New(11), DefaultOptions()); err == nil {
		t.Fatal("unknown sizes accepted in without-replacement mode")
	}
}

// funcishGroup is a size-less group for with-replacement tests.
type funcishGroup struct {
	name string
	mean float64
}

func (g funcishGroup) Name() string { return g.name }
func (g funcishGroup) Size() int64  { return 0 }
func (g funcishGroup) Draw(r *xrand.RNG) float64 {
	return xrand.TruncNormal{Mu: g.mean, Sigma: 10, Lo: 0, Hi: 100}.Sample(r)
}
func (g funcishGroup) TrueMean() float64 { return g.mean }
