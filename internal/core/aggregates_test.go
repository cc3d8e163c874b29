package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/xrand"
)

// sumUniverse builds groups whose sums order differently from their means
// (the interesting case for SUM queries).
func sumUniverse(seed uint64) *dataset.Universe {
	r := xrand.New(seed)
	mk := func(name string, mean float64, n int) dataset.Group {
		d := xrand.TruncNormal{Mu: mean, Sigma: 5, Lo: 0, Hi: 100}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = d.Sample(r)
		}
		return dataset.NewSliceGroup(name, vals)
	}
	// Means order: a < b < c. Sums order: c < b < a (sizes invert it).
	return dataset.NewUniverse(100,
		mk("a", 20, 60_000),
		mk("b", 50, 12_000),
		mk("c", 80, 3_000),
	)
}

func trueSums(u *dataset.Universe) []float64 {
	sums := make([]float64, u.K())
	for i, g := range u.Groups {
		sums[i] = g.TrueMean() * float64(g.Size())
	}
	return sums
}

func TestSumKnownSizesOrdersSums(t *testing.T) {
	u := sumUniverse(1)
	res, err := SumKnownSizes(u, xrand.New(2), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := trueSums(u)
	if !CorrectOrdering(res.Estimates, want) {
		t.Fatalf("sum ordering wrong: est %v truth %v", res.Estimates, want)
	}
	// Sums, not means: magnitudes must be in the size-scaled range.
	for i, g := range u.Groups {
		if res.Estimates[i] < float64(g.Size()) || res.Estimates[i] > 100*float64(g.Size()) {
			t.Fatalf("estimate %d = %v outside sum range", i, res.Estimates[i])
		}
	}
}

func TestSumKnownSizesNeedsSizes(t *testing.T) {
	u := dataset.NewUniverse(100, funcishGroup{name: "a", mean: 10}, funcishGroup{name: "b", mean: 20})
	opts := DefaultOptions()
	opts.WithReplacement = true
	if _, err := SumKnownSizes(u, xrand.New(1), opts); err == nil {
		t.Fatal("unknown sizes accepted")
	}
}

func TestSumUnknownSizesOrdersNormalizedSums(t *testing.T) {
	u := sumUniverse(3)
	est := dataset.NewMembershipFractionEstimator(u)
	opts := DefaultOptions()
	opts.MaxRounds = 1 << 21
	res, err := SumUnknownSizes(u, est, xrand.New(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Capped {
		t.Skip("instance too hard for the test budget; covered by smaller gap tests")
	}
	// Normalized sums: s_i * mu_i.
	total := float64(u.TotalSize())
	want := make([]float64, u.K())
	for i, g := range u.Groups {
		want[i] = float64(g.Size()) / total * g.TrueMean()
	}
	if !CorrectOrdering(res.Estimates, want) {
		t.Fatalf("normalized sum ordering wrong: est %v truth %v", res.Estimates, want)
	}
	for i := range want {
		if math.Abs(res.Estimates[i]-want[i]) > 5 {
			t.Fatalf("estimate %d = %v too far from %v", i, res.Estimates[i], want[i])
		}
	}
}

func TestSumUnknownSizesNeedsEstimator(t *testing.T) {
	u := sumUniverse(5)
	if _, err := SumUnknownSizes(u, nil, xrand.New(1), DefaultOptions()); err == nil {
		t.Fatal("nil estimator accepted")
	}
}

func TestCountUnknownSizesOrdersFractions(t *testing.T) {
	u := sumUniverse(6) // sizes 60k, 12k, 3k: fractions well separated
	est := dataset.NewMembershipFractionEstimator(u)
	opts := DefaultOptions()
	opts.MaxRounds = 1 << 21
	res, err := CountUnknownSizes(u, est, xrand.New(7), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Capped {
		t.Fatal("count run capped")
	}
	total := float64(u.TotalSize())
	want := make([]float64, u.K())
	for i, g := range u.Groups {
		want[i] = float64(g.Size()) / total
	}
	if !CorrectOrdering(res.Estimates, want) {
		t.Fatalf("count ordering wrong: est %v truth %v", res.Estimates, want)
	}
	// A group settles the moment the shared ε falls below half its
	// nearest-neighbour gap (0.64 for the largest group here), so its
	// frozen estimate is only guaranteed within ~0.3 of the truth; 0.15
	// keeps the regression meaningful without depending on a lucky seed.
	for i := range want {
		if math.Abs(res.Estimates[i]-want[i]) > 0.15 {
			t.Fatalf("fraction %d = %v too far from %v", i, res.Estimates[i], want[i])
		}
	}
}

func TestCountKnownSizesExact(t *testing.T) {
	u := sumUniverse(8)
	res, err := CountKnownSizes(u)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimates[0] != 60_000 || res.Estimates[1] != 12_000 || res.Estimates[2] != 3_000 {
		t.Fatalf("counts %v", res.Estimates)
	}
	if res.TotalSamples != 0 {
		t.Fatal("counting known sizes should take no samples")
	}
}

func TestMultiAggBothOrderings(t *testing.T) {
	r := xrand.New(9)
	mk := func(name string, muY, muZ float64, n int) dataset.Group {
		dy := xrand.TruncNormal{Mu: muY, Sigma: 6, Lo: 0, Hi: 100}
		dz := xrand.TruncNormal{Mu: muZ, Sigma: 6, Lo: 0, Hi: 100}
		ys := make([]float64, n)
		zs := make([]float64, n)
		for i := range ys {
			ys[i] = dy.Sample(r)
			zs[i] = dz.Sample(r)
		}
		return dataset.NewSlicePairGroup(name, ys, zs)
	}
	// Y ordering: a < b < c.  Z ordering: b < c < a.
	u := dataset.NewUniverse(100,
		mk("a", 20, 80, 40_000),
		mk("b", 50, 20, 40_000),
		mk("c", 80, 50, 40_000),
	)
	res, err := MultiAgg(u, xrand.New(10), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	truthY := u.TrueMeans()
	var truthZ []float64
	for _, g := range u.Groups {
		truthZ = append(truthZ, g.(dataset.PairGroup).TrueMeanZ())
	}
	if !CorrectOrdering(res.Estimates, truthY) {
		t.Fatalf("Y ordering wrong: %v vs %v", res.Estimates, truthY)
	}
	if !CorrectOrdering(res.SecondEstimates, truthZ) {
		t.Fatalf("Z ordering wrong: %v vs %v", res.SecondEstimates, truthZ)
	}
	var sum int64
	for _, c := range res.SampleCounts {
		sum += c
	}
	if sum != res.TotalSamples {
		t.Fatal("sample accounting inconsistent")
	}
}

func TestMultiAggRequiresPairGroups(t *testing.T) {
	u := virtUniverse([]float64{10, 20}, 1000)
	if _, err := MultiAgg(u, xrand.New(1), DefaultOptions()); err == nil {
		t.Fatal("non-pair groups accepted")
	}
}

func TestNoIndexOrdersCorrectly(t *testing.T) {
	u := sepUniverse(4, 30_000, 11)
	opts := DefaultOptions()
	opts.MaxDraws = 10_000_000
	res, err := NoIndex(u, xrand.New(12), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Capped {
		t.Fatal("no-index run capped")
	}
	if !CorrectOrdering(res.Estimates, u.TrueMeans()) {
		t.Fatalf("no-index ordering wrong: %v", res.Estimates)
	}
	// Sample counts must roughly follow group proportions (uniform groups
	// here): no group can be starved.
	for i, c := range res.SampleCounts {
		if c == 0 {
			t.Fatalf("group %d starved", i)
		}
	}
}

func TestNoIndexResolution(t *testing.T) {
	u := sepUniverse(4, 30_000, 13)
	opts := DefaultOptions()
	opts.Resolution = 10
	opts.MaxDraws = 10_000_000
	res, err := NoIndex(u, xrand.New(14), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ResolutionCorrect(res.Estimates, u.TrueMeans(), 10) {
		t.Fatal("resolution ordering violated")
	}
}

func TestNoIndexCostlierThanIFocus(t *testing.T) {
	// Without an index the tuple source cannot skip settled groups, so the
	// table-wide draw count exceeds IFOCUS's targeted sampling.
	u := virtUniverse([]float64{10, 49, 51, 90}, 1_000_000)
	fo, err := IFocus(u, xrand.New(15), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxDraws = 50_000_000
	ni, err := NoIndex(u, xrand.New(15), opts)
	if err != nil {
		t.Fatal(err)
	}
	if ni.TotalSamples <= fo.TotalSamples {
		t.Fatalf("no-index (%d) should cost more than IFOCUS (%d)", ni.TotalSamples, fo.TotalSamples)
	}
}

// TestNoIndexProportions: a table-wide tuple lands in group i with
// probability n_i / Σ n_j. Two tied groups never settle, so the run draws
// exactly its draw cap.
func TestNoIndexProportions(t *testing.T) {
	u := dataset.NewUniverse(100,
		dataset.NewSliceGroup("a", make([]float64, 9000)),
		dataset.NewSliceGroup("b", make([]float64, 1000)),
	)
	opts := DefaultOptions()
	opts.MaxDraws = 100_000
	res, err := NoIndex(u, xrand.New(16), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Capped || res.TotalSamples != opts.MaxDraws {
		t.Fatalf("tied run: capped=%v after %d draws, want the %d-draw cap", res.Capped, res.TotalSamples, opts.MaxDraws)
	}
	if frac := float64(res.SampleCounts[0]) / float64(res.TotalSamples); math.Abs(frac-0.9) > 0.01 {
		t.Fatalf("group 0 drawn %v of the time, want 0.9", frac)
	}
}
