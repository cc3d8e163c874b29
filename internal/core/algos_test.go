package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/xrand"
)

func TestRoundRobinOrdersCorrectly(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		u := sepUniverse(5, 50_000, seed)
		res, err := RoundRobin(u, xrand.New(seed+200), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !CorrectOrdering(res.Estimates, u.TrueMeans()) {
			t.Fatalf("seed %d: incorrect ordering", seed)
		}
	}
}

func TestRoundRobinSamplesUniformly(t *testing.T) {
	u := virtUniverse([]float64{10, 50, 52, 90}, 1_000_000)
	res, err := RoundRobin(u, xrand.New(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin takes the same number of samples from every group: that
	// is exactly its waste.
	for i := 1; i < len(res.SampleCounts); i++ {
		if res.SampleCounts[i] != res.SampleCounts[0] {
			t.Fatalf("unequal counts: %v", res.SampleCounts)
		}
	}
}

func TestIFocusBeatsRoundRobin(t *testing.T) {
	// The paper's headline: on instances with one contentious pair and
	// easy other groups, IFOCUS takes far fewer samples.
	var ifocusTotal, rrTotal int64
	for seed := uint64(0); seed < 5; seed++ {
		u := virtUniverse([]float64{10, 30, 49, 51, 75, 95}, 10_000_000)
		fo, err := IFocus(u, xrand.New(seed), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rr, err := RoundRobin(u, xrand.New(seed), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ifocusTotal += fo.TotalSamples
		rrTotal += rr.TotalSamples
	}
	if ifocusTotal*2 >= rrTotal {
		t.Fatalf("IFOCUS (%d) not at least 2x better than ROUNDROBIN (%d)", ifocusTotal, rrTotal)
	}
}

func TestIRefineOrdersCorrectly(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		u := sepUniverse(5, 50_000, seed)
		res, err := IRefine(u, xrand.New(seed+300), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !CorrectOrdering(res.Estimates, u.TrueMeans()) {
			t.Fatalf("seed %d: incorrect ordering", seed)
		}
	}
}

// TestIRefineBlockSum: IREFINE's batches draw through the driver's
// DrawBlockSum where they once streamed DrawBatch chunks; both draw the
// same stream and sum it in draw order on one running total, so every
// batch sum — and with it every IREFINE estimate — is bit for bit the
// same. The with-replacement batch spans several of DrawBlockSum's own
// chunks.
func TestIRefineBlockSum(t *testing.T) {
	u := pinUniverse()
	cases := []struct {
		m       int
		without bool
	}{{1, true}, {63, true}, {3000, true}, {10_000, false}}
	for _, c := range cases {
		chunked := dataset.NewStreamSampler(u, 7, c.without)
		block := dataset.NewStreamSampler(u, 7, c.without)
		buf := make([]float64, 64)
		for i := range u.Groups {
			want := 0.0
			for left := c.m; left > 0; {
				n := min(left, len(buf))
				chunked.DrawBatch(i, buf[:n])
				for _, v := range buf[:n] {
					want += v
				}
				left -= n
			}
			if got, ok := block.DrawBlockSum(i, c.m); !ok || got != want {
				t.Errorf("m=%d group %d: DrawBlockSum %v (ok=%v), chunked DrawBatch %v", c.m, i, got, ok, want)
			}
		}
		chunked.Release()
		block.Release()
	}
}

func TestIRefineBetweenIFocusAndRoundRobin(t *testing.T) {
	// Theorem 3.10's extra log(1/eta) factor: IREFINE should use more
	// samples than IFOCUS on a moderately hard instance.
	u := virtUniverse([]float64{20, 48, 52, 80}, 10_000_000)
	fo, err := IFocus(u, xrand.New(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ir, err := IRefine(u, xrand.New(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ir.TotalSamples <= fo.TotalSamples {
		t.Fatalf("IREFINE (%d) should exceed IFOCUS (%d) on this instance", ir.TotalSamples, fo.TotalSamples)
	}
}

func TestIRefineResolution(t *testing.T) {
	u := virtUniverse([]float64{50, 50.5}, 10_000_000)
	opts := DefaultOptions()
	opts.Resolution = 4
	res, err := IRefine(u, xrand.New(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Capped {
		t.Fatal("resolution run capped")
	}
	if !ResolutionCorrect(res.Estimates, u.TrueMeans(), 4) {
		t.Fatal("resolution ordering violated")
	}
	// The halving schedule must have stopped at or below r/4 per group.
	if res.FinalEpsilon >= 4 {
		t.Fatalf("final epsilon %v not refined to the resolution", res.FinalEpsilon)
	}
}

func TestScanExact(t *testing.T) {
	u := dataset.NewUniverse(100,
		dataset.NewSliceGroup("a", []float64{1, 2, 3}),
		dataset.NewSliceGroup("b", []float64{10, 20}),
	)
	res, err := Scan(u)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimates[0] != 2 || res.Estimates[1] != 15 {
		t.Fatalf("scan means %v", res.Estimates)
	}
	if res.TotalSamples != 5 {
		t.Fatalf("scan cost %d", res.TotalSamples)
	}
}

func TestScanRequiresMaterialized(t *testing.T) {
	u := virtUniverse([]float64{10}, 100)
	if _, err := Scan(u); err == nil {
		t.Fatal("scan of virtual group should fail")
	}
}

func TestTrendAdjacentOrdering(t *testing.T) {
	// A seasonal series where non-adjacent points nearly tie (the two
	// shoulder months) but neighbours are well separated.
	means := []float64{20, 40, 60, 40.5, 20.5}
	u := virtUniverse(means, 1_000_000)
	res, err := Trend(u, xrand.New(3), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !AdjacentCorrect(res.Estimates, means, 0) {
		t.Fatalf("adjacent ordering violated: %v", res.Estimates)
	}
}

func TestTrendCheaperThanFullOrdering(t *testing.T) {
	// Groups 1 and 3 differ by 0.5 but are not adjacent: Trend should not
	// spend samples separating them, while IFocus must.
	means := []float64{20, 50, 80, 50.5, 20.5}
	u := virtUniverse(means, 10_000_000)
	opts := DefaultOptions()
	opts.MaxRounds = 1 << 21
	full, err := IFocus(u, xrand.New(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Trend(u, xrand.New(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalSamples*4 >= full.TotalSamples {
		t.Fatalf("Trend (%d) should be at least 4x cheaper than full (%d)", tr.TotalSamples, full.TotalSamples)
	}
	if tr.Capped {
		t.Fatal("trend run capped")
	}
}

func TestTopTSelectsCorrectly(t *testing.T) {
	means := []float64{10, 80, 30, 90, 50, 70, 20}
	u := virtUniverse(means, 1_000_000)
	res, err := TopT(u, xrand.New(5), 3, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 1, 5} // 90, 80, 70
	if len(res.Members) != 3 {
		t.Fatalf("members %v", res.Members)
	}
	for i := range want {
		if res.Members[i] != want[i] {
			t.Fatalf("top-3 %v, want %v", res.Members, want)
		}
	}
	for _, i := range want {
		if res.Membership[i] != MemberIn {
			t.Fatalf("membership of %d: %v", i, res.Membership[i])
		}
	}
}

func TestTopTCheaperThanFull(t *testing.T) {
	// Two near-tied groups at the bottom must not be separated by a top-2
	// query.
	means := []float64{90, 70, 30, 30.3, 10}
	u := virtUniverse(means, 10_000_000)
	opts := DefaultOptions()
	opts.MaxRounds = 1 << 21
	full, err := IFocus(u, xrand.New(6), opts)
	if err != nil {
		t.Fatal(err)
	}
	top, err := TopT(u, xrand.New(6), 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if top.Capped {
		t.Fatal("top-t run capped")
	}
	if top.TotalSamples*4 >= full.TotalSamples {
		t.Fatalf("TopT (%d) should be at least 4x cheaper than full (%d)", top.TotalSamples, full.TotalSamples)
	}
}

func TestTopTValidation(t *testing.T) {
	u := virtUniverse([]float64{10, 20}, 1000)
	for _, tt := range []int{0, -1, 3} {
		if _, err := TopT(u, xrand.New(1), tt, DefaultOptions()); err == nil {
			t.Errorf("t=%d accepted", tt)
		}
	}
}

func TestWithMistakesFasterAndMostlyRight(t *testing.T) {
	// One impossible pair (exact tie at 50) among easy groups: strict
	// IFOCUS burns its cap, the mistakes variant stops once 80% of pairs
	// are certain.
	means := []float64{10, 30, 50, 50, 70, 90}
	u := virtUniverse(means, 10_000_000)
	opts := DefaultOptions()
	opts.WithReplacement = true
	opts.MaxRounds = 200_000
	strict, err := IFocus(u, xrand.New(7), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strict.Capped {
		t.Fatal("strict run should have hit the cap on the tied pair")
	}
	relaxed, err := WithMistakes(u, xrand.New(7), 0.8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.Capped {
		t.Fatal("mistakes run should terminate before the cap")
	}
	if relaxed.TotalSamples >= strict.TotalSamples {
		t.Fatalf("mistakes (%d) not cheaper than strict (%d)", relaxed.TotalSamples, strict.TotalSamples)
	}
	// At most the tied pair may be wrong: >= 80% of the 15 pairs correct.
	if bad := IncorrectPairs(relaxed.Estimates, means, 0); bad > 3 {
		t.Fatalf("%d incorrect pairs", bad)
	}
}

func TestWithMistakesValidation(t *testing.T) {
	u := virtUniverse([]float64{10, 20}, 1000)
	for _, g := range []float64{0, -0.1, 1.1} {
		if _, err := WithMistakes(u, xrand.New(1), g, DefaultOptions()); err == nil {
			t.Errorf("gamma=%v accepted", g)
		}
	}
}

func TestWithValuesBoundsErrors(t *testing.T) {
	means := []float64{20, 45, 70}
	u := virtUniverse(means, 10_000_000)
	const d = 2.0
	res, err := WithValues(u, xrand.New(8), d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !CorrectOrdering(res.Estimates, u.TrueMeans()) {
		t.Fatal("ordering wrong")
	}
	for i, est := range res.Estimates {
		if math.Abs(est-means[i]) > d {
			t.Fatalf("group %d: |%v - %v| > %v", i, est, means[i], d)
		}
	}
	// The value guarantee requires more sampling than plain ordering on
	// well-separated groups.
	plain, err := IFocus(u, xrand.New(8), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSamples <= plain.TotalSamples {
		t.Fatalf("value-guaranteed run (%d) should exceed plain (%d)", res.TotalSamples, plain.TotalSamples)
	}
}

func TestWithValuesValidation(t *testing.T) {
	u := virtUniverse([]float64{10, 20}, 1000)
	if _, err := WithValues(u, xrand.New(1), 0, DefaultOptions()); err == nil {
		t.Fatal("d=0 accepted")
	}
}
