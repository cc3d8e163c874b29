package rapidviz_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro"
	"repro/internal/xrand"
)

// mkGroups builds materialized groups with the given means on [0,100].
func mkGroups(means []float64, n int, seed uint64) []rapidviz.Group {
	r := xrand.New(seed)
	groups := make([]rapidviz.Group, len(means))
	for i, mu := range means {
		d := xrand.TruncNormal{Mu: mu, Sigma: 8, Lo: 0, Hi: 100}
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = d.Sample(r)
		}
		groups[i] = rapidviz.GroupFromValues(name(i), vals)
	}
	return groups
}

func name(i int) string { return string(rune('A' + i)) }

// run executes q on the default engine with the paper's one-sample rounds.
func run(groups []rapidviz.Group, q rapidviz.Query) (*rapidviz.Result, error) {
	q.BatchSize = 1
	return rapidviz.DefaultEngine().Run(context.Background(), q, groups)
}

// ordered reports whether est orders exactly like truth.
func ordered(est, truth []float64) bool {
	for i := range truth {
		for j := i + 1; j < len(truth); j++ {
			if truth[i] < truth[j] && !(est[i] < est[j]) {
				return false
			}
			if truth[i] > truth[j] && !(est[i] > est[j]) {
				return false
			}
		}
	}
	return true
}

func TestOrderEndToEnd(t *testing.T) {
	means := []float64{20, 45, 70, 90}
	groups := mkGroups(means, 30_000, 1)
	res, err := run(groups, rapidviz.Query{Bound: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !ordered(res.Estimates, means) {
		t.Fatalf("ordering wrong: %v", res.Estimates)
	}
	if res.TotalSamples >= 4*30_000 {
		t.Fatal("sampled the whole dataset")
	}
	if len(res.Names) != 4 || res.Names[0] != "A" {
		t.Fatalf("names %v", res.Names)
	}
	var sum int64
	for _, c := range res.SampleCounts {
		sum += c
	}
	if sum != res.TotalSamples {
		t.Fatal("sample accounting inconsistent")
	}
}

func TestOrderBeatsRoundRobinAndRefine(t *testing.T) {
	means := []float64{20, 49, 51, 90}
	groups := mkGroups(means, 100_000, 3)
	opts := rapidviz.Query{Bound: 100, Seed: 4}
	fo, err := run(groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Algorithm = rapidviz.AlgoRoundRobin
	rr, err := run(groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Algorithm = rapidviz.AlgoIRefine
	re, err := run(groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fo.TotalSamples >= rr.TotalSamples {
		t.Fatalf("Order (%d) not cheaper than RoundRobin (%d)", fo.TotalSamples, rr.TotalSamples)
	}
	if fo.TotalSamples >= re.TotalSamples {
		t.Fatalf("Order (%d) not cheaper than Refine (%d)", fo.TotalSamples, re.TotalSamples)
	}
}

func TestExact(t *testing.T) {
	groups := []rapidviz.Group{
		rapidviz.GroupFromValues("x", []float64{1, 2, 3}),
		rapidviz.GroupFromValues("y", []float64{10, 20}),
	}
	res, err := run(groups, rapidviz.Query{Algorithm: rapidviz.AlgoScan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimates[0] != 2 || res.Estimates[1] != 15 {
		t.Fatalf("exact %v", res.Estimates)
	}
}

func TestBoundInference(t *testing.T) {
	groups := []rapidviz.Group{
		rapidviz.GroupFromValues("x", []float64{1, 2, 50}),
		rapidviz.GroupFromValues("y", []float64{10, 20, 30}),
	}
	// No bound given: inferred from the data; the run must succeed.
	if _, err := run(groups, rapidviz.Query{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	// Negative values cannot be shifted automatically.
	neg := []rapidviz.Group{rapidviz.GroupFromValues("n", []float64{-1, 2})}
	if _, err := run(neg, rapidviz.Query{}); err == nil {
		t.Fatal("negative values accepted without bound")
	}
}

func TestFuncGroups(t *testing.T) {
	r := xrand.New(6)
	mk := func(name string, mean float64) rapidviz.Group {
		d := xrand.TruncNormal{Mu: mean, Sigma: 5, Lo: 0, Hi: 100}
		return rapidviz.GroupFromFunc(name, 1_000_000, func() float64 { return d.Sample(r) })
	}
	groups := []rapidviz.Group{mk("low", 30), mk("high", 70)}
	// Func groups require an explicit bound.
	if _, err := run(groups, rapidviz.Query{}); err == nil {
		t.Fatal("missing bound accepted for func group")
	}
	res, err := run(groups, rapidviz.Query{Bound: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Estimates[0] < res.Estimates[1]) {
		t.Fatal("func group ordering wrong")
	}
}

func TestResolutionOption(t *testing.T) {
	means := []float64{50, 50.8}
	groups := mkGroups(means, 300_000, 8)
	strict := rapidviz.Query{Bound: 100, Seed: 9}
	relaxed := rapidviz.Query{Bound: 100, Seed: 9, Resolution: 4}
	rs, err := run(groups, strict)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := run(groups, relaxed)
	if err != nil {
		t.Fatal(err)
	}
	if rr.TotalSamples >= rs.TotalSamples {
		t.Fatalf("resolution did not help: %d vs %d", rr.TotalSamples, rs.TotalSamples)
	}
}

func TestTrendAPI(t *testing.T) {
	means := []float64{20, 40, 60, 40.5}
	groups := mkGroups(means, 200_000, 10)
	res, err := run(groups, rapidviz.Query{Guarantee: rapidviz.GuaranteeTrend, Bound: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(means); i++ {
		if means[i] < means[i+1] && !(res.Estimates[i] < res.Estimates[i+1]) {
			t.Fatalf("adjacent pair %d wrong", i)
		}
		if means[i] > means[i+1] && !(res.Estimates[i] > res.Estimates[i+1]) {
			t.Fatalf("adjacent pair %d wrong", i)
		}
	}
	if out := res.RenderTrend(); !strings.Contains(out, "…") {
		t.Fatalf("trend render: %q", out)
	}
}

func TestTopTAPI(t *testing.T) {
	means := []float64{10, 80, 30, 90, 50}
	groups := mkGroups(means, 50_000, 12)
	res, err := run(groups, rapidviz.Query{Guarantee: rapidviz.GuaranteeTopT, T: 2, Bound: 100, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != 2 || res.Top[0] != "D" || res.Top[1] != "B" {
		t.Fatalf("top-2 %v", res.Top)
	}
}

func TestOrderWithValuesAPI(t *testing.T) {
	means := []float64{25, 55, 85}
	groups := mkGroups(means, 200_000, 14)
	res, err := run(groups, rapidviz.Query{Guarantee: rapidviz.GuaranteeValues, MaxError: 3, Bound: 100, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	for i, est := range res.Estimates {
		truth := 0.0
		switch i {
		case 0:
			truth = groups[0].TrueMean()
		case 1:
			truth = groups[1].TrueMean()
		case 2:
			truth = groups[2].TrueMean()
		}
		if math.Abs(est-truth) > 3 {
			t.Fatalf("value bound violated: |%v - %v| > 3", est, truth)
		}
	}
}

func TestOrderAllowingMistakesAPI(t *testing.T) {
	means := []float64{10, 50, 50.05, 90}
	groups := mkGroups(means, 400_000, 16)
	opts := rapidviz.Query{Bound: 100, Seed: 17, MaxRounds: 1 << 20}
	strict, err := run(groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Guarantee, opts.CorrectPairs = rapidviz.GuaranteeMistakes, 0.8
	fast, err := run(groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fast.TotalSamples >= strict.TotalSamples {
		t.Fatalf("mistakes mode (%d) not cheaper than strict (%d)", fast.TotalSamples, strict.TotalSamples)
	}
}

func TestSumAPI(t *testing.T) {
	// Bigger group, smaller values: sums order opposite to means.
	r := xrand.New(18)
	big := make([]float64, 50_000)
	small := make([]float64, 5_000)
	for i := range big {
		big[i] = 10 + r.Float64()
	}
	for i := range small {
		small[i] = 90 + r.Float64()
	}
	groups := []rapidviz.Group{
		rapidviz.GroupFromValues("big", big),
		rapidviz.GroupFromValues("small", small),
	}
	res, err := run(groups, rapidviz.Query{Aggregate: rapidviz.AggSum, Bound: 100, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Estimates[0] > res.Estimates[1]) {
		t.Fatalf("sum ordering wrong: %v", res.Estimates)
	}
}

func TestOnPartialStreams(t *testing.T) {
	means := []float64{10, 50, 52, 90}
	groups := mkGroups(means, 200_000, 20)
	var got []string
	q := rapidviz.Query{Bound: 100, Seed: 21, BatchSize: 1}
	for ev := range rapidviz.DefaultEngine().Stream(context.Background(), q, groups) {
		if ev.Err != nil {
			t.Fatal(ev.Err)
		}
		if ev.Partial != nil {
			got = append(got, ev.Partial.Group)
		}
	}
	if len(got) != 4 {
		t.Fatalf("partials %v", got)
	}
}

func TestRender(t *testing.T) {
	groups := mkGroups([]float64{30, 70}, 20_000, 22)
	res, err := run(groups, rapidviz.Query{Bound: 100, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") || !strings.Contains(out, "█") {
		t.Fatalf("render: %q", out)
	}
	bars := res.Bars()
	if len(bars) != 2 || bars[0].Err != res.Epsilon {
		t.Fatalf("bars %v", bars)
	}
}

func TestNoGroups(t *testing.T) {
	if _, err := run(nil, rapidviz.Query{}); err == nil {
		t.Fatal("empty group list accepted")
	}
}

func TestDeterministicDefaultSeed(t *testing.T) {
	a, err := run(mkGroups([]float64{30, 70}, 10_000, 24), rapidviz.Query{Bound: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(mkGroups([]float64{30, 70}, 10_000, 24), rapidviz.Query{Bound: 100})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSamples != b.TotalSamples {
		t.Fatal("default runs not deterministic")
	}
}
