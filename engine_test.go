package rapidviz_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/xrand"
)

// TestRunCancellation pins the context contract: a query over groups whose
// means are exactly equal never terminates on its own (with-replacement
// sampling), so only the deadline can end it — and Run must return
// promptly with the context's error.
func TestRunCancellation(t *testing.T) {
	groups := equalMeanGroups(2)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := rapidviz.DefaultEngine().Run(ctx, rapidviz.Query{Bound: 100}, groups)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; want prompt return", elapsed)
	}
}

// TestStream checks the streaming channel: one partial per group as it
// settles, then exactly one terminal event carrying the result.
func TestStream(t *testing.T) {
	means := []float64{10, 40, 70, 95}
	groups := mkGroups(means, 50_000, 41)
	var partials []rapidviz.Partial
	var final *rapidviz.Result
	terminals := 0
	for ev := range rapidviz.DefaultEngine().Stream(context.Background(), rapidviz.Query{Bound: 100, Seed: 42}, groups) {
		switch {
		case ev.Partial != nil:
			partials = append(partials, *ev.Partial)
		default:
			terminals++
			if ev.Err != nil {
				t.Fatal(ev.Err)
			}
			final = ev.Result
		}
	}
	if terminals != 1 || final == nil {
		t.Fatalf("want exactly one terminal result event, got %d", terminals)
	}
	if len(partials) != len(means) {
		t.Fatalf("want %d partials, got %d", len(means), len(partials))
	}
	for _, p := range partials {
		if p.Estimate != final.Estimates[p.Index] {
			t.Fatalf("partial %q (%v) disagrees with final estimate %v", p.Group, p.Estimate, final.Estimates[p.Index])
		}
	}
}

// TestStreamCancellation: a canceled stream must still terminate and close
// the channel.
func TestStreamCancellation(t *testing.T) {
	// One generator per group: the round driver draws distinct groups from
	// different goroutines.
	ra, rb := xrand.New(43), xrand.New(44)
	groups := []rapidviz.Group{
		rapidviz.GroupFromFunc("a", 1_000_000, func() float64 { return ra.Float64() * 100 }),
		rapidviz.GroupFromFunc("b", 1_000_000, func() float64 { return rb.Float64() * 100 }),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range rapidviz.DefaultEngine().Stream(ctx, rapidviz.Query{Bound: 100}, groups) {
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not terminate after cancellation")
	}
}

// TestQueryValidation pins the public-layer validation errors.
func TestQueryValidation(t *testing.T) {
	groups := mkGroups([]float64{30, 70}, 1000, 44)
	eng := rapidviz.DefaultEngine()
	ctx := context.Background()
	cases := []struct {
		name string
		q    rapidviz.Query
	}{
		{"delta too large", rapidviz.Query{Delta: 2, Bound: 100}},
		{"delta negative", rapidviz.Query{Delta: -0.1, Bound: 100}},
		{"bad correct pairs", rapidviz.Query{Guarantee: rapidviz.GuaranteeMistakes, CorrectPairs: 1.5, Bound: 100}},
		{"zero correct pairs", rapidviz.Query{Guarantee: rapidviz.GuaranteeMistakes, Bound: 100}},
		{"topt without T", rapidviz.Query{Guarantee: rapidviz.GuaranteeTopT, Bound: 100}},
		{"topt T too large", rapidviz.Query{Guarantee: rapidviz.GuaranteeTopT, T: 3, Bound: 100}},
		{"values without MaxError", rapidviz.Query{Guarantee: rapidviz.GuaranteeValues, Bound: 100}},
		{"negative resolution", rapidviz.Query{Resolution: -1, Bound: 100}},
		{"adjacency size mismatch", rapidviz.Query{Guarantee: rapidviz.GuaranteeAdjacency, Adjacency: [][]int{{1}}, Bound: 100}},
		{"cells without cell groups", rapidviz.Query{SubGroups: 2, Bound: 100}},
		{"pair agg without pair groups", rapidviz.Query{Aggregate: rapidviz.AggAvgPair, Bound: 100}},
		{"non-avg aggregate with trend", rapidviz.Query{Aggregate: rapidviz.AggSum, Guarantee: rapidviz.GuaranteeTrend, Bound: 100}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := eng.Run(ctx, tc.q, groups); err == nil {
				t.Fatalf("query %+v accepted", tc.q)
			}
		})
	}
	if _, err := eng.Run(ctx, rapidviz.Query{Bound: 100}, nil); err == nil {
		t.Fatal("empty group list accepted")
	}
}

// TestDeterministicSeedZero pins the Seed==0 sentinel fix: a Deterministic
// query with seed 0 is honored (reproducible, and distinct from the
// default-seeded stream) instead of being silently replaced.
func TestDeterministicSeedZero(t *testing.T) {
	means := []float64{30, 70}
	build := func() []rapidviz.Group { return mkGroups(means, 10_000, 45) }
	eng := rapidviz.DefaultEngine()
	ctx := context.Background()

	a, err := eng.Run(ctx, rapidviz.Query{Bound: 100, Deterministic: true}, build())
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Run(ctx, rapidviz.Query{Bound: 100, Deterministic: true}, build())
	if err != nil {
		t.Fatal(err)
	}
	def, err := eng.Run(ctx, rapidviz.Query{Bound: 100}, build())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Estimates {
		if a.Estimates[i] != b.Estimates[i] {
			t.Fatal("deterministic seed-0 runs disagree")
		}
	}
	same := a.TotalSamples == def.TotalSamples
	for i := range a.Estimates {
		if a.Estimates[i] != def.Estimates[i] {
			same = false
		}
	}
	if same {
		t.Fatal("explicit seed 0 produced the default-seed stream; sentinel still in effect")
	}
}

// TestCountQuery: with known sizes COUNT is exact and free.
func TestCountQuery(t *testing.T) {
	groups := []rapidviz.Group{
		rapidviz.GroupFromValues("x", make([]float64, 300)),
		rapidviz.GroupFromValues("y", make([]float64, 100)),
	}
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Aggregate: rapidviz.AggCount, Bound: 1}, groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimates[0] != 300 || res.Estimates[1] != 100 {
		t.Fatalf("counts %v", res.Estimates)
	}
	if res.TotalSamples != 0 {
		t.Fatalf("exact counts should take no samples, took %d", res.TotalSamples)
	}
}

// TestNormalizedCountQuery: fractional sizes estimated by membership
// sampling order like the true sizes.
func TestNormalizedCountQuery(t *testing.T) {
	groups := []rapidviz.Group{
		rapidviz.GroupFromValues("big", make([]float64, 60_000)),
		rapidviz.GroupFromValues("small", make([]float64, 20_000)),
	}
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Aggregate: rapidviz.AggNormalizedCount, Bound: 1, Seed: 46}, groups)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Estimates[0] > res.Estimates[1]) {
		t.Fatalf("fractional sizes out of order: %v", res.Estimates)
	}
	if math.Abs(res.Estimates[0]-0.75) > 0.15 || math.Abs(res.Estimates[1]-0.25) > 0.15 {
		t.Fatalf("fractional sizes off: %v", res.Estimates)
	}
}

// TestNormalizedSumQuery: normalized sums s_i·µ_i order correctly without
// consuming group sizes.
func TestNormalizedSumQuery(t *testing.T) {
	r := xrand.New(47)
	mk := func(name string, n int, mean float64) rapidviz.Group {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = mean + r.Float64()*4 - 2
		}
		return rapidviz.GroupFromValues(name, vals)
	}
	groups := []rapidviz.Group{mk("heavy", 10_000, 80), mk("light", 10_000, 20)}
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Aggregate: rapidviz.AggNormalizedSum, Bound: 100, Seed: 48}, groups)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Estimates[0] > res.Estimates[1]) {
		t.Fatalf("normalized sums out of order: %v", res.Estimates)
	}
}

// TestNoIndexQuery: the whole-table-sampling algorithm is selectable and
// orders well-separated groups correctly.
func TestNoIndexQuery(t *testing.T) {
	groups := mkGroups([]float64{20, 80}, 30_000, 49)
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Algorithm: rapidviz.AlgoNoIndex, Bound: 100, Seed: 50}, groups)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Estimates[0] < res.Estimates[1]) {
		t.Fatalf("no-index ordering wrong: %v", res.Estimates)
	}
	if res.TotalSamples == 0 {
		t.Fatal("no samples drawn")
	}
	if res.Rounds == 0 {
		t.Fatal("no-index run reported zero rounds")
	}
}

// TestAvgPairQuery: both aggregates of a pair query come back ordered.
func TestAvgPairQuery(t *testing.T) {
	r := xrand.New(51)
	mk := func(name string, muY, muZ float64) rapidviz.Group {
		ys := make([]float64, 20_000)
		zs := make([]float64, 20_000)
		for i := range ys {
			ys[i] = muY + r.Float64()*10 - 5
			zs[i] = muZ + r.Float64()*10 - 5
		}
		return rapidviz.GroupFromPairs(name, ys, zs)
	}
	groups := []rapidviz.Group{mk("a", 30, 70), mk("b", 70, 30)}
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Aggregate: rapidviz.AggAvgPair, Bound: 100, Seed: 52}, groups)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Estimates[0] < res.Estimates[1]) {
		t.Fatalf("Y ordering wrong: %v", res.Estimates)
	}
	if len(res.SecondEstimates) != 2 || !(res.SecondEstimates[0] > res.SecondEstimates[1]) {
		t.Fatalf("Z ordering wrong: %v", res.SecondEstimates)
	}
}

// TestCellQuery: the multiple-group-by setting estimates every (group,
// key) cell in the right relative order.
func TestCellQuery(t *testing.T) {
	r := xrand.New(53)
	cell := func(mu float64) []float64 {
		vals := make([]float64, 10_000)
		for i := range vals {
			vals[i] = mu + r.Float64()*6 - 3
		}
		return vals
	}
	truth := [][]float64{{10, 40}, {70, 95}}
	groups := []rapidviz.Group{
		rapidviz.GroupFromCells("x0", [][]float64{cell(truth[0][0]), cell(truth[0][1])}),
		rapidviz.GroupFromCells("x1", [][]float64{cell(truth[1][0]), cell(truth[1][1])}),
	}
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{SubGroups: 2, Bound: 100, Seed: 54, MaxDraws: 5_000_000}, groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CellEstimates) != 2 || len(res.CellEstimates[0]) != 2 {
		t.Fatalf("cell shape %v", res.CellEstimates)
	}
	for x := 0; x < 2; x++ {
		for z := 0; z < 2; z++ {
			if math.Abs(res.CellEstimates[x][z]-truth[x][z]) > 15 {
				t.Fatalf("cell (%d,%d) estimate %v far from %v", x, z, res.CellEstimates[x][z], truth[x][z])
			}
		}
	}
	bars := res.Bars()
	if len(bars) != 4 {
		t.Fatalf("want one bar per cell, got %d", len(bars))
	}
	if bars[0].Label != "x0/0" || bars[3].Label != "x1/1" {
		t.Fatalf("cell bar labels wrong: %q %q", bars[0].Label, bars[3].Label)
	}
	if bars[2].Value != res.CellEstimates[1][0] {
		t.Fatalf("cell bar values misaligned: %v", bars)
	}
}

// TestAdjacencyQuery: the chloropleth guarantee is reachable with a custom
// neighbour graph.
func TestAdjacencyQuery(t *testing.T) {
	means := []float64{20, 40, 60, 80}
	groups := mkGroups(means, 50_000, 55)
	adj := [][]int{{1}, {0, 2}, {1, 3}, {2}}
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Guarantee: rapidviz.GuaranteeAdjacency, Adjacency: adj, Bound: 100, Seed: 56}, groups)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(means); i++ {
		if !(res.Estimates[i] < res.Estimates[i+1]) {
			t.Fatalf("adjacent pair %d out of order: %v", i, res.Estimates)
		}
	}
}

// TestConcurrentRuns exercises the bounded worker pool: many concurrent
// queries on a small engine must all complete and agree (each goroutine
// samples its own freshly built groups).
func TestConcurrentRuns(t *testing.T) {
	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	means := []float64{25, 75}
	const parallel = 8
	totals := make([]int64, parallel)
	errs := make([]error, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := eng.Run(context.Background(), rapidviz.Query{Bound: 100, Seed: 57}, mkGroups(means, 10_000, 58))
			if err != nil {
				errs[i] = err
				return
			}
			totals[i] = res.TotalSamples
		}(i)
	}
	wg.Wait()
	for i := 0; i < parallel; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if totals[i] != totals[0] {
			t.Fatalf("concurrent runs disagree: %v", totals)
		}
	}
}
