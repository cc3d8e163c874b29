// Dashboard exercises the paper's §6 extensions the way an analyst's
// dashboard would, all through one reusable Engine: a top-5 leaderboard
// over many groups (Problem 4), a trend line whose guarantee covers
// adjacent points only (Problem 3), a value-accurate chart (Problem 6),
// a fast mode that accepts mistakes on a small fraction of comparisons
// (Problem 5), and finally the serving shape a real dashboard has: many
// panels refreshing concurrently against one shared ingested table, all
// sampling its one group set. Every panel is one Query against
// the same engine — no per-operator entry points.
//
//	go run ./examples/dashboard
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"strings"
	"sync"

	"repro"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{Bound: 100})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// --- Top-5 of 40 product lines by average basket value -------------
	var products []rapidviz.Group
	for i := 0; i < 40; i++ {
		mean := 20 + 60*rng.Float64()
		products = append(products, synthGroup(rng, fmt.Sprintf("sku-%02d", i), mean, 12, 50_000))
	}
	top, err := eng.Run(ctx, rapidviz.Query{Guarantee: rapidviz.GuaranteeTopT, T: 5, Seed: 5}, products)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-5 SKUs (of %d, sampled %d values): %s\n",
		len(products), top.TotalSamples, strings.Join(top.Top, " > "))

	// --- Trend line: monthly averages, adjacent ordering only ----------
	var months []rapidviz.Group
	for m := 0; m < 12; m++ {
		mean := 50 + 25*math.Sin(float64(m)/12*2*math.Pi)
		months = append(months, synthGroup(rng, fmt.Sprintf("m%02d", m+1), mean, 10, 50_000))
	}
	trend, err := eng.Run(ctx, rapidviz.Query{Guarantee: rapidviz.GuaranteeTrend, Seed: 6}, months)
	if err != nil {
		log.Fatal(err)
	}
	full, err := eng.Run(ctx, rapidviz.Query{Seed: 6}, months)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntrend (adjacent-only guarantee): %d samples vs %d for the full ordering\n",
		trend.TotalSamples, full.TotalSamples)
	fmt.Print(trend.RenderTrend())

	// --- Value-accurate bars: ordering + |estimate - truth| <= 2 -------
	regions := []rapidviz.Group{
		synthGroup(rng, "emea", 42, 15, 80_000),
		synthGroup(rng, "apac", 55, 15, 80_000),
		synthGroup(rng, "amer", 49, 15, 80_000),
	}
	vals, err := eng.Run(ctx, rapidviz.Query{Guarantee: rapidviz.GuaranteeValues, MaxError: 2.0, Seed: 7}, regions)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvalue-accurate chart (±2.0 guarantee, ε=%.2f):\n", vals.Epsilon)
	fmt.Print(vals.Render())

	// --- Fast mode: 90% of pairwise comparisons guaranteed -------------
	var channels []rapidviz.Group
	for i := 0; i < 12; i++ {
		mean := 30 + 40*rng.Float64()
		channels = append(channels, synthGroup(rng, fmt.Sprintf("ch-%02d", i), mean, 18, 50_000))
	}
	strict, err := eng.Run(ctx, rapidviz.Query{Seed: 8}, channels)
	if err != nil {
		log.Fatal(err)
	}
	fast, err := eng.Run(ctx, rapidviz.Query{Guarantee: rapidviz.GuaranteeMistakes, CorrectPairs: 0.9, Seed: 8}, channels)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nallowing mistakes on 10%% of pairs: %d samples vs %d strict (%.1fx fewer)\n",
		fast.TotalSamples, strict.TotalSamples,
		float64(strict.TotalSamples)/float64(fast.TotalSamples))

	// --- Variance-adaptive bounds with live per-group intervals --------
	// Latency percentiles per service: tightly concentrated values, the
	// shape where the empirical-Bernstein bound needs a fraction of the
	// Hoeffding schedule's samples. Query.OnRound observes the run round
	// by round; its RoundTrace carries each group's own confidence
	// half-width (settled groups report the width they froze at), which a
	// live dashboard renders as shrinking error bars.
	var services []rapidviz.Group
	for i, mean := range []float64{18, 24, 31, 39, 48, 58} {
		services = append(services, synthGroup(rng, fmt.Sprintf("svc-%d", i), mean, 1.5, 60_000))
	}
	// One dataset for both runs, so the saving compares like with like
	// (consecutive runs over one group slice are fine: each run resets
	// the without-replacement draw state).
	classic, err := eng.Run(ctx, rapidviz.Query{Seed: 9, BatchSize: 16}, services)
	if err != nil {
		log.Fatal(err)
	}
	var lastWidths []float64
	var traced int
	adaptive := rapidviz.Query{
		Seed: 9, BatchSize: 16,
		ConfidenceBound: rapidviz.BoundBernstein,
		OnRound: func(tr rapidviz.RoundTrace) {
			traced++
			// Slices are reused between rounds: copy what we keep.
			lastWidths = append(lastWidths[:0], tr.GroupEpsilons...)
		},
	}
	adapt, err := eng.Run(ctx, adaptive, services)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvariance-adaptive bound on low-spread latencies: %d samples vs %d (%.1fx fewer, %d traced rounds)\n",
		adapt.TotalSamples, classic.TotalSamples,
		float64(classic.TotalSamples)/float64(adapt.TotalSamples), traced)
	for i, name := range adapt.Names {
		fmt.Printf("  %-8s %6.2f ±%.2f\n", name, adapt.Estimates[i], lastWidths[i])
	}

	// --- Concurrent panels over one shared table -----------------------
	// Ingest once, serve many: every panel samples the table's one group
	// set — the groups are immutable and each run keeps its own
	// without-replacement draw state — so one Engine can refresh all panels
	// in parallel. Fixed seeds keep each panel's answer reproducible no
	// matter how the queries interleave.
	var rows []rapidviz.Row
	for i := 0; i < 16; i++ {
		mean := 25 + 50*rng.Float64()
		name := fmt.Sprintf("region-%02d", i)
		for j := 0; j < 30_000; j++ {
			v := mean + rng.NormFloat64()*12
			rows = append(rows, rapidviz.Row{Group: name, Value: math.Min(100, math.Max(0, v))})
		}
	}
	table, err := rapidviz.NewTableUniverse(rows)
	if err != nil {
		log.Fatal(err)
	}
	panels := []struct {
		name string
		q    rapidviz.Query
	}{
		{"leaderboard", rapidviz.Query{Guarantee: rapidviz.GuaranteeTopT, T: 3, Seed: 21}},
		{"full order", rapidviz.Query{Seed: 22, BatchSize: 64}},
		{"fast refresh", rapidviz.Query{Guarantee: rapidviz.GuaranteeMistakes, CorrectPairs: 0.9, Seed: 23}},
		{"trend", rapidviz.Query{Guarantee: rapidviz.GuaranteeTrend, Seed: 24}},
	}
	results := make([]*rapidviz.Result, len(panels))
	errs := make([]error, len(panels))
	var wg sync.WaitGroup
	for i, p := range panels {
		wg.Add(1)
		go func(i int, q rapidviz.Query) {
			defer wg.Done()
			q.Bound = table.MaxValue()
			results[i], errs[i] = eng.Run(ctx, q, table.Groups())
		}(i, p.q)
	}
	wg.Wait()
	fmt.Printf("\n%d concurrent panels over one %d-row table:\n", len(panels), table.NumRows())
	for i, p := range panels {
		if errs[i] != nil {
			log.Fatal(errs[i])
		}
		fmt.Printf("  %-12s %6d samples, %4d rounds\n", p.name, results[i].TotalSamples, results[i].Rounds)
	}
}

// synthGroup builds a materialized group of n clipped-normal values.
func synthGroup(rng *rand.Rand, name string, mean, std float64, n int) rapidviz.Group {
	values := make([]float64, n)
	for i := range values {
		v := mean + rng.NormFloat64()*std
		if v < 0 {
			v = 0
		}
		if v > 100 {
			v = 100
		}
		values[i] = v
	}
	return rapidviz.GroupFromValues(name, values)
}
