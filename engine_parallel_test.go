package rapidviz_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/xrand"
)

// TestQueryWorkersInvariance pins the public contract of the parallel
// driver: Query.Workers is purely a throughput knob — estimates, sample
// counts, rounds, and totals are identical for every value, at scalar and
// block batch sizes.
func TestQueryWorkersInvariance(t *testing.T) {
	means := []float64{15, 35, 55, 80}
	queries := map[string]rapidviz.Query{
		"ifocus":     {Bound: 100, Seed: 71},
		"roundrobin": {Algorithm: rapidviz.AlgoRoundRobin, Bound: 100, Seed: 71},
		"trend":      {Guarantee: rapidviz.GuaranteeTrend, Bound: 100, Seed: 71},
		"sum":        {Aggregate: rapidviz.AggSum, Bound: 100, Seed: 71},
		"mistakes":   {Guarantee: rapidviz.GuaranteeMistakes, CorrectPairs: 0.9, Bound: 100, Seed: 71},
	}
	render := func(r *rapidviz.Result) string {
		return fmt.Sprintf("%v|%v|%d|%d", r.Estimates, r.SampleCounts, r.TotalSamples, r.Rounds)
	}
	for name, q := range queries {
		for _, batch := range []int{1, 64} {
			t.Run(fmt.Sprintf("%s/batch=%d", name, batch), func(t *testing.T) {
				q := q
				q.BatchSize = batch
				q.Workers = 1
				base, err := rapidviz.DefaultEngine().Run(context.Background(), q, mkGroups(means, 20_000, 70))
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{4, 16} {
					q.Workers = workers
					res, err := rapidviz.DefaultEngine().Run(context.Background(), q, mkGroups(means, 20_000, 70))
					if err != nil {
						t.Fatal(err)
					}
					if render(res) != render(base) {
						t.Fatalf("Workers=%d diverged from Workers=1:\n got: %s\nwant: %s", workers, render(res), render(base))
					}
				}
			})
		}
	}
}

// TestQueryWorkersValidation: negative worker counts are rejected at the
// public boundary.
func TestQueryWorkersValidation(t *testing.T) {
	groups := mkGroups([]float64{10, 90}, 1000, 72)
	if _, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Bound: 100, Workers: -1}, groups); err == nil {
		t.Fatal("negative Workers accepted")
	}
}

// TestConcurrentQueriesSharedTable is the serving-shape regression: one
// engine answers many concurrent queries over one ingested table, all
// sampling the same group set, the table's own Groups. Same-seed queries
// must agree exactly no matter how the goroutines interleave, and a later
// sequential run must come through untouched.
func TestConcurrentQueriesSharedTable(t *testing.T) {
	var sb strings.Builder
	r := xrand.New(73)
	for i := 0; i < 30_000; i++ {
		fmt.Fprintf(&sb, "g%d,%v\n", i%5, float64(10*(i%5))+r.Float64()*8)
	}
	table, err := rapidviz.TableFromCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := rapidviz.Query{Bound: table.MaxValue(), Seed: 74, BatchSize: 16}

	const parallel = 8
	results := make([]*rapidviz.Result, parallel)
	errs := make([]error, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.Run(context.Background(), q, table.Groups())
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	first, firstTotal := results[0].Estimates, results[0].TotalSamples
	for i := 0; i < parallel; i++ {
		if fmt.Sprint(results[i].Estimates) != fmt.Sprint(first) || results[i].TotalSamples != firstTotal {
			t.Fatalf("concurrent same-seed queries disagree: %v vs %v (%d samples)", results[i], first, firstTotal)
		}
	}
	// The shared table must still serve a fresh (sequential) run correctly.
	after, err := eng.Run(context.Background(), q, table.Groups())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after.Estimates) != fmt.Sprint(first) {
		t.Fatalf("table's own groups disturbed by concurrent runs: %v vs %v", after.Estimates, first)
	}
}
