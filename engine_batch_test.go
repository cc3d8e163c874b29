package rapidviz_test

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/xrand"
)

// equalMeanGroups build func-backed groups with identical distributions:
// with-replacement runs over them never terminate on their own, which the
// cancellation and round-cap tests rely on.
func equalMeanGroups(n int) []rapidviz.Group {
	groups := make([]rapidviz.Group, n)
	for i := range groups {
		name := string(rune('a' + i))
		// A generator per group: the round driver draws distinct groups
		// from different goroutines.
		r := xrand.New(40 + uint64(i))
		groups[i] = rapidviz.GroupFromFunc(name, 1_000_000, func() float64 { return r.Float64() * 100 })
	}
	return groups
}

// TestRoundRobinCancellation: the ROUNDROBIN path must honor the context
// between rounds just like IFOCUS (previously only the IFOCUS path was
// covered).
func TestRoundRobinCancellation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := rapidviz.DefaultEngine().Run(ctx,
		rapidviz.Query{Algorithm: rapidviz.AlgoRoundRobin, Bound: 100}, equalMeanGroups(2))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; want prompt return", elapsed)
	}
}

// TestRoundRobinMaxRounds: the cap must terminate a never-separating
// ROUNDROBIN run and be reported via Capped.
func TestRoundRobinMaxRounds(t *testing.T) {
	// BatchSize pinned to 1: the assertion counts exactly one draw per
	// group per round, which the auto-batch default would inflate.
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Algorithm: rapidviz.AlgoRoundRobin, Bound: 100, MaxRounds: 100, BatchSize: 1},
		equalMeanGroups(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Capped {
		t.Fatal("capped run not reported")
	}
	if res.Rounds != 100 {
		t.Fatalf("run used %d rounds, want exactly the 100-round cap", res.Rounds)
	}
	if res.TotalSamples != 300 {
		t.Fatalf("total samples %d, want 300 (3 groups × 100 rounds)", res.TotalSamples)
	}
}

// TestNoIndexCancellation: the NOINDEX path polls the context at its check
// cadence.
func TestNoIndexCancellation(t *testing.T) {
	means := []float64{50, 50, 50, 50}
	groups := mkGroups(means, 5_000, 44)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := rapidviz.DefaultEngine().Run(ctx,
		rapidviz.Query{Algorithm: rapidviz.AlgoNoIndex, Bound: 100, WithReplacement: true}, groups)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; want prompt return", elapsed)
	}
}

// TestNoIndexMaxDraws: the draw cap terminates a contended NOINDEX run.
func TestNoIndexMaxDraws(t *testing.T) {
	means := []float64{50, 50, 50}
	groups := mkGroups(means, 5_000, 45)
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Algorithm: rapidviz.AlgoNoIndex, Bound: 100, MaxDraws: 500}, groups)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Capped {
		t.Fatal("capped run not reported")
	}
	if res.TotalSamples != 500 {
		t.Fatalf("total draws %d, want exactly the 500-draw cap", res.TotalSamples)
	}
}

// TestQueryBatchSizeDefaults: leaving BatchSize unset selects the
// deterministic auto-batch schedule on round algorithms, NOINDEX
// included — seed-for-seed reproducible and far fewer rounds than the
// scalar cadence — while IREFINE (which plans its own batches) keeps the
// unset ≡ 1 identity.
func TestQueryBatchSizeDefaults(t *testing.T) {
	means := []float64{15, 35, 55, 80}
	run := func(t *testing.T, q rapidviz.Query) *rapidviz.Result {
		t.Helper()
		res, err := rapidviz.DefaultEngine().Run(context.Background(), q, mkGroups(means, 20_000, 50))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := func(t *testing.T, a, b *rapidviz.Result, what string) {
		t.Helper()
		if a.TotalSamples != b.TotalSamples || a.Rounds != b.Rounds {
			t.Fatalf("%s diverged: %d/%d vs %d/%d samples/rounds",
				what, a.TotalSamples, a.Rounds, b.TotalSamples, b.Rounds)
		}
		for i := range a.Estimates {
			if a.Estimates[i] != b.Estimates[i] {
				t.Fatalf("%s estimate %d differs: %v vs %v", what, i, a.Estimates[i], b.Estimates[i])
			}
		}
	}

	autoQueries := map[string]rapidviz.Query{
		"ifocus":     {Bound: 100, Seed: 51},
		"roundrobin": {Algorithm: rapidviz.AlgoRoundRobin, Bound: 100, Seed: 51},
		"trend":      {Guarantee: rapidviz.GuaranteeTrend, Bound: 100, Seed: 51},
		"sum":        {Aggregate: rapidviz.AggSum, Bound: 100, Seed: 51},
		"noindex":    {Algorithm: rapidviz.AlgoNoIndex, Bound: 100, Seed: 51},
	}
	for name, q := range autoQueries {
		t.Run(name, func(t *testing.T) {
			base := run(t, q)
			again := run(t, q)
			same(t, base, again, "repeat auto run")
			q1 := q
			q1.BatchSize = 1
			scalar := run(t, q1)
			if base.Rounds >= scalar.Rounds {
				t.Fatalf("auto batch used %d rounds vs scalar %d; want fewer", base.Rounds, scalar.Rounds)
			}
			for i := 1; i < len(means); i++ {
				if base.Estimates[i] <= base.Estimates[i-1] {
					t.Fatalf("auto-batch estimates misordered: %v", base.Estimates)
				}
			}
		})
	}

	pinnedQueries := map[string]rapidviz.Query{
		"irefine": {Algorithm: rapidviz.AlgoIRefine, Bound: 100, Seed: 51},
	}
	for name, q := range pinnedQueries {
		t.Run(name, func(t *testing.T) {
			base := run(t, q)
			q1 := q
			q1.BatchSize = 1
			same(t, base, run(t, q1), "BatchSize=1")
		})
	}
}

// TestQueryBatchedRun: a batched query returns correctly ordered estimates
// in far fewer rounds.
func TestQueryBatchedRun(t *testing.T) {
	means := []float64{15, 35, 55, 80}
	scalar, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Bound: 100, Seed: 52, BatchSize: 1}, mkGroups(means, 20_000, 50))
	if err != nil {
		t.Fatal(err)
	}
	batched, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Bound: 100, Seed: 52, BatchSize: 64}, mkGroups(means, 20_000, 50))
	if err != nil {
		t.Fatal(err)
	}
	if batched.Rounds > scalar.Rounds/16 {
		t.Fatalf("batched run used %d rounds vs scalar %d; want a large reduction", batched.Rounds, scalar.Rounds)
	}
	for i := 1; i < len(means); i++ {
		if batched.Estimates[i] <= batched.Estimates[i-1] {
			t.Fatalf("batched estimates misordered: %v", batched.Estimates)
		}
	}
}

// TestQueryBatchValidation rejects invalid batching parameters at the
// public boundary.
func TestQueryBatchValidation(t *testing.T) {
	groups := mkGroups([]float64{10, 90}, 1000, 53)
	if _, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Bound: 100, BatchSize: -1}, groups); err == nil {
		t.Fatal("negative BatchSize accepted")
	}
	for _, growth := range []float64{0.3, math.NaN(), math.Inf(1)} {
		if _, err := rapidviz.DefaultEngine().Run(context.Background(),
			rapidviz.Query{Bound: 100, RoundGrowth: growth}, groups); err == nil {
			t.Fatalf("RoundGrowth %v accepted", growth)
		}
	}
}

// TestTableIngestionEndToEnd: CSV → Table → Engine.Run, batched.
func TestTableIngestionEndToEnd(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("store,price\n")
	r := xrand.New(60)
	for i := 0; i < 4000; i++ {
		for name, mean := range map[string]float64{"north": 70, "south": 30} {
			sb.WriteString(name)
			sb.WriteByte(',')
			v := mean + (r.Float64()-0.5)*10
			sb.WriteString(strconv.FormatFloat(v, 'f', 3, 64))
			sb.WriteByte('\n')
		}
	}
	table, err := rapidviz.TableFromCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if table.K() != 2 || table.NumRows() != 8000 {
		t.Fatalf("table k=%d rows=%d", table.K(), table.NumRows())
	}
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Seed: 61, BatchSize: 64}, table.Groups())
	if err != nil {
		t.Fatal(err)
	}
	if res.Names[0] != "north" && res.Names[0] != "south" {
		t.Fatalf("unexpected group names %v", res.Names)
	}
	north, south := res.Estimates[0], res.Estimates[1]
	if res.Names[0] == "south" {
		north, south = south, north
	}
	if north < south {
		t.Fatalf("ingested query misordered: north=%v south=%v", north, south)
	}
}

// TestNewTableUniverse: raw rows → Table → groups.
func TestNewTableUniverse(t *testing.T) {
	rows := []rapidviz.Row{{Group: "a", Value: 1}, {Group: "b", Value: 9}, {Group: "a", Value: 3}}
	table, err := rapidviz.NewTableUniverse(rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rapidviz.DefaultEngine().Run(context.Background(), rapidviz.Query{Seed: 62}, table.Groups())
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimates[0] != 2 || res.Estimates[1] != 9 {
		t.Fatalf("tiny table estimates %v, want exact [2 9]", res.Estimates)
	}
	if _, err := rapidviz.NewTableUniverse(nil); err == nil {
		t.Fatal("empty ingestion accepted")
	}
}
