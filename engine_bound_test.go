package rapidviz_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	rapidviz "repro"
)

// lowVarGroups builds tightly concentrated groups (±2 around means 8
// apart, domain [0,100]) — the workload where variance-adaptive bounds
// shine.
func lowVarGroups(rows int, seed uint64) []rapidviz.Group {
	var groups []rapidviz.Group
	state := seed
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	for g := 0; g < 6; g++ {
		mean := 20 + 8*float64(g)
		values := make([]float64, rows)
		for i := range values {
			values[i] = mean + (next()-0.5)*4
		}
		groups = append(groups, rapidviz.GroupFromValues(fmt.Sprintf("lv%d", g), values))
	}
	return groups
}

// TestQueryConfidenceBound: a Bernstein query terminates with at least 2x
// fewer samples than the default schedule on a low-variance workload, with
// the same correct ordering.
func TestQueryConfidenceBound(t *testing.T) {
	ctx := context.Background()
	eng := rapidviz.DefaultEngine()
	base := rapidviz.Query{Bound: 100, Seed: 61, BatchSize: 16}
	hoeff, err := eng.Run(ctx, base, lowVarGroups(50_000, 9))
	if err != nil {
		t.Fatal(err)
	}
	q := base
	q.ConfidenceBound = rapidviz.BoundBernstein
	bern, err := eng.Run(ctx, q, lowVarGroups(50_000, 9))
	if err != nil {
		t.Fatal(err)
	}
	if bern.TotalSamples*2 > hoeff.TotalSamples {
		t.Fatalf("bernstein used %d samples vs hoeffding %d; want at least 2x fewer",
			bern.TotalSamples, hoeff.TotalSamples)
	}
	for i := 1; i < len(bern.Estimates); i++ {
		if bern.Estimates[i] <= bern.Estimates[i-1] {
			t.Fatalf("bernstein estimates misordered: %v", bern.Estimates)
		}
	}
}

// TestQueryConfidenceBoundValidation: unknown bound names — and the
// unsupported SubGroups combination — are rejected at the public boundary
// instead of silently running the default schedule.
func TestQueryConfidenceBoundValidation(t *testing.T) {
	_, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Bound: 100, ConfidenceBound: "chernoff"}, lowVarGroups(100, 1))
	if err == nil {
		t.Fatal("unknown ConfidenceBound accepted")
	}
	cells := rapidviz.GroupFromCells("c", [][]float64{{1, 2}, {3, 4}})
	_, err = rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Bound: 100, SubGroups: 2, ConfidenceBound: rapidviz.BoundBernstein},
		[]rapidviz.Group{cells})
	if err == nil {
		t.Fatal("SubGroups + ConfidenceBound accepted despite being unsupported")
	}
}

// TestStreamPartialHalfWidths: streamed partials carry each group's frozen
// half-width — per group (not all equal) under the Bernstein bound, and
// tight enough to cover the truth on this seeded run.
func TestStreamPartialHalfWidths(t *testing.T) {
	groups := lowVarGroups(50_000, 11)
	q := rapidviz.Query{Bound: 100, Seed: 63, BatchSize: 16, ConfidenceBound: rapidviz.BoundBernstein}
	var partials []rapidviz.Partial
	var res *rapidviz.Result
	for ev := range rapidviz.DefaultEngine().Stream(context.Background(), q, groups) {
		switch {
		case ev.Partial != nil:
			partials = append(partials, *ev.Partial)
		case ev.Err != nil:
			t.Fatal(ev.Err)
		default:
			res = ev.Result
		}
	}
	if res == nil || len(partials) != len(groups) {
		t.Fatalf("got %d partials for %d groups", len(partials), len(groups))
	}
	distinct := false
	for _, p := range partials {
		if p.HalfWidth <= 0 {
			t.Fatalf("partial %q carries no half-width: %+v", p.Group, p)
		}
		truth := 20 + 8*float64(p.Index)
		if math.Abs(p.Estimate-truth) > p.HalfWidth+0.5 { // +0.5: group means jitter around the nominal center
			t.Fatalf("partial %q estimate %v outside ±%v of %v", p.Group, p.Estimate, p.HalfWidth, truth)
		}
		if p.HalfWidth != partials[0].HalfWidth {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("all partial half-widths equal; expected per-group radii")
	}
}

// TestQueryOnRound: the public per-round hook reports per-group widths
// that tighten over time, for the default schedule (equal widths) and the
// Bernstein bound (per-group) alike.
func TestQueryOnRound(t *testing.T) {
	for _, bound := range []string{rapidviz.BoundHoeffding, rapidviz.BoundBernstein} {
		var rounds int
		var lastEps float64
		q := rapidviz.Query{Bound: 100, Seed: 64, BatchSize: 16, ConfidenceBound: bound}
		q.OnRound = func(tr rapidviz.RoundTrace) {
			rounds++
			if len(tr.GroupEpsilons) != 6 || len(tr.Estimates) != 6 || len(tr.Active) != 6 {
				t.Fatalf("%s: malformed trace %+v", bound, tr)
			}
			lastEps = tr.Epsilon
		}
		if _, err := rapidviz.DefaultEngine().Run(context.Background(), q, lowVarGroups(50_000, 12)); err != nil {
			t.Fatal(err)
		}
		if rounds == 0 {
			t.Fatalf("%s: OnRound never fired", bound)
		}
		if lastEps <= 0 || lastEps >= 100 {
			t.Fatalf("%s: final eps %v not in (0, 100)", bound, lastEps)
		}
	}
}

// TestQueryOnRoundNoIndex: the hook also fires for AlgoNoIndex, once a
// round like every driver run, with per-group widths.
func TestQueryOnRoundNoIndex(t *testing.T) {
	var rounds int
	q := rapidviz.Query{
		Bound: 100, Seed: 65, Algorithm: rapidviz.AlgoNoIndex,
		ConfidenceBound: rapidviz.BoundBernstein,
		OnRound: func(tr rapidviz.RoundTrace) {
			rounds++
			if len(tr.GroupEpsilons) != 6 {
				t.Fatalf("malformed trace %+v", tr)
			}
		},
	}
	if _, err := rapidviz.DefaultEngine().Run(context.Background(), q, lowVarGroups(50_000, 13)); err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Fatal("OnRound never fired for AlgoNoIndex")
	}
}
