package dataset_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// poolTestTable has two small groups whose means nearly tie — ordering
// them takes every row they hold — beside two large ones that separate
// within a few rounds.
func poolTestTable(t *testing.T) *dataset.Table {
	t.Helper()
	b := dataset.NewTableBuilderColumns("v", "x")
	r := xrand.New(0x9001)
	for gi, g := range []struct {
		name string
		rows int
		mean float64
	}{{"tie-a", 400, 50}, {"tie-b", 600, 50.02}, {"low", 20_000, 20}, {"high", 30_000, 80}} {
		for i := 0; i < g.rows; i++ {
			v := math.Min(100, math.Max(0, g.mean+10*r.NormFloat64()))
			if err := b.AddRow(g.name, v, float64((i+gi)%8)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestReleasedDrawStateIsIdentity: however a run ends — to its guarantee
// with the tied groups consumed whole, capped on the one-sample-per-round
// schedule, cancelled between rounds — core.Run hands every group's draw
// state back, and every permutation waiting in a pool is the identity,
// which is what lets the next view start from it without an O(rows) fill.
func TestReleasedDrawStateIsIdentity(t *testing.T) {
	tab := poolTestTable(t)
	view, err := tab.Filter(dataset.Predicate{Column: "x", Op: dataset.OpLT, Value: 6})
	if err != nil {
		t.Fatal(err)
	}
	ends := []struct {
		name string
		spec func(cancel context.CancelFunc) core.Spec
		want error
	}{
		{"completed", func(context.CancelFunc) core.Spec {
			return core.Spec{Opts: core.DefaultOptions()}
		}, nil},
		{"scalar-rounds", func(context.CancelFunc) core.Spec {
			opts := core.DefaultOptions()
			opts.BatchSize = 1
			opts.MaxRounds = 3000
			return core.Spec{Opts: opts}
		}, nil},
		{"cancelled", func(cancel context.CancelFunc) core.Spec {
			opts := core.DefaultOptions()
			opts.BatchSize = 64
			opts.OnRound = func(m int, _ float64, _ []float64, _ []bool, _ []float64, _ int64) {
				if m == 5 {
					cancel()
				}
			}
			return core.Spec{Opts: opts}
		}, context.Canceled},
	}
	inspected := 0
	for _, backing := range []struct {
		name  string
		fresh func() []dataset.Group
	}{{"table", tab.View}, {"filtered", view.View}} {
		for _, end := range ends {
			t.Run(backing.name+"/"+end.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				u := dataset.NewUniverse(100, backing.fresh()...)
				res, err := core.Run(ctx, u, xrand.New(11), end.spec(cancel))
				if !errors.Is(err, end.want) {
					t.Fatalf("run ended with %v, want %v", err, end.want)
				}
				if end.name == "completed" && res.SampleCounts[0] < u.Groups[0].Size() {
					t.Fatalf("group 0 drew %d of %d rows: the run was meant to consume it whole", res.SampleCounts[0], u.Groups[0].Size())
				}
				for gi, g := range u.Groups {
					perms, released, ok := dataset.DrainDrawPool(g)
					if !ok {
						t.Fatalf("group %d does not draw through the shared pipeline", gi)
					}
					if !released {
						t.Fatalf("group %d still holds draw state after the run", gi)
					}
					for _, perm := range perms {
						if len(perm) != int(g.Size()) {
							t.Fatalf("group %d: pooled permutation of %d entries for %d rows", gi, len(perm), g.Size())
						}
						for i, v := range perm {
							if int(v) != i {
								t.Fatalf("group %d: pooled permutation has perm[%d] = %d", gi, i, v)
							}
						}
						inspected++
					}
				}
			})
		}
	}
	if inspected == 0 {
		t.Fatal("no pooled permutation was inspected: the runs released nothing")
	}
}
