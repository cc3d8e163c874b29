package rapidviz_test

import (
	"context"
	"fmt"
	"sort"

	"repro"
	"repro/internal/xrand"
)

// ExampleEngine_Run demonstrates the Engine/Query API: one reusable engine
// executes declarative queries — here a top-2 selection — under a
// cancellable context.
func ExampleEngine_Run() {
	r := xrand.New(2015)
	group := func(name string, mean float64) rapidviz.Group {
		d := xrand.TruncNormal{Mu: mean, Sigma: 10, Lo: 0, Hi: 100}
		vals := make([]float64, 50_000)
		for i := range vals {
			vals[i] = d.Sample(r)
		}
		return rapidviz.GroupFromValues(name, vals)
	}
	groups := []rapidviz.Group{
		group("espresso", 62),
		group("filter", 38),
		group("decaf", 20),
	}
	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{})
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := eng.Run(context.Background(), rapidviz.Query{
		Guarantee: rapidviz.GuaranteeTopT,
		T:         2,
		Bound:     100,
		Seed:      7,
	}, groups)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, name := range res.Top {
		fmt.Println(name)
	}
	// Output:
	// espresso
	// filter
}

// ExampleEngine_Run_order demonstrates the core workflow: build groups,
// run the ordering-guaranteed estimator, read the bars back in ranked
// order.
func ExampleEngine_Run_order() {
	r := xrand.New(2015)
	group := func(name string, mean float64) rapidviz.Group {
		d := xrand.TruncNormal{Mu: mean, Sigma: 10, Lo: 0, Hi: 100}
		vals := make([]float64, 50_000)
		for i := range vals {
			vals[i] = d.Sample(r)
		}
		return rapidviz.GroupFromValues(name, vals)
	}
	groups := []rapidviz.Group{
		group("espresso", 62),
		group("filter", 38),
		group("decaf", 20),
	}
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Bound: 100, Seed: 7, BatchSize: 1}, groups)
	if err != nil {
		fmt.Println(err)
		return
	}
	// Rank the bars by estimate.
	type bar struct {
		name string
		v    float64
	}
	bars := make([]bar, len(res.Names))
	for i := range bars {
		bars[i] = bar{res.Names[i], res.Estimates[i]}
	}
	sort.Slice(bars, func(i, j int) bool { return bars[i].v > bars[j].v })
	for _, b := range bars {
		fmt.Println(b.name)
	}
	// Output:
	// espresso
	// filter
	// decaf
}

// ExampleEngine_Run_topT finds the two best-rated products out of many
// without resolving the order of the also-rans.
func ExampleEngine_Run_topT() {
	r := xrand.New(99)
	var groups []rapidviz.Group
	means := []float64{41, 87, 55, 93, 30, 62, 48, 71}
	for i, mu := range means {
		d := xrand.TruncNormal{Mu: mu, Sigma: 8, Lo: 0, Hi: 100}
		vals := make([]float64, 30_000)
		for j := range vals {
			vals[j] = d.Sample(r)
		}
		groups = append(groups, rapidviz.GroupFromValues(fmt.Sprintf("p%d", i), vals))
	}
	res, err := rapidviz.DefaultEngine().Run(context.Background(), rapidviz.Query{
		Guarantee: rapidviz.GuaranteeTopT,
		T:         2,
		Bound:     100,
		Seed:      5,
		BatchSize: 1,
	}, groups)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.Top[0], res.Top[1])
	// Output:
	// p3 p1
}
