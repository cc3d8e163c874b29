// Package rapidviz generates approximate visualizations with ordering
// guarantees, implementing the sampling algorithms of "Rapid Sampling for
// Visualizations with Ordering Guarantees" (Kim, Blais, Parameswaran,
// Indyk, Madden, Rubinfeld — VLDB 2015).
//
// Given k groups of bounded numeric values (the result groups of a
// SELECT X, AVG(Y) ... GROUP BY X query), the engine returns per-group
// estimates whose *ordering* matches the true aggregates with probability
// at least 1−δ — while sampling far fewer values than any scheme that
// first nails down each aggregate. The flagship algorithm, IFOCUS,
// concentrates samples on the groups whose confidence intervals still
// overlap and stops sampling a group the moment its interval separates;
// its sample complexity is optimal up to log-log factors.
//
// The API is a reusable Engine executing declarative Queries:
//
//	groups := []rapidviz.Group{
//		rapidviz.GroupFromValues("AA", delaysAA),
//		rapidviz.GroupFromValues("JB", delaysJB),
//	}
//	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{})
//	// handle err ...
//	res, err := eng.Run(ctx, rapidviz.Query{Bound: 24 * 60}, groups)
//	// handle err ...
//	fmt.Print(res.Render())
//
// The zero Query estimates per-group averages under the full ordering
// guarantee with IFOCUS; its fields select the aggregate (AggAvg, AggSum,
// AggCount, and their normalized variants, or AggAvgPair for two
// aggregates at once), the guarantee (GuaranteeOrder, GuaranteeTrend,
// GuaranteeTopT, GuaranteeValues, GuaranteeMistakes, GuaranteeAdjacency —
// relax any of them further with Resolution), and the algorithm
// (AlgoAuto/AlgoIFocus, the AlgoIRefine and AlgoRoundRobin baselines,
// the exact AlgoScan, or AlgoNoIndex when the group-by attribute has no
// index). SubGroups queries estimate the cells of GROUP BY X, Z with an
// index on X only. Queries over table-backed groups can carry a Where
// filter — typed comparisons on the table's columns plus group-name
// inclusion — answered through per-group selection vectors with the same
// ordering guarantee over the filtered rows. Engine.Run honors context
// cancellation and deadlines
// between sampling rounds; Engine.Stream delivers each group's estimate
// over a channel the moment it settles. Engines are safe for concurrent
// use and bound their own parallelism, so one engine can serve heavy
// concurrent query traffic.
package rapidviz

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/viz"
	"repro/internal/xrand"
)

// Group is a named collection of bounded numeric values that supports
// uniform random sampling — one bar of the eventual chart.
type Group = dataset.Group

// GroupFromValues returns a fully materialized group. The slice is
// retained; do not mutate it afterwards. Materialized groups support exact
// sampling without replacement (the library default).
func GroupFromValues(name string, values []float64) Group {
	return dataset.NewSliceGroup(name, values)
}

// GroupFromFunc returns a group backed by a sampling function: each call
// must return one value drawn uniformly at random (with replacement) from
// the group's population of nominal size n. Use this to plug in an
// external sampling engine (a database index, a service). Runs over
// func-backed groups force sampling with replacement and require an
// explicit bound.
func GroupFromFunc(name string, n int64, sample func() float64) Group {
	return &funcGroup{name: name, n: n, sample: sample}
}

type funcGroup struct {
	name   string
	n      int64
	sample func() float64
}

func (g *funcGroup) Name() string            { return g.name }
func (g *funcGroup) Size() int64             { return g.n }
func (g *funcGroup) Draw(*xrand.RNG) float64 { return g.sample() }
func (g *funcGroup) TrueMean() float64       { return math.NaN() }

// Result reports a run: per-group estimates plus sampling cost.
//
// Result is a wire type: the json tags fix stable snake_case field names
// for network consumers (rapidvizd's HTTP/WebSocket protocol), with the
// query-specific extensions (Top, SecondEstimates, cells) omitted when
// empty so the common payload stays small.
type Result struct {
	// Names and Estimates are index-aligned; Estimates[i] is ν_i. For
	// SubGroups queries Estimates is the row-major flattening of
	// CellEstimates.
	Names     []string  `json:"names"`
	Estimates []float64 `json:"estimates"`
	// SampleCounts are the per-group sample counts m_i; TotalSamples is
	// their sum (the paper's sample complexity C).
	SampleCounts []int64 `json:"sample_counts"`
	TotalSamples int64   `json:"total_samples"`
	// Epsilon is the final confidence half-width: each estimate is within
	// ±Epsilon of its true average with the run's confidence.
	Epsilon float64 `json:"epsilon"`
	// Rounds is the number of sampling rounds executed.
	Rounds int `json:"rounds"`
	// Capped reports that MaxRounds (or MaxDraws) fired; the guarantee is
	// void.
	Capped bool `json:"capped,omitempty"`
	// Top lists the names of the top-T groups, largest estimate first
	// (GuaranteeTopT queries only).
	Top []string `json:"top,omitempty"`
	// SecondEstimates holds the AVG(Z) estimates of AggAvgPair queries,
	// index-aligned with Names.
	SecondEstimates []float64 `json:"second_estimates,omitempty"`
	// CellEstimates and CellCounts hold the per-cell results of SubGroups
	// queries, indexed [group][key].
	CellEstimates [][]float64 `json:"cell_estimates,omitempty"`
	CellCounts    [][]int64   `json:"cell_counts,omitempty"`
}

// Bars converts the result to renderable bars with error bars. SubGroups
// results get one bar per cell, labeled "group/key".
func (r *Result) Bars() []viz.Bar {
	if r.CellEstimates != nil {
		var bars []viz.Bar
		for x, cells := range r.CellEstimates {
			for z, v := range cells {
				bars = append(bars, viz.Bar{
					Label: fmt.Sprintf("%s/%d", r.Names[x], z),
					Value: v,
					Err:   r.Epsilon,
				})
			}
		}
		return bars
	}
	bars := make([]viz.Bar, len(r.Names))
	for i := range bars {
		bars[i] = viz.Bar{Label: r.Names[i], Value: r.Estimates[i], Err: r.Epsilon}
	}
	return bars
}

// Render draws the result as a text bar chart.
func (r *Result) Render() string { return viz.BarChart(r.Bars(), 50) }

// RenderTrend draws the result as a text trend line (for GuaranteeTrend
// queries).
func (r *Result) RenderTrend() string { return viz.TrendLine(r.Names, r.Estimates) }
