package rapidviz

import (
	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// Query.ConfidenceBound values.
const (
	// BoundHoeffding is the paper's anytime Hoeffding/Serfling schedule —
	// the default, and bit-for-bit the behavior from before confidence
	// bounds became pluggable.
	BoundHoeffding = string(conc.KindHoeffding)
	// BoundBernstein is the variance-adaptive empirical-Bernstein bound:
	// per-group interval widths that shrink with the observed spread.
	BoundBernstein = string(conc.KindBernstein)
	// BoundBernsteinFinite is BoundBernstein with a finite-population
	// correction for without-replacement sampling.
	BoundBernsteinFinite = string(conc.KindBernsteinFinite)
)

// Aggregate selects what a Query estimates per group.
type Aggregate = core.AggregateKind

// Aggregate values.
const (
	// AggAvg estimates per-group averages — the paper's main setting and
	// the default.
	AggAvg Aggregate = core.AggAvg
	// AggSum estimates per-group SUMs with the ordering guarantee
	// (Algorithm 4). Group sizes must be known.
	AggSum Aggregate = core.AggSum
	// AggNormalizedSum estimates normalized sums s_i·µ_i (Algorithm 5)
	// from membership sampling, never consuming exact group sizes.
	// Multiply by the table size to recover absolute sums.
	AggNormalizedSum Aggregate = core.AggNormalizedSum
	// AggCount reports exact per-group tuple counts (free when sizes are
	// known).
	AggCount Aggregate = core.AggCount
	// AggNormalizedCount estimates fractional group sizes with correct
	// ordering via membership sampling (§6.3.2).
	AggNormalizedCount Aggregate = core.AggNormalizedCount
	// AggAvgPair estimates AVG(Y) and AVG(Z) together from shared tuple
	// draws (§6.3.5). Groups must come from GroupFromPairs, and the query
	// needs an explicit Bound covering both attributes. The Z estimates
	// are returned in Result.SecondEstimates.
	AggAvgPair Aggregate = core.AggAvgPair
)

// Guarantee selects which orderings a Query certifies (each with
// probability at least 1−Delta).
type Guarantee = core.GuaranteeKind

// Guarantee values.
const (
	// GuaranteeOrder certifies the full ordering of all groups (Problem 1)
	// — the default.
	GuaranteeOrder Guarantee = core.GuarOrder
	// GuaranteeTrend certifies adjacent pairs only (Problem 3), the right
	// property for trend lines, at a fraction of the samples.
	GuaranteeTrend Guarantee = core.GuarTrend
	// GuaranteeTopT identifies the T groups with the largest true
	// aggregates and orders them among themselves (Problem 4). Set
	// Query.T.
	GuaranteeTopT Guarantee = core.GuarTopT
	// GuaranteeValues adds |estimate − truth| ≤ MaxError on top of the
	// ordering (Problem 6). Set Query.MaxError.
	GuaranteeValues Guarantee = core.GuarValues
	// GuaranteeMistakes certifies only a CorrectPairs fraction of the
	// pairwise comparisons, skipping the hardest ones (Problem 5). Set
	// Query.CorrectPairs.
	GuaranteeMistakes Guarantee = core.GuarMistakes
	// GuaranteeAdjacency certifies the pairs of an arbitrary neighbour
	// graph (§6.1.1 — chloropleth maps). Set Query.Adjacency.
	GuaranteeAdjacency Guarantee = core.GuarAdjacency
)

// Algorithm selects the sampling strategy of a Query.
type Algorithm = core.Algorithm

// Algorithm values.
const (
	// AlgoAuto — the default — picks IFOCUS, the paper's optimal
	// algorithm.
	AlgoAuto Algorithm = core.AlgoAuto
	// AlgoIFocus forces IFOCUS (Algorithm 1).
	AlgoIFocus Algorithm = core.AlgoIFocus
	// AlgoIRefine runs the interval-halving IREFINE baseline
	// (Algorithm 3): correct but provably non-optimal.
	AlgoIRefine Algorithm = core.AlgoIRefine
	// AlgoRoundRobin runs conventional stratified sampling under the same
	// guarantee — the paper's baseline.
	AlgoRoundRobin Algorithm = core.AlgoRoundRobin
	// AlgoScan computes exact averages by reading every value.
	AlgoScan Algorithm = core.AlgoScan
	// AlgoNoIndex assumes no index on the group-by attribute (Problem 9):
	// only whole-table tuple sampling is available. Group sizes must be
	// known so table-wide draws can be simulated.
	AlgoNoIndex Algorithm = core.AlgoNoIndex
)

// Query declaratively describes one visualization query. The zero value
// asks for AVG estimates of every group under the full ordering guarantee
// using IFOCUS, with the engine's defaults for δ, bound, and seed.
//
// Queries are plain values: build them once, reuse and copy them freely,
// and execute them with Engine.Run or Engine.Stream.
type Query struct {
	// Aggregate is the per-group statistic to estimate. Default AggAvg.
	Aggregate Aggregate
	// Guarantee is the set of orderings to certify. Default
	// GuaranteeOrder. Guarantees other than GuaranteeOrder require the
	// IFOCUS family (AlgoAuto or AlgoIFocus).
	Guarantee Guarantee
	// Algorithm is the sampling strategy. Default AlgoAuto (IFOCUS).
	Algorithm Algorithm

	// T is the number of top groups for GuaranteeTopT; must satisfy
	// 1 ≤ T ≤ k.
	T int
	// MaxError is the per-group value bound d for GuaranteeValues; must
	// be positive.
	MaxError float64
	// CorrectPairs is the fraction of pairwise comparisons that must be
	// certain for GuaranteeMistakes; must be in (0, 1].
	CorrectPairs float64
	// Adjacency lists, per group, the indices of the groups it must be
	// ordered against, for GuaranteeAdjacency. Symmetrized internally.
	Adjacency [][]int
	// SubGroups, when positive, switches to the multiple-group-by setting
	// of §6.3.4: every input group is an indexed stratum whose tuples
	// carry a secondary key in [0, SubGroups), and the query estimates
	// every (group, key) cell. Groups must come from GroupFromCells.
	SubGroups int

	// Where restricts the query to the rows satisfying every listed
	// predicate (a conjunction): typed comparisons on the table's value
	// column or any extra column (Where/WhereValue), plus group-name
	// inclusion (WhereGroups). Filtered queries require table-backed
	// groups — pass Table.Groups() — because predicates
	// evaluate against the table's columns, not the sample stream. The
	// engine plans each filter once (group inclusion answers from the
	// group index; value predicates scan-and-filter) and caches the
	// resulting selection per table, keyed by the predicates' canonical
	// fingerprint, so repeated filtered queries pay the scan once. Groups
	// left empty by the filter are dropped from the result; sampling over
	// the survivors carries the same 1−δ ordering guarantee, with group
	// sizes taken from the selection cardinalities.
	Where []Predicate

	// Delta is the permitted probability that a certified ordering is
	// wrong. Zero means the engine default (0.05). Must be in (0, 1).
	Delta float64
	// Bound is the value bound c: every value must lie in [0, Bound].
	// Zero means the engine default, or — when that is zero too — the
	// maximum over materialized groups.
	Bound float64
	// ConfidenceBound selects the concentration inequality behind the
	// query's confidence intervals. Empty or BoundHoeffding keeps the
	// paper's anytime Hoeffding/Serfling schedule — one shared interval
	// width per round, the exact pre-existing behavior. BoundBernstein
	// switches to variance-adaptive empirical-Bernstein intervals: each
	// group's width scales with its *observed* spread (maintained
	// incrementally, single-pass), so low-variance groups separate with
	// far fewer samples — often several-fold fewer on well-behaved data —
	// under the same 1−Delta guarantee. BoundBernsteinFinite adds a
	// finite-population correction for without-replacement sampling.
	ConfidenceBound string
	// Resolution relaxes the guarantee to Problem 2: pairs of true
	// aggregates within Resolution of each other may be ordered either
	// way, which terminates (much) faster. Zero disables.
	Resolution float64
	// WithReplacement switches to with-replacement sampling (§3.6); group
	// sizes then need not be exact. Forced on for func-backed groups.
	WithReplacement bool

	// BatchSize is the number of fresh samples drawn from each contentious
	// group per sampling round. Zero (the default) selects the auto-batch
	// schedule: blocks start at 64 and double each round up to 4096 — a
	// deterministic, fixed schedule (never tuned from timings, which would
	// break run-to-run reproducibility), so a default query is both fast
	// and repeatable. 1 selects the paper's one-sample-per-round schedule;
	// explicit larger blocks — 64 and up — fix the block size, amortizing
	// per-draw dispatch and bookkeeping over dense block draws at the cost
	// of up to BatchSize−1 extra samples per group. The confidence
	// schedule is indexed by cumulative draws, so the ordering guarantee
	// is unaffected at any block size. NOINDEX queries are the exception:
	// their batch scales the interval-check cadence, so 0 keeps the scalar
	// cadence there. Negative values are invalid.
	BatchSize int
	// RoundGrowth, when above 1, grows the per-round block geometrically
	// (a group holding c samples draws about (RoundGrowth−1)·c fresh ones
	// next round), bounding bookkeeping to O(log) rounds in the total
	// samples. 0 and 1 keep blocks fixed at BatchSize; values in (0, 1)
	// are invalid.
	RoundGrowth float64
	// Workers caps the parallelism of this query's sampling rounds and
	// exact scans. Zero (the default) lets the engine decide: dense-block
	// queries (auto-batch, BatchSize ≥ 64, or geometric RoundGrowth) are
	// offered however many worker slots are idle when they start — a lone
	// query uses the whole pool, concurrent traffic shares it. Whatever
	// the cap, the core driver clamps it to the machine's schedulable
	// parallelism and runs rounds of fewer than 1024 planned draws
	// inline, where the pool dispatch would cost more than it spreads;
	// larger rounds fan out. Results are bit-for-bit identical for every
	// value (each group's randomness is its own seed-derived stream), so
	// Workers is purely a throughput knob. 1 pins the query to a single
	// goroutine. Negative values are invalid.
	Workers int

	// Seed seeds the query's random stream. With Deterministic false
	// (default), zero selects the engine's default seed; any other value
	// is used as given. With Deterministic true, Seed is used exactly as
	// written — an explicit seed of 0 is honored rather than replaced.
	Seed uint64
	// Deterministic marks Seed as intentional even when it is zero. It
	// exists because a bare uint64 cannot distinguish "unset" from "0".
	Deterministic bool

	// MaxRounds caps sampling rounds as a safety valve; capped runs void
	// the guarantee and report Result.Capped. Zero means the engine
	// default.
	MaxRounds int
	// MaxDraws caps total tuple draws for AlgoNoIndex and SubGroups
	// queries (0 = unlimited).
	MaxDraws int64

	// OnRound, when non-nil, observes the run round by round: current
	// estimates, which groups are still being sampled, and the per-group
	// confidence half-widths — equal under the default schedule, per
	// group under variance-adaptive bounds. It is called synchronously on
	// the sampling goroutine; keep it cheap, and copy any slice you
	// retain (they are reused between rounds). Supported by the sampling
	// algorithms — AlgoNoIndex reports at its interval-check cadence,
	// once every group has landed a tuple — but not by AlgoScan (no
	// rounds) or SubGroups queries.
	OnRound func(RoundTrace)
}

// RoundTrace is one per-round observability event delivered to
// Query.OnRound. All slices are index-aligned with the groups the query
// actually sampled and are only valid during the call — copy to retain.
type RoundTrace struct {
	// Round is the sampling round number m, from 1.
	Round int `json:"round"`
	// Epsilon is the widest live confidence half-width.
	Epsilon float64 `json:"epsilon"`
	// GroupEpsilons holds each group's current half-width: its live
	// radius while sampling, the width its interval was frozen at after
	// settling.
	GroupEpsilons []float64 `json:"group_epsilons,omitempty"`
	// Active flags the groups still being sampled.
	Active []bool `json:"active"`
	// Estimates are the current running estimates.
	Estimates []float64 `json:"estimates"`
	// TotalSamples is the cumulative sample count across all groups.
	TotalSamples int64 `json:"total_samples"`
}

// PredicateOp is the comparison operator of a Where predicate.
type PredicateOp = dataset.PredicateOp

// PredicateOp values.
const (
	// OpLT keeps rows whose column is strictly below the constant.
	OpLT PredicateOp = dataset.OpLT
	// OpLE keeps rows whose column is at most the constant.
	OpLE PredicateOp = dataset.OpLE
	// OpGT keeps rows whose column is strictly above the constant.
	OpGT PredicateOp = dataset.OpGT
	// OpGE keeps rows whose column is at least the constant.
	OpGE PredicateOp = dataset.OpGE
	// OpEQ keeps rows whose column equals the constant exactly.
	OpEQ PredicateOp = dataset.OpEQ
	// OpNE keeps rows whose column differs from the constant.
	OpNE PredicateOp = dataset.OpNE
)

// Predicate is one conjunct of a Query.Where filter: a typed comparison
// on a table column, or a group-name inclusion. Build them with Where,
// WhereValue, and WhereGroups.
type Predicate = dataset.Predicate

// Where returns a predicate comparing the named column against a
// constant. The column is the table's value column (its ingested name,
// "value", or "") or any extra column declared at ingestion (CSV header
// fields past the value column, or NewTableBuilderColumns).
func Where(column string, op PredicateOp, value float64) Predicate {
	return Predicate{Column: column, Op: op, Value: value}
}

// WhereValue returns a predicate comparing the aggregated value column
// against a constant.
func WhereValue(op PredicateOp, value float64) Predicate {
	return Predicate{Op: op, Value: value}
}

// WhereGroups returns a predicate keeping only the named groups. It is
// answered from the table's group index without reading any rows.
func WhereGroups(names ...string) Predicate {
	return Predicate{Groups: names}
}

// Partial is one streamed partial result: a group whose estimate has
// settled while the query is still running (§6.2.2). Analysts can start
// reading the chart before the contentious bars finish.
//
// Partials are wire types: the json tags fix the serialized field names
// (snake_case) independently of the Go identifiers, so network consumers
// — rapidvizd's WebSocket protocol among them — can rely on a stable
// payload shape.
type Partial struct {
	// Group is the settled group's name; Index its position among the
	// groups the query actually sampled (for Where queries, the surviving
	// groups in table order — the same indexing as Result.Names).
	Group string `json:"group"`
	Index int    `json:"index"`
	// Estimate is the group's final estimate.
	Estimate float64 `json:"estimate"`
	// Round is the sampling round at which the group settled.
	Round int `json:"round"`
	// HalfWidth is the confidence half-width the group's interval was
	// frozen at when it settled: the estimate is within ±HalfWidth of the
	// true aggregate with the query's confidence. Per group under
	// variance-adaptive bounds, the shared ε under the default schedule.
	HalfWidth float64 `json:"half_width"`
}

// Event is one element of a Stream: either a Partial, or — exactly once,
// last — the terminal Result or error.
type Event struct {
	// Partial is non-nil for settle events.
	Partial *Partial
	// Result is non-nil on the terminal event of a successful run.
	Result *Result
	// Err is non-nil on the terminal event of a failed or canceled run.
	Err error
}

// GroupFromPairs returns a materialized group whose tuples carry two
// aggregate attributes (Y, Z), for AggAvgPair queries. The slices are
// retained and must be parallel; do not mutate them afterwards.
func GroupFromPairs(name string, ys, zs []float64) Group {
	return dataset.NewSlicePairGroup(name, ys, zs)
}

// CellGroup is a group whose tuples additionally carry a discrete
// secondary key, modelling one indexed stratum of a GROUP BY X, Z query
// where only X is indexed (§6.3.4). Queries with SubGroups > 0 require
// every group to implement it.
type CellGroup interface {
	Group
	// DrawCell returns the secondary key and value of one uniform random
	// tuple.
	DrawCell(r *xrand.RNG) (z int, y float64)
	// NumCells returns the number of distinct secondary-key values.
	NumCells() int
}

// GroupFromCells returns a materialized CellGroup: cells[z] holds the
// values of the tuples whose secondary key is z. Empty cells are allowed;
// the group as a whole must be non-empty.
func GroupFromCells(name string, cells [][]float64) Group {
	var zs []int
	var ys []float64
	for z, vals := range cells {
		for _, v := range vals {
			zs = append(zs, z)
			ys = append(ys, v)
		}
	}
	if len(ys) == 0 {
		panic("rapidviz: cell group " + name + " has no values")
	}
	sum := 0.0
	for _, v := range ys {
		sum += v
	}
	return &cellSliceGroup{
		name: name,
		zs:   zs,
		ys:   ys,
		kz:   len(cells),
		mean: sum / float64(len(ys)),
	}
}

// cellSliceGroup is the materialized CellGroup behind GroupFromCells.
type cellSliceGroup struct {
	name string
	zs   []int
	ys   []float64
	kz   int
	mean float64
}

func (g *cellSliceGroup) Name() string      { return g.name }
func (g *cellSliceGroup) Size() int64       { return int64(len(g.ys)) }
func (g *cellSliceGroup) TrueMean() float64 { return g.mean }
func (g *cellSliceGroup) NumCells() int     { return g.kz }

func (g *cellSliceGroup) Draw(r *xrand.RNG) float64 {
	return g.ys[r.Intn(len(g.ys))]
}

func (g *cellSliceGroup) DrawCell(r *xrand.RNG) (int, float64) {
	i := r.Intn(len(g.ys))
	return g.zs[i], g.ys[i]
}

// Scan visits every value, enabling bound inference and the SCAN baseline.
func (g *cellSliceGroup) Scan(fn func(v float64)) int64 {
	for _, v := range g.ys {
		fn(v)
	}
	return int64(len(g.ys))
}

// cellSource adapts a slice of CellGroups to the core sampling interface.
type cellSource struct {
	groups []CellGroup
	kz     int
	c      float64
}

func (s *cellSource) NumX() int  { return len(s.groups) }
func (s *cellSource) NumZ() int  { return s.kz }
func (s *cellSource) C() float64 { return s.c }
func (s *cellSource) Draw(x int, r *xrand.RNG) (int, float64) {
	return s.groups[x].DrawCell(r)
}
