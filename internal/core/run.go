package core

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/par"
	"repro/internal/xrand"
)

// This file is the single dispatch point for every capability the package
// implements. Callers describe a run declaratively with a Spec and execute
// it through Run; the nine-ish per-algorithm entry points (IFocus, Trend,
// SumKnownSizes, ...) remain available but the public rapidviz layer goes
// exclusively through here, so new extensions become reachable by adding a
// case to one switch instead of a new exported function per operator.

// Algorithm selects the sampling strategy of a run.
type Algorithm int

// Algorithm values.
const (
	// AlgoAuto picks IFOCUS, the paper's optimal algorithm.
	AlgoAuto Algorithm = iota
	// AlgoIFocus is Algorithm 1 (round-based focused sampling).
	AlgoIFocus
	// AlgoIRefine is Algorithm 3 (interval halving; provably non-optimal).
	AlgoIRefine
	// AlgoRoundRobin is the conventional stratified-sampling baseline.
	AlgoRoundRobin
	// AlgoScan computes exact answers by reading every value.
	AlgoScan
	// AlgoNoIndex solves Problem 9: only whole-table tuple sampling is
	// available (no index on the group-by attribute).
	AlgoNoIndex
)

// String returns the lower-case algorithm name.
func (a Algorithm) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoIFocus:
		return "ifocus"
	case AlgoIRefine:
		return "irefine"
	case AlgoRoundRobin:
		return "roundrobin"
	case AlgoScan:
		return "scan"
	case AlgoNoIndex:
		return "noindex"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// AggregateKind selects the aggregate a run estimates per group.
type AggregateKind int

// AggregateKind values.
const (
	// AggAvg estimates per-group averages (the paper's main setting).
	AggAvg AggregateKind = iota
	// AggSum estimates per-group SUMs; group sizes must be known
	// (IFOCUS-Sum1, Algorithm 4).
	AggSum
	// AggNormalizedSum estimates normalized sums s_i·µ_i via a fraction
	// estimator, without consuming group sizes (IFOCUS-Sum2, Algorithm 5).
	AggNormalizedSum
	// AggCount reports exact per-group tuple counts (trivial when sizes
	// are known).
	AggCount
	// AggNormalizedCount estimates fractional group sizes with correct
	// ordering via membership sampling (§6.3.2).
	AggNormalizedCount
	// AggAvgPair estimates AVG(Y) and AVG(Z) simultaneously from shared
	// tuple draws (§6.3.5); groups must implement dataset.PairGroup.
	AggAvgPair
)

// String returns the lower-case aggregate name.
func (a AggregateKind) String() string {
	switch a {
	case AggAvg:
		return "avg"
	case AggSum:
		return "sum"
	case AggNormalizedSum:
		return "normalized-sum"
	case AggCount:
		return "count"
	case AggNormalizedCount:
		return "normalized-count"
	case AggAvgPair:
		return "avg-pair"
	}
	return fmt.Sprintf("AggregateKind(%d)", int(a))
}

// GuaranteeKind selects which orderings a run certifies.
type GuaranteeKind int

// GuaranteeKind values.
const (
	// GuarOrder certifies the full ordering of all k groups (Problem 1).
	GuarOrder GuaranteeKind = iota
	// GuarTrend certifies adjacent pairs only (Problem 3).
	GuarTrend
	// GuarTopT identifies and orders the top-t groups (Problem 4);
	// Spec.T must be set.
	GuarTopT
	// GuarValues adds |ν_i−µ_i| ≤ MaxError to the ordering (Problem 6);
	// Spec.MaxError must be set.
	GuarValues
	// GuarMistakes certifies only a CorrectPairs fraction of pairwise
	// comparisons (Problem 5); Spec.CorrectPairs must be set.
	GuarMistakes
	// GuarAdjacency certifies the pairs of an arbitrary neighbour graph
	// (§6.1.1, chloropleths); Spec.Adjacency must be set.
	GuarAdjacency
)

// String returns the lower-case guarantee name.
func (g GuaranteeKind) String() string {
	switch g {
	case GuarOrder:
		return "order"
	case GuarTrend:
		return "trend"
	case GuarTopT:
		return "top-t"
	case GuarValues:
		return "values"
	case GuarMistakes:
		return "mistakes"
	case GuarAdjacency:
		return "adjacency"
	}
	return fmt.Sprintf("GuaranteeKind(%d)", int(g))
}

// Spec is the declarative description of a run consumed by Run. The zero
// value requests AVG estimates under the full ordering guarantee with
// IFOCUS; Opts supplies δ, κ, resolution, and the other knobs.
type Spec struct {
	Algorithm Algorithm
	Aggregate AggregateKind
	Guarantee GuaranteeKind

	// T is the top-t size for GuarTopT.
	T int
	// MaxError is the per-group value bound d for GuarValues.
	MaxError float64
	// CorrectPairs is the certain-pair fraction γ for GuarMistakes.
	CorrectPairs float64
	// Adjacency is the neighbour graph for GuarAdjacency.
	Adjacency Adjacency
	// Fractions supplies unbiased fractional-size estimates for the
	// normalized aggregates. Required by AggNormalizedSum/Count.
	Fractions dataset.FractionEstimator
	// Cells, when non-nil, switches the run to the multiple-group-by
	// setting of §6.3.4: the universe is ignored and every cell of the
	// source's (X, Z) cross product is estimated.
	Cells CellSource
	// MaxDraws caps total draws for AlgoNoIndex and Cells runs
	// (0 = unlimited).
	MaxDraws int64
	// Workers bounds intra-run parallelism: the fan-out of the exact scan
	// (AlgoScan) and of each sampling round's per-group block draws in the
	// shared round driver (the IFOCUS family, ROUNDROBIN, the SUM
	// estimators, MultiAgg phase 1). Results are identical for every
	// value — parallel rounds only partition independent per-group work.
	// 0 or 1 runs inline. IREFINE (per-group streams but sequential
	// batches), NOINDEX, and Cells runs (one shared stream in draw order)
	// ignore it.
	Workers int

	Opts Options
}

// RunResult is the union result shape of Run: the common Result fields are
// always populated (for cell runs, flattened row-major), and the optional
// fields carry the extras of the specialized problems.
type RunResult struct {
	Result
	// TopMembers holds the indices of the top-t groups (GuarTopT),
	// largest estimate first.
	TopMembers []int
	// Membership is the final top-t classification (GuarTopT).
	Membership []Membership
	// SecondEstimates holds the AVG(Z) estimates of AggAvgPair runs.
	SecondEstimates []float64
	// CellEstimates and CellCounts hold the per-cell results of Cells
	// runs, indexed [x][z].
	CellEstimates [][]float64
	CellCounts    [][]int64
}

// Run executes the run described by spec on u, polling ctx between rounds.
// It is the single dispatch path behind the public Engine API: every
// algorithm and §6 extension in this package is reachable through it.
func Run(ctx context.Context, u *dataset.Universe, rng *xrand.RNG, spec Spec) (*RunResult, error) {
	opts := spec.Opts
	if ctx != nil {
		opts.Ctx = ctx
	}
	if spec.Workers != 0 {
		opts.Workers = spec.Workers
	}

	if opts.Draws != nil {
		if err := shareableSpec(spec); err != nil {
			return nil, err
		}
	}

	// Multiple group-by replaces the universe entirely.
	if spec.Cells != nil {
		mg, err := MultiGroupBy(spec.Cells, rng, opts, spec.MaxDraws)
		if err != nil {
			return nil, err
		}
		return cellRunResult(mg), nil
	}

	// However the run ends — result, cancellation, error — its groups' draw
	// state goes back for the next query over the same rows to reuse. (A
	// source-fed run never touched its groups' state: nothing to release.)
	defer u.ReleaseDraws()

	if spec.Guarantee != GuarOrder && spec.Aggregate != AggAvg {
		return nil, fmt.Errorf("core: the %s guarantee is only available for AVG runs (got %s)", spec.Guarantee, spec.Aggregate)
	}

	switch spec.Algorithm {
	case AlgoScan:
		if spec.Aggregate != AggAvg || spec.Guarantee != GuarOrder {
			return nil, fmt.Errorf("core: scan computes exact AVGs only")
		}
		res, err := scanParallel(u, spec.Workers)
		if err != nil {
			return nil, err
		}
		return &RunResult{Result: *res}, nil
	case AlgoNoIndex:
		if spec.Aggregate != AggAvg || spec.Guarantee != GuarOrder {
			return nil, fmt.Errorf("core: the no-index algorithm supports plain AVG ordering only")
		}
		if u.TotalSize() == 0 {
			return nil, fmt.Errorf("core: the no-index algorithm needs known group sizes to simulate table-wide tuple sampling")
		}
		ni, err := NoIndex(NewUniverseTupleSource(u), rng, opts, spec.MaxDraws)
		if err != nil {
			return nil, err
		}
		k := u.K()
		return &RunResult{Result: Result{
			Estimates:    ni.Estimates,
			SampleCounts: ni.SampleCounts,
			TotalSamples: ni.TotalSamples,
			// NoIndex draws tuples one at a time; a "round" is one
			// k-draw pass, matching its interval-check cadence.
			Rounds:       int(ni.TotalSamples / int64(k)),
			SettledRound: make([]int, k),
			Capped:       ni.Capped,
		}}, nil
	case AlgoIRefine, AlgoRoundRobin:
		if spec.Aggregate != AggAvg || spec.Guarantee != GuarOrder {
			return nil, fmt.Errorf("core: %s supports plain AVG ordering only; guarantee variants and non-AVG aggregates require IFOCUS", spec.Algorithm)
		}
	case AlgoAuto, AlgoIFocus:
		// The IFOCUS family carries every aggregate and guarantee below.
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", spec.Algorithm)
	}

	switch spec.Aggregate {
	case AggAvg:
		return runAvg(u, rng, spec, opts)
	case AggSum:
		res, err := SumKnownSizes(u, rng, opts)
		if err != nil {
			return nil, err
		}
		return &RunResult{Result: *res}, nil
	case AggNormalizedSum:
		res, err := SumUnknownSizes(u, spec.Fractions, rng, opts)
		if err != nil {
			return nil, err
		}
		return &RunResult{Result: *res}, nil
	case AggCount:
		res, err := CountKnownSizes(u)
		if err != nil {
			return nil, err
		}
		return &RunResult{Result: *res}, nil
	case AggNormalizedCount:
		res, err := CountUnknownSizes(u, spec.Fractions, rng, opts)
		if err != nil {
			return nil, err
		}
		return &RunResult{Result: *res}, nil
	case AggAvgPair:
		multi, err := MultiAgg(u, rng, opts)
		if err != nil {
			return nil, err
		}
		return &RunResult{
			Result: Result{
				Estimates:    multi.EstimatesY,
				SampleCounts: multi.SampleCounts,
				TotalSamples: multi.TotalSamples,
				Rounds:       multi.RoundsY + multi.RoundsZ,
				SettledRound: make([]int, u.K()),
				Capped:       multi.Capped,
			},
			SecondEstimates: multi.EstimatesZ,
		}, nil
	}
	return nil, fmt.Errorf("core: unknown aggregate %v", spec.Aggregate)
}

// shareableSpec reports whether spec's draw path is pure block draws, the
// precondition for feeding it from a shared Options.Draws source. Anything
// that consumes auxiliary randomness outside the per-group sample streams —
// pair draws, membership indicators, whole-table tuple sampling, exact
// scans, cell runs — would need randomness a source-fed sampler does not
// have (RNGFor is nil), so those shapes are rejected here, in one place,
// rather than nil-dereferencing deep inside an algorithm. The engine layer
// makes the same check advisorily (falling back to solo); this is the
// backstop for direct core callers.
func shareableSpec(spec Spec) error {
	if spec.Cells != nil {
		return fmt.Errorf("core: shared draw sources cannot feed multiple-group-by runs")
	}
	switch spec.Algorithm {
	case AlgoAuto, AlgoIFocus, AlgoRoundRobin:
	default:
		return fmt.Errorf("core: shared draw sources require a round-driver algorithm (auto, ifocus, roundrobin); got %s", spec.Algorithm)
	}
	switch spec.Aggregate {
	case AggAvg, AggSum:
	default:
		return fmt.Errorf("core: shared draw sources support AVG and SUM aggregates; %s uses a custom draw path", spec.Aggregate)
	}
	return nil
}

// runAvg dispatches the AVG guarantee variants.
func runAvg(u *dataset.Universe, rng *xrand.RNG, spec Spec, opts Options) (*RunResult, error) {
	switch spec.Guarantee {
	case GuarOrder:
		var res *Result
		var err error
		switch spec.Algorithm {
		case AlgoIRefine:
			res, err = IRefine(u, rng, opts)
		case AlgoRoundRobin:
			res, err = RoundRobin(u, rng, opts)
		default:
			res, err = IFocus(u, rng, opts)
		}
		if err != nil {
			return nil, err
		}
		return &RunResult{Result: *res}, nil
	case GuarTrend:
		res, err := Trend(u, rng, opts)
		if err != nil {
			return nil, err
		}
		return &RunResult{Result: *res}, nil
	case GuarAdjacency:
		res, err := Chloropleth(u, rng, spec.Adjacency, opts)
		if err != nil {
			return nil, err
		}
		return &RunResult{Result: *res}, nil
	case GuarTopT:
		res, err := TopT(u, rng, spec.T, opts)
		if err != nil {
			return nil, err
		}
		return &RunResult{Result: res.Result, TopMembers: res.Members, Membership: res.Membership}, nil
	case GuarValues:
		res, err := WithValues(u, rng, spec.MaxError, opts)
		if err != nil {
			return nil, err
		}
		return &RunResult{Result: *res}, nil
	case GuarMistakes:
		res, err := WithMistakes(u, rng, spec.CorrectPairs, opts)
		if err != nil {
			return nil, err
		}
		return &RunResult{Result: *res}, nil
	}
	return nil, fmt.Errorf("core: unknown guarantee %v", spec.Guarantee)
}

// cellRunResult flattens a multi-group-by result row-major into the common
// Result fields and preserves the per-cell views.
func cellRunResult(mg *MultiGroupByResult) *RunResult {
	rr := &RunResult{
		Result:        Result{TotalSamples: mg.TotalSamples, Capped: mg.Capped},
		CellEstimates: mg.Estimates,
		CellCounts:    mg.Counts,
	}
	for x := range mg.Estimates {
		rr.Estimates = append(rr.Estimates, mg.Estimates[x]...)
		rr.SampleCounts = append(rr.SampleCounts, mg.Counts[x]...)
	}
	rr.SettledRound = make([]int, len(rr.Estimates))
	return rr
}

// ParallelFor runs fn(0..n-1) across at most workers goroutines (clamped
// to n; workers <= 1 runs inline). Each fn call must touch only its own
// index. It is the bounded work-queue primitive (internal/par) shared by
// the parallel scan below, the round driver's draw fan-out, the public
// engine's per-group preprocessing, and sharded table ingestion.
func ParallelFor(n, workers int, fn func(i int)) {
	par.For(n, workers, fn)
}

// ParallelForWorkers is ParallelFor with the worker's identity passed to
// each call, so fn can select per-worker scratch without synchronization.
func ParallelForWorkers(n, workers int, fn func(w, i int)) {
	par.ForWorkers(n, workers, fn)
}

// scanParallel is Scan with the per-group scans fanned out across at most
// workers goroutines. Group scans are independent and each group's sum is
// accumulated in visit order, so the result is bit-identical to Scan.
func scanParallel(u *dataset.Universe, workers int) (*Result, error) {
	if u == nil || u.K() == 0 {
		return nil, fmt.Errorf("core: universe has no groups")
	}
	k := u.K()
	if workers <= 1 || k == 1 {
		return Scan(u)
	}
	estimates := make([]float64, k)
	counts := make([]int64, k)
	errs := make([]error, k)
	ParallelFor(k, workers, func(i int) {
		g := u.Groups[i]
		sc, ok := g.(dataset.Scannable)
		if !ok {
			errs[i] = fmt.Errorf("core: group %q is not scannable; SCAN needs materialized data", g.Name())
			return
		}
		sum := 0.0
		n := sc.Scan(func(v float64) { sum += v })
		if n == 0 {
			errs[i] = fmt.Errorf("core: group %q is empty", g.Name())
			return
		}
		estimates[i] = sum / float64(n)
		counts[i] = n
	})
	var total int64
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total += counts[i]
	}
	settled := make([]int, k)
	for i := range settled {
		settled[i] = 1
	}
	return &Result{
		Estimates:    estimates,
		SampleCounts: counts,
		TotalSamples: total,
		Rounds:       1,
		SettledRound: settled,
	}, nil
}
