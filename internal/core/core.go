// Package core implements the paper's query-processing algorithms:
//
//   - IFOCUS (Algorithm 1) and its resolution variant IFOCUS-R — the main
//     contribution: round-based sampling with anytime confidence intervals
//     that stops sampling a group as soon as its interval separates from all
//     other active groups' intervals.
//   - IREFINE / IREFINE-R (Algorithm 3) — the interval-halving alternative.
//   - ROUNDROBIN / ROUNDROBIN-R — conventional stratified sampling adapted
//     to stop under the same ordering guarantee; the paper's baseline.
//   - SCAN — the exact full-scan baseline.
//   - Every §6 extension: trends, top-t, allowed mistakes, value guarantees,
//     partial results, SUM (known and unknown group sizes), COUNT, multiple
//     aggregates, and the no-index fallback.
//
// All algorithms guarantee that, with probability at least 1−δ, the returned
// estimates ν₁..ν_k are ordered identically to the true means µ₁..µ_k
// (exactly for Problem 1; up to the resolution r for Problem 2).
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/conc"
	"repro/internal/dataset"
)

// Options configures a run of any ordering-guaranteed algorithm.
// The zero value is not valid; start from DefaultOptions.
type Options struct {
	// Delta is the permitted probability that the returned ordering is
	// wrong (the user-specified failure probability δ).
	Delta float64
	// Resolution is the minimum visual resolution r of Problem 2. Zero
	// requests the strict ordering guarantee of Problem 1. When positive,
	// sampling stops as soon as ε < r/4 (paper §3.6, "Visual Resolution
	// Extension") and groups closer than r may be ordered either way.
	Resolution float64
	// Kappa is the geometric spacing κ of the anytime union bound. The
	// paper sets κ=1 in all experiments (footnote †); values slightly above
	// 1 (e.g. 1.01) behave near-identically.
	Kappa float64
	// Bound selects the concentration inequality behind every confidence
	// radius. Empty (or conc.KindHoeffding) keeps the paper's anytime
	// Hoeffding/Serfling schedule: one shared equal-width ε per round,
	// bit-for-bit the behavior from before bounds became pluggable.
	// conc.KindBernstein and conc.KindBernsteinFinite switch to
	// variance-adaptive empirical-Bernstein radii computed per group from
	// incrementally maintained moments (Welford count/mean/M2 in the
	// sampler accounting layer — single-pass, no rescans); radii then
	// differ across groups, so every settle decision routes through the
	// general unequal-width interval sweep. Low-spread groups separate
	// with far fewer samples; the guarantee is unchanged.
	Bound conc.Kind
	// WithReplacement selects sampling with replacement (§3.6). The default
	// (false) samples without replacement and uses the Hoeffding–Serfling
	// finite-population correction; with replacement the correction is
	// dropped and group sizes need not be known.
	WithReplacement bool
	// HeuristicFactor divides every confidence interval by the given factor
	// (>1 shrinks intervals faster than theory allows). Factor 1 is the
	// pure algorithm. Used only by the Figure 5 accuracy-vs-heuristic
	// experiments; any factor above 1 voids the correctness guarantee.
	HeuristicFactor float64
	// MaxRounds caps the number of sampling rounds as a safety valve for
	// adversarial inputs with exactly equal means in with-replacement mode
	// (where the algorithm would otherwise not terminate). Zero means no
	// cap. When the cap triggers the result reports Capped=true and the
	// guarantee is void.
	MaxRounds int
	// MaxDraws caps the run's total draws the same way (0 = no cap): each
	// round's blocks are cut, in group order, to the draws the cap has
	// left, so a capped run stops at exactly MaxDraws samples, reports
	// Capped=true, and voids the guarantee. The round that reaches the cap
	// settles nothing on its merits: its widths were set for the blocks it
	// planned, which the cap may have cut.
	MaxDraws int64
	// BatchSize is the number of fresh samples every still-active group
	// draws per sampling round. 0 and 1 both select the paper's
	// one-sample-per-round schedule and are bit-for-bit identical to the
	// scalar algorithms; larger blocks amortize per-draw dispatch, RNG
	// accounting, and the running-mean update over dense block draws, at
	// the cost of up to BatchSize−1 samples per group past the point where
	// its interval separated. BatchAuto selects the deterministic
	// auto-batch schedule (start at 64, double per round, cap at 4096).
	// The ε schedule is indexed by the cumulative per-group draw count,
	// which the anytime union bound covers at every count simultaneously,
	// so batching never weakens the guarantee. Other negative values are
	// invalid.
	BatchSize int
	// RoundGrowth, when above 1, grows the per-round block geometrically:
	// a group holding c cumulative samples draws
	// max(BatchSize, ⌈(RoundGrowth−1)·c⌉) fresh samples next round, so the
	// per-round bookkeeping (ε update, isolation sweep, tracing) runs only
	// O(log) times in the total sample count. 0 and 1 keep blocks fixed at
	// BatchSize. Values in (0, 1) are invalid.
	RoundGrowth float64
	// Workers fans each round's per-group block draws across a pool of
	// goroutines. Results are bit-for-bit identical for every value —
	// each group's randomness is its own seed-derived stream, and all
	// cross-group decisions run after the draw barrier in deterministic
	// group order — so Workers is purely a throughput knob, safe to leave
	// on everywhere. 0 sizes the pool to runtime.GOMAXPROCS; any value is
	// clamped to GOMAXPROCS and the group count. A round fans out only
	// when it plans at least 1024 draws across two or more groups; smaller
	// rounds, which cannot amortize the pool dispatch, run inline. The
	// choice depends on the round's plan alone, never on a clock. 1 always
	// draws inline. Negative values are invalid.
	Workers int
	// OnRound, when non-nil, observes every round (Query.OnRound and the
	// convergence experiments behind Figures 5(c) and 6(a)). It receives
	// the round number m, the widest live half-width eps, each group's
	// half-width — its live radius while active (eps under the default
	// schedule), the width it was frozen at once settled — the active
	// flags, the current estimates, and the cumulative sample count. The
	// slices are reused between rounds; copy them to retain them.
	OnRound func(m int, eps float64, epsByGroup []float64, active []bool, estimates []float64, totalSamples int64)
	// OnPartial, when non-nil, is invoked the moment a group's estimate
	// settles (it becomes inactive), implementing the partial-results
	// extension of §6.2.2. Arguments are the group index, its estimate,
	// the round at which it settled, and the confidence half-width its
	// interval was frozen at — per group under variance-adaptive bounds,
	// the shared ε under the default schedule.
	OnPartial func(group int, estimate float64, round int, eps float64)
	// Ctx, when non-nil, is polled once per sampling round: the run aborts
	// with Ctx.Err() as soon as the context is canceled or its deadline
	// passes. A canceled run returns no result.
	Ctx context.Context
}

// BatchAuto, assigned to Options.BatchSize, selects the deterministic
// auto-batch schedule: round m draws min(64·2^(m−1), 4096) fresh samples
// per active group. The schedule is a fixed function of the round number —
// never of measured timings — because the block size changes *which*
// samples each group holds when settle decisions run, so a timing-driven
// batch would break run-to-run determinism and the worker/batch golden
// pins. Exhaustion clamping still applies per group, and RoundGrowth
// composes as usual (the larger of the two block sizes wins).
const BatchAuto = -1

// The BatchAuto schedule's endpoints: the starting block (the measured
// knee of the throughput curve — below it per-round bookkeeping dominates)
// and the cap (past it blocks stop helping and only add overshoot past the
// settle point).
const (
	autoBatchStart = 64
	autoBatchMax   = 4096
)

// autoBatchSize returns the BatchAuto block for round m (1-based).
func autoBatchSize(m int) int {
	b := autoBatchStart
	for i := 1; i < m && b < autoBatchMax; i++ {
		b <<= 1
	}
	return b
}

// interrupted reports the context error, if the run's context is done.
// Round loops call it once per round so cancellation lands within one
// round's worth of draws.
func (o *Options) interrupted() error {
	if o.Ctx == nil {
		return nil
	}
	select {
	case <-o.Ctx.Done():
		return o.Ctx.Err()
	default:
		return nil
	}
}

// DefaultOptions mirrors the paper's default experimental setup:
// δ=0.05, κ=1, sampling without replacement, no resolution relaxation.
func DefaultOptions() Options {
	return Options{
		Delta:           0.05,
		Kappa:           1,
		HeuristicFactor: 1,
	}
}

// validate normalizes and checks options against the universe.
func (o *Options) validate(u *dataset.Universe) error {
	if u == nil || u.K() == 0 {
		return fmt.Errorf("core: universe has no groups")
	}
	if o.Delta <= 0 || o.Delta >= 1 {
		return fmt.Errorf("core: delta must be in (0,1), got %v", o.Delta)
	}
	if o.Kappa == 0 {
		o.Kappa = 1
	}
	if o.Kappa < 1 {
		return fmt.Errorf("core: kappa must be >= 1, got %v", o.Kappa)
	}
	kind, err := conc.ParseKind(string(o.Bound))
	if err != nil {
		return err
	}
	o.Bound = kind
	if o.HeuristicFactor == 0 {
		o.HeuristicFactor = 1
	}
	if o.HeuristicFactor < 1 {
		return fmt.Errorf("core: heuristic factor must be >= 1, got %v", o.HeuristicFactor)
	}
	if o.Resolution < 0 {
		return fmt.Errorf("core: resolution must be non-negative, got %v", o.Resolution)
	}
	if o.BatchSize < 0 && o.BatchSize != BatchAuto {
		return fmt.Errorf("core: batch size must be non-negative (or BatchAuto), got %d", o.BatchSize)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: workers must be non-negative, got %d", o.Workers)
	}
	// !(x >= 1) rather than x < 1 so NaN is rejected too; +Inf would
	// silently overflow the block computation, so it is equally invalid.
	if o.RoundGrowth != 0 && !(o.RoundGrowth >= 1 && !math.IsInf(o.RoundGrowth, 1)) {
		return fmt.Errorf("core: round growth must be 0 or a finite value >= 1, got %v", o.RoundGrowth)
	}
	if !o.WithReplacement && u.MaxSize() == 0 {
		return fmt.Errorf("core: without-replacement sampling requires known group sizes")
	}
	return nil
}

// Result reports the outcome of a sampling run.
type Result struct {
	// Estimates are the returned ν₁..ν_k, index-aligned with the universe.
	Estimates []float64
	// SampleCounts are the per-group m_i.
	SampleCounts []int64
	// TotalSamples is the paper's sample complexity C = Σ m_i.
	TotalSamples int64
	// Rounds is the number of sampling rounds executed (max m).
	Rounds int
	// SettledRound[i] is the round at which group i became inactive.
	SettledRound []int
	// FinalEpsilon is the interval half-width at termination.
	FinalEpsilon float64
	// Capped reports that MaxRounds or MaxDraws terminated the run early;
	// the ordering guarantee does not hold in that case.
	Capped bool
}

// SampledFraction returns TotalSamples divided by the universe size, the
// "Percentage Sampled" y-axis of Figures 3, 6 and 7 (as a fraction; multiply
// by 100 for percent). Returns NaN when the universe size is unknown.
func (r *Result) SampledFraction(u *dataset.Universe) float64 {
	total := u.TotalSize()
	if total == 0 {
		return math.NaN()
	}
	return float64(r.TotalSamples) / float64(total)
}

// interval is a closed confidence interval around an estimate.
type interval struct {
	lo, hi float64
}

func (iv interval) overlaps(other interval) bool {
	return iv.lo <= other.hi && other.lo <= iv.hi
}

// isolatedEqualWidth reports, for each listed index, whether its interval
// [est−eps, est+eps] is disjoint from every other listed index's interval.
// Because all intervals share the same half-width, index i is isolated iff
// the gap between its estimate and both sorted neighbours exceeds 2ε.
//
// order is caller-owned scratch for the sorted index permutation, reused
// across rounds and returned (possibly regrown): the sweep runs every
// round, and a per-call slice plus sort.Slice's closure were the round
// loop's only steady-state allocations. The sort is a stable insertion
// sort: alloc-free, and n is the number of still-active groups — a
// chart's bar count — where its constant factor beats the libsort
// dispatch. Tie order cannot change the result (tied estimates have gap
// 0 ≤ 2ε, so neither neighbour check passes).
//
// With carry set, the caller asserts order already holds exactly the
// elements of indices, arranged as the previous round left them; the
// rebuild from indices is skipped and the insertion sort repairs the
// carried arrangement in place. Between rounds only the groups that drew
// move, and each by one block's worth of mean shift, so the carried order
// is nearly sorted and the adaptive insertion sort runs in O(n + moves)
// instead of re-deriving the permutation from scratch. Because tie order
// cannot change the flags, a carried order and a rebuilt one produce
// bit-identical results.
func isolatedEqualWidth(indices []int, estimates []float64, eps float64, isolated []bool, order []int, carry bool) []int {
	n := len(indices)
	if n <= 1 {
		for _, idx := range indices {
			isolated[idx] = true
		}
		return order[:0]
	}
	if !carry {
		order = append(order[:0], indices...)
	}
	for i := 1; i < n; i++ {
		x := order[i]
		kx := estimates[x]
		j := i - 1
		for j >= 0 && estimates[order[j]] > kx {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = x
	}
	for pos, idx := range order {
		ok := true
		if pos > 0 && estimates[idx]-estimates[order[pos-1]] <= 2*eps {
			ok = false
		}
		if pos < n-1 && estimates[order[pos+1]]-estimates[idx] <= 2*eps {
			ok = false
		}
		isolated[idx] = ok
	}
	return order
}

// isolatedGeneral reports, for every interval, whether it is disjoint from
// all others. Used by every run whose per-group widths differ — the SUM
// estimators, and every run with per-group radii or a per-group plan.
// Sorting by lower endpoint reduces the check to two neighbour
// comparisons per interval — the running maximum of earlier
// upper endpoints and the successor's lower endpoint — so the sweep costs
// two neighbour comparisons per interval where the previous pairwise check
// cost O(n²) every round.
//
// Like isolatedEqualWidth, order is caller-owned scratch returned for
// reuse, and the sort is an alloc-free stable insertion sort over the
// group count; tie order among equal lower endpoints cannot change the
// result (the running-max and next-lo comparisons are ≥/≤ against values,
// not positions, so any permutation of ties sees the same outcomes).
//
// With carry set, order must already be a permutation of 0..n-1 (the
// previous round's result over the same interval set); the identity
// rebuild is skipped and the insertion sort repairs the carried, nearly
// sorted arrangement incrementally. Tie-safety makes the carried and
// rebuilt paths bit-identical.
func isolatedGeneral(ivs []interval, isolated []bool, order []int, carry bool) []int {
	n := len(ivs)
	switch n {
	case 0:
		return order[:0]
	case 1:
		isolated[0] = true
		return order[:0]
	}
	if !carry {
		order = order[:0]
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
	}
	for i := 1; i < n; i++ {
		x := order[i]
		lo := ivs[x].lo
		j := i - 1
		for j >= 0 && ivs[order[j]].lo > lo {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = x
	}
	// An interval overlaps some predecessor (in lo order) iff the running
	// max of predecessor his reaches its lo, and overlaps some successor
	// iff the very next lo is at or below its hi — later los only grow.
	prevMaxHi := math.Inf(-1)
	for pos, idx := range order {
		ok := true
		if pos > 0 && prevMaxHi >= ivs[idx].lo {
			ok = false
		}
		if pos < n-1 && ivs[order[pos+1]].lo <= ivs[idx].hi {
			ok = false
		}
		isolated[idx] = ok
		if ivs[idx].hi > prevMaxHi {
			prevMaxHi = ivs[idx].hi
		}
	}
	return order
}

// newSchedule builds the ε schedule for a run, deriving the population term
// from the universe per the sampling mode.
func newSchedule(u *dataset.Universe, opts *Options) *conc.Schedule {
	var n int64
	if !opts.WithReplacement {
		n = u.MaxSize()
	}
	return conc.MustSchedule(u.C, u.K(), opts.Delta, opts.Kappa, n)
}

// newRunBound builds the pluggable per-group bound for a run, or nil for
// the default Hoeffding schedule — whose shared-ε fast path the round
// driver keeps exactly as it was, bit for bit.
func newRunBound(u *dataset.Universe, opts *Options) conc.Bound {
	if opts.Bound == "" || opts.Bound == conc.KindHoeffding {
		return nil
	}
	return conc.MustBound(opts.Bound, u.C, u.K(), opts.Delta, opts.Kappa)
}

// maxActiveSize returns max_{i active} n_i, the population bound Algorithm 1
// feeds into the Serfling term, from the groups' sizes. Returns 0 when any
// active size is unknown.
func maxActiveSize(sizes []int64, active []bool) int64 {
	var max int64
	for i, n := range sizes {
		if !active[i] {
			continue
		}
		if n == 0 {
			return 0
		}
		if n > max {
			max = n
		}
	}
	return max
}

// activeIndices appends the indices of set flags to dst and returns it.
func activeIndices(active []bool, dst []int) []int {
	dst = dst[:0]
	for i, a := range active {
		if a {
			dst = append(dst, i)
		}
	}
	return dst
}
