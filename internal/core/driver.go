package core

import (
	"math"
	"sync"

	"repro/internal/conc"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// This file is the round driver, the one run loop of the package: every
// sampling algorithm — IFOCUS and its guarantee variants (trend,
// chloropleth, top-t, values, mistakes), ROUNDROBIN, IREFINE, the SUM
// estimators, NOINDEX, multiple group-by and multiple aggregates — is the
// same loop with a different settling rule. Each round it (1) polls for
// cancellation, (2) recomputes the confidence widths, (3) draws from every
// still-active group, (4) lets the algorithm settle groups whose intervals
// have separated, and (5) runs the tracing, partial-result and cap
// bookkeeping. roundLoop owns steps 1–3 and 5 and is the only code that
// polls the context, applies MaxRounds and MaxDraws, emits OnRound and
// OnPartial, and releases the run's Sampler; a roundAlgo supplies step 4.
//
// The driver only plans what a round draws: a phase is a list of takes,
// one per group, that one Sampler.DrawRound call draws — choosing the
// strategy, fanning it across Options.Workers, keeping counts, total and
// moments — and the driver then folds each take into its group's running
// mean. The default plan draws one block per active group (BatchSize, the
// BatchAuto block or the RoundGrowth block); a per-group plan (IREFINE)
// lays out each group's blocks itself; a scatter layout (NOINDEX, multiple
// group-by, multiple aggregates) draws from units whose tuples land, and
// are folded, in the groups they reveal.
//
// BatchSize ≤ 1 reproduces the paper's one-sample rounds bit for bit
// (TestGoldenPins). The anytime schedule is valid at every sample count,
// so indexing ε by each group's own count keeps the union bound at any
// block size. Every group draws on its own RNG stream (a scatter unit on
// its first group's), and everything that touches cross-group state —
// planning, folding, settling, partial-result events — runs before or
// after a phase's barrier in group order, so Workers=1 and Workers=N give
// bit-identical results (the conformance matrix and FuzzRun pin it).

// roundAlgo packages what distinguishes one round-based algorithm from
// another.
type roundAlgo struct {
	// decide runs after each round's draws and settles the groups whose
	// intervals have separated (and applies any algorithm-specific exits,
	// e.g. the resolution relaxation or the allowed-mistakes quota).
	decide func(lp *roundLoop)
	// plan, when set, replaces the default block: it returns group i's
	// next block this round, given the samples the group already drew this
	// round (0 ends the group's round). Each round's blocks make a fresh
	// estimate, the mean of that round's draws alone. A planned run decides
	// from round 1 on, and keeps per-group widths in epsG, which the plan
	// maintains itself.
	plan func(i, drawn int) int
	// scatter, when set, replaces per-group draws with draw units whose
	// tuples land in the groups they reveal; the driver sets its Fold.
	// Scatter runs take per-group radii at each group's own count.
	scatter *dataset.Scatter
	// afterDraws, when set, runs right after every draw phase (the seed
	// round included) — e.g. the SUM estimator rescaling means into sums.
	afterDraws func(lp *roundLoop)
	// display, when set, is the estimate vector exposed to the tracer,
	// OnPartial and the final Result (default: the running means).
	display []float64
	// scale, when set, converts group i's live width to the units of its
	// displayed estimate (SUM's n_i) wherever the driver settles or
	// reports it.
	scale []float64
	// traceFlags, when set, is passed to the tracer instead of the live
	// active flags (ROUNDROBIN reports every group as active, as the
	// scalar implementation always did).
	traceFlags []bool
	// seedTrace emits a tracer event for the seed round.
	seedTrace bool
	// keepExhaustedActive marks population-exhausted groups as drained —
	// they stop drawing but stay active until decide settles them
	// (ROUNDROBIN, IREFINE) — instead of settling them at width 0.
	keepExhaustedActive bool
	// notifyPartials emits OnPartial events for settled groups, the ones
	// the round or draw cap force-settles included.
	notifyPartials bool
}

// roundLoop is the shared state of one run.
type roundLoop struct {
	u       *dataset.Universe
	opts    *Options
	sched   *conc.Schedule
	sampler *dataset.Sampler
	algo    roundAlgo

	// bound is the per-group bound, nil under the default Hoeffding
	// schedule of a lockstep run. When set, updateRadii recomputes every
	// active group's radius from its own count and moments after each draw
	// phase. epsG, set whenever widths are per group (a bound or a plan),
	// holds each group's live width, and every settle decision routes
	// through the general unequal-width interval sweep; lp.eps then tracks
	// the widest live width for the scalar tracer/result fields.
	bound conc.Bound
	epsG  []float64

	k         int
	estimates []float64 // running means
	settledR  []int
	numActive int

	m        int // round number
	cum      int // cumulative default blocks per still-active group
	eps      float64
	capped   bool
	orderFor int8      // which sweep family orderBuf belongs to
	traceEps []float64 // scratch per-group widths handed to OnRound

	// loopScratch is the pooled arena behind every per-run buffer that does
	// not escape into the Result (estimates and settledR do escape and are
	// always freshly allocated). release returns it, with the sampler's
	// draw state, exactly once per run: at the end of run, on success or
	// cancellation.
	*loopScratch
}

// loopScratch holds one run's reusable buffers between runs. An engine
// serving a query stream re-runs the round loop constantly with the same
// group counts, so recycling the per-run slices takes the driver's
// steady-state allocation rate to near zero.
type loopScratch struct {
	sizes     []int64 // every group's Size, read once per run
	active    []bool
	isolated  []bool
	drained   []bool    // keepExhaustedActive mode: drawing stopped
	frozenEps []float64 // interval half-width at settle time
	actIdx    []int
	orderBuf  []int      // the isolation sweeps' sort permutation, carried across rounds
	ivsBuf    []interval // scratch for the unequal-width sweep
	epsBuf    []float64  // epsG's storage
	traceBuf  []float64  // traceEps's storage

	// plan is the phase being drawn: one take per group (scatter: unit),
	// in index order. Plan runs also keep, per take, the samples the group
	// drew this round before it.
	plan  []dataset.Take
	drawn []int
}

var loopScratchPool = sync.Pool{New: func() any { return new(loopScratch) }}

// zeroed returns buf resized to k zero values, reusing its storage.
func zeroed[T any](buf []T, k int) []T {
	if cap(buf) < k {
		return make([]T, k)
	}
	buf = buf[:k]
	clear(buf)
	return buf
}

// release hands the run's draw state and scratch buffers back to their
// pools. The roundLoop must not be used afterwards.
func (lp *roundLoop) release() {
	lp.sampler.Release()
	loopScratchPool.Put(lp.loopScratch)
	lp.loopScratch = nil
}

// orderFor values: which call family the carried orderBuf permutation
// belongs to. Sweeps only carry the order across rounds of the same
// family; a kind switch (impossible within one run today, since the bound
// is fixed at construction) rebuilds from scratch.
const (
	orderNone int8 = iota
	orderEqual
	orderGeneral
)

// newRoundLoop builds the loop state. opts must already be validated. The
// run's RNG discipline is fixed here: one word is taken from rng and every
// group derives its own stream from it, keyed by group index — so the
// sample a group sees depends only on the seed, the group's position, and
// how many draws it has taken, never on draw interleaving across groups.
func newRoundLoop(u *dataset.Universe, rng *xrand.RNG, opts *Options, algo roundAlgo) *roundLoop {
	k := u.K()
	sc := loopScratchPool.Get().(*loopScratch)
	sc.sizes = zeroed(sc.sizes, k)
	for i, g := range u.Groups {
		sc.sizes[i] = g.Size()
	}
	sc.active = zeroed(sc.active, k)
	sc.isolated = zeroed(sc.isolated, k)
	sc.drained = zeroed(sc.drained, k)
	sc.frozenEps = zeroed(sc.frozenEps, k)
	sc.actIdx, sc.orderBuf, sc.ivsBuf, sc.plan = sc.actIdx[:0], sc.orderBuf[:0], sc.ivsBuf[:0], sc.plan[:0]
	lp := &roundLoop{
		u:           u,
		opts:        opts,
		sched:       newSchedule(u, opts),
		bound:       newRunBound(u, opts),
		algo:        algo,
		k:           k,
		estimates:   make([]float64, k),
		settledR:    make([]int, k),
		loopScratch: sc,
	}
	if sd := algo.scatter; sd != nil {
		sd.Fold = lp.land
		if lp.bound == nil {
			// Tuples land where they land, so counts differ per group:
			// every width is the radius at the group's own count, which for
			// the Hoeffding bound is exactly the shared schedule's ε.
			lp.bound = conc.MustBound(conc.KindHoeffding, u.C, k, opts.Delta, opts.Kappa)
		}
	}
	if lp.bound != nil || algo.plan != nil {
		sc.epsBuf = zeroed(sc.epsBuf, k)
		lp.epsG = sc.epsBuf
	}
	if opts.OnRound != nil {
		sc.traceBuf = zeroed(sc.traceBuf, k)
		lp.traceEps = sc.traceBuf
	}
	lp.sampler = dataset.NewRoundSampler(u, rng.Uint64(), !opts.WithReplacement, opts.Workers, algo.scatter)
	if lp.bound != nil && lp.bound.NeedsMoments() {
		lp.sampler.EnableMoments(true)
	}
	return lp
}

// blockSize returns how many fresh samples each active group draws this
// round under the default plan: the fixed batch (or the BatchAuto
// schedule's block for this round), grown geometrically from the
// cumulative count when RoundGrowth asks for it. Always at least 1.
func (lp *roundLoop) blockSize() int {
	b := lp.opts.BatchSize
	if b == BatchAuto {
		b = autoBatchSize(lp.m)
	}
	if b < 1 {
		b = 1
	}
	if g := lp.opts.RoundGrowth; g > 1 {
		if grown := int(math.Ceil((g - 1) * float64(lp.cum))); grown > b {
			b = grown
		}
	}
	return b
}

// run executes the whole loop — round 1 seeds every group, and rounds go
// on until every group has settled — then assembles the Result. Either
// way it releases the run's draw state and scratch, so the roundLoop must
// not be used afterwards. Only a canceled context fails a run.
func (lp *roundLoop) run() (*Result, error) {
	for i := range lp.active {
		lp.active[i] = true
	}
	lp.numActive = lp.k
	for lp.numActive > 0 {
		if err := lp.opts.interrupted(); err != nil {
			lp.release()
			return nil, err
		}
		lp.m++
		fresh := lp.blockSize()
		if lp.epsG == nil && lp.m > 1 {
			var maxN int64
			if !lp.opts.WithReplacement {
				maxN = maxActiveSize(lp.sizes, lp.active)
			}
			lp.eps = lp.sched.EpsilonN(lp.cum+fresh, maxN) / lp.opts.HeuristicFactor
		}
		lp.drawRound(fresh)
		lp.cum += fresh
		if lp.epsG != nil {
			lp.updateRadii()
		}
		if lp.algo.afterDraws != nil {
			lp.algo.afterDraws(lp)
		}
		if lp.opts.MaxDraws > 0 && lp.sampler.Total() >= lp.opts.MaxDraws {
			// The draw cap is spent, perhaps partway through the round: no
			// group is judged at widths set for blocks the cap cut or
			// skipped. Every group still active settles at the width its
			// own samples support, the seed round included.
			lp.earnedWidth()
			lp.trace()
			lp.capRun()
			break
		}
		if lp.m == 1 && lp.algo.plan == nil {
			// The seed round only draws: one block per group is no
			// interval yet, though its trace shows the width it earned.
			if lp.algo.seedTrace {
				if lp.epsG == nil {
					lp.eps = lp.sched.Epsilon(lp.cum) / lp.opts.HeuristicFactor
				}
				lp.trace()
			}
			continue
		}
		lp.algo.decide(lp)
		lp.trace()
		if lp.opts.MaxRounds > 0 && lp.m >= lp.opts.MaxRounds {
			lp.capRun()
		}
	}
	return lp.result(), nil
}

// capRun ends a capped run: every group still active settles at its live
// width, and the run reports Capped.
func (lp *roundLoop) capRun() {
	if lp.numActive > 0 {
		lp.capped = true
		lp.settleAllRemaining(lp.algo.notifyPartials)
	}
}

// earnedWidth resets a lockstep run's shared ε to the width its
// least-drawn active group has earned: the draw cap may have stopped the
// round short of the count ε was computed for. Per-group radii are taken
// at each group's own count already, and a plan's afterDraws holds a
// batch the cap cut to the width its draws earned.
func (lp *roundLoop) earnedWidth() {
	if lp.epsG != nil || lp.numActive == 0 {
		return
	}
	n := int64(math.MaxInt64)
	for i, a := range lp.active {
		if a {
			n = min(n, lp.sampler.Count(i))
		}
	}
	var maxN int64
	if !lp.opts.WithReplacement {
		maxN = maxActiveSize(lp.sizes, lp.active)
	}
	lp.eps = lp.sched.EpsilonN(int(n), maxN) / lp.opts.HeuristicFactor
}

// updateRadii refreshes the per-group widths after a draw phase: under a
// bound, each active group's radius from its own draw count, population,
// and incrementally maintained moments (a plan keeps its own widths); then
// lp.eps becomes the widest live width — the scalar the tracer,
// Result.FinalEpsilon, and round-cap settles see. Per-group bounds consume
// each group's own n_i directly, where the shared schedule had to feed one
// max_{i∈A} n_i to every group. Only non-settled groups are touched
// (drained ones included: their frozen-in-place intervals still take part
// in other groups' isolation checks).
func (lp *roundLoop) updateRadii() {
	lp.eps = 0
	for i := 0; i < lp.k; i++ {
		if !lp.active[i] {
			continue
		}
		if lp.bound != nil {
			var n int64
			if !lp.opts.WithReplacement {
				n = lp.sizes[i]
			}
			lp.epsG[i] = lp.bound.Radius(int(lp.sampler.Count(i)), n, lp.sampler.MomentsFor(i)) / lp.opts.HeuristicFactor
		}
		lp.eps = max(lp.eps, lp.epsG[i])
	}
}

// drawRound plans and draws one round. The default plan gives every
// active, undrained group one block of fresh samples; a plan hook lays out
// each group's blocks, drawn in phases until no group plans another; a
// scatter layout gives each unit serving an active group one block per
// group it serves.
//
// Planning runs sequentially, in group order — block sizes, exhaustion
// settles, the MaxDraws budget, the only parts that touch cross-group
// state. Without replacement, a group whose remaining population cannot
// cover its block draws what is left, and one that has nothing left
// settles at width zero — its estimate is exact — or, in
// keepExhaustedActive mode, is marked drained. Under MaxDraws, blocks are
// cut to the draws the cap has left, in group order, so a capped run stops
// at the cap exactly.
func (lp *roundLoop) drawRound(fresh int) {
	plan := lp.plan[:0]
	budget := int64(math.MaxInt64)
	if lp.opts.MaxDraws > 0 {
		budget = lp.opts.MaxDraws - lp.sampler.Total()
	}
	take := func(n int) int {
		n = int(max(min(int64(n), budget), 0))
		budget -= int64(n)
		return n
	}
	if sd := lp.algo.scatter; sd != nil {
		per := lp.k / sd.Units
		for u := 0; u < sd.Units; u++ {
			for _, a := range lp.active[u*per : (u+1)*per] {
				if a {
					if n := take(fresh * per); n > 0 {
						plan = append(plan, dataset.Take{I: u, N: n})
					}
					break
				}
			}
		}
		lp.plan = plan
		lp.sampler.DrawRound(plan)
		return
	}
	planned := lp.algo.plan != nil
	lp.drawn = lp.drawn[:0]
	for i := 0; i < lp.k; i++ {
		if !lp.active[i] || lp.drained[i] {
			continue
		}
		left := lp.remaining(i)
		if left == 0 {
			if lp.algo.keepExhaustedActive {
				lp.drained[i] = true
			} else {
				lp.settle(i, 0, lp.algo.notifyPartials)
			}
			continue
		}
		n := fresh
		if planned {
			n = lp.algo.plan(i, 0)
			if m := lp.sampler.MomentsFor(i); m != nil {
				m.Reset()
			}
		}
		if n = take(min(n, left)); n <= 0 {
			continue
		}
		plan = append(plan, dataset.Take{I: i, N: n})
		if planned {
			lp.drawn = append(lp.drawn, 0)
		}
	}
	lp.plan = plan
	lp.phase()
	// A plan may lay out further blocks after seeing each one drawn; each
	// later phase extends the estimate the round's first block began.
	for planned && len(lp.plan) > 0 {
		w := 0
		for j, t := range lp.plan {
			done := lp.drawn[j] + t.N
			if n := take(min(lp.algo.plan(t.I, done), lp.remaining(t.I))); n > 0 {
				lp.drawn[w] = done
				lp.plan[w] = dataset.Take{I: t.I, N: n}
				w++
			}
		}
		lp.plan, lp.drawn = lp.plan[:w], lp.drawn[:w]
		lp.phase()
	}
}

// phase draws the planned takes with one Sampler.DrawRound call and, after
// its barrier, folds each into its group's estimate in group order.
func (lp *roundLoop) phase() {
	lp.sampler.DrawRound(lp.plan)
	for j, t := range lp.plan {
		prev := int(lp.sampler.Count(t.I)) - t.N
		if lp.algo.plan != nil {
			prev = lp.drawn[j]
		}
		lp.fold(t.I, prev, t.N, t.Sum)
	}
}

// land folds a scatter tuple into group i's estimate, count being the
// group's draws with it, while the group is active.
func (lp *roundLoop) land(i int, count int64, v float64) bool {
	if !lp.active[i] {
		return false
	}
	lp.fold(i, int(count)-1, 1, v)
	return true
}

// remaining returns how many more samples group i can take: the rest of
// its population without replacement, unbounded otherwise (or when the
// group's size is unknown).
func (lp *roundLoop) remaining(i int) int {
	if !lp.opts.WithReplacement {
		if sz := lp.sizes[i]; sz > 0 {
			return int(max(sz-lp.sampler.Count(i), 0))
		}
	}
	return math.MaxInt
}

// fold folds n fresh samples summing to sum into group i's estimate, which
// holds prev samples so far. A single sample takes the paper's incremental
// update, bit for bit what the scalar algorithms computed; a block pays
// one division.
func (lp *roundLoop) fold(i, prev, n int, sum float64) {
	nc := prev + n
	if n == 1 {
		lp.estimates[i] = float64(nc-1)/float64(nc)*lp.estimates[i] + sum/float64(nc)
		return
	}
	lp.estimates[i] = (float64(prev)*lp.estimates[i] + sum) / float64(nc)
}

// settle deactivates group i at the given interval half-width.
func (lp *roundLoop) settle(i int, width float64, notify bool) {
	lp.active[i] = false
	lp.settledR[i] = lp.m
	lp.frozenEps[i] = width
	lp.numActive--
	if notify && lp.opts.OnPartial != nil {
		v := lp.estimates[i]
		if lp.algo.display != nil {
			v = lp.algo.display[i]
		}
		lp.opts.OnPartial(i, v, lp.m, width)
	}
}

// reopen reactivates every group for a further stage of the same run —
// MultiAgg's second aggregate. Exhausted groups settle again at the next
// round's planning.
func (lp *roundLoop) reopen() {
	for i := range lp.active {
		lp.active[i] = true
	}
	lp.numActive = lp.k
}

// groupEps returns group i's live radius: the shared ε under the default
// schedule, its own per-group width otherwise, in the units of its
// displayed estimate.
func (lp *roundLoop) groupEps(i int) float64 {
	eps := lp.eps
	if lp.epsG != nil {
		eps = lp.epsG[i]
	}
	if lp.algo.scale != nil {
		eps *= lp.algo.scale[i]
	}
	return eps
}

// width returns group i's current interval half-width: the live radius
// while it is active, the frozen width after it settles.
func (lp *roundLoop) width(i int) float64 {
	if lp.active[i] {
		return lp.groupEps(i)
	}
	return lp.frozenEps[i]
}

// settleIsolated settles the active groups whose intervals have separated,
// each at its own live radius. Under the default schedule all live widths
// equal ε and only active intervals matter — a group that separated from
// every active interval stays separated, because the shared ε only
// shrinks and frozen widths never exceed it. Per-group widths break that
// monotonicity (a wide high-variance interval can straddle a settled
// group's narrow frozen one), so the unequal-width sweep runs over ALL k
// intervals — frozen for settled groups, live for active — and an active
// group settles only when disjoint from every one of them.
func (lp *roundLoop) settleIsolated() {
	lp.actIdx = activeIndices(lp.active, lp.actIdx)
	if lp.epsG == nil {
		lp.sweepEqualWidth(lp.actIdx)
	} else {
		lp.isolatedUnequal()
	}
	for _, i := range lp.actIdx {
		if lp.isolated[i] {
			lp.settle(i, lp.groupEps(i), lp.algo.notifyPartials)
		}
	}
}

// sweepEqualWidth runs the equal-width isolation sweep over indices,
// carrying the sorted order across rounds: settled groups are dropped
// from the carried permutation (settles only ever remove — the active set
// never grows — so the filtered order holds exactly the live indices),
// and the sweep's adaptive insertion sort then repairs the few positions
// that moved instead of re-deriving the permutation every round.
func (lp *roundLoop) sweepEqualWidth(indices []int) {
	carry := false
	if lp.orderFor == orderEqual {
		w := 0
		for _, idx := range lp.orderBuf {
			if lp.active[idx] {
				lp.orderBuf[w] = idx
				w++
			}
		}
		lp.orderBuf = lp.orderBuf[:w]
		carry = w == len(indices)
	}
	lp.orderBuf = isolatedEqualWidth(indices, lp.estimates, lp.eps, lp.isolated, lp.orderBuf, carry)
	lp.orderFor = orderEqual
}

// sweepGeneral runs the general interval sweep over ivs (one interval per
// group, settled ones frozen), carrying the sort-by-lo order across
// rounds. Membership is all k groups every round, so the carried
// permutation stays valid for the whole run once built.
func (lp *roundLoop) sweepGeneral(ivs []interval) {
	carry := lp.orderFor == orderGeneral && len(lp.orderBuf) == len(ivs)
	lp.orderBuf = isolatedGeneral(ivs, lp.isolated, lp.orderBuf, carry)
	lp.orderFor = orderGeneral
}

// isolatedUnequal marks in lp.isolated which groups' intervals
// [est−w_i, est+w_i] (frozen w for settled groups, live radius for
// active) are disjoint from every other group's interval, via the general
// sort-by-lo sweep — per-group widths differ under variance-adaptive
// bounds, so the equal-width neighbour shortcut does not apply.
func (lp *roundLoop) isolatedUnequal() {
	ivs := lp.ivsBuf[:0]
	for i := 0; i < lp.k; i++ {
		w := lp.width(i)
		ivs = append(ivs, interval{lp.estimates[i] - w, lp.estimates[i] + w})
	}
	lp.ivsBuf = ivs
	lp.sweepGeneral(ivs)
}

// resolutionExit applies the Problem 2 relaxation. Under the shared
// schedule every remaining group settles once the one live ε drops below
// r/4. Per-group widths certify the resolution on their own clock: a
// tight (low-variance) group exits while loose ones keep sampling.
func (lp *roundLoop) resolutionExit() {
	if lp.opts.Resolution <= 0 {
		return
	}
	if lp.epsG == nil {
		if lp.eps < lp.opts.Resolution/4 {
			lp.settleAllRemaining(lp.algo.notifyPartials)
		}
		return
	}
	for i := 0; i < lp.k; i++ {
		if lp.active[i] && lp.epsG[i] < lp.opts.Resolution/4 {
			lp.settle(i, lp.epsG[i], lp.algo.notifyPartials)
		}
	}
}

// settleAllRemaining settles every still-active group at its live radius.
func (lp *roundLoop) settleAllRemaining(notify bool) {
	for i := 0; i < lp.k; i++ {
		if lp.active[i] {
			lp.settle(i, lp.groupEps(i), notify)
		}
	}
}

// trace emits one OnRound event for the current round, honoring the
// algorithm's display and flag overrides. The per-group widths are frozen
// for settled groups and the live radius for active ones.
func (lp *roundLoop) trace() {
	if lp.opts.OnRound == nil {
		return
	}
	flags := lp.active
	if lp.algo.traceFlags != nil {
		flags = lp.algo.traceFlags
	}
	est := lp.estimates
	if lp.algo.display != nil {
		est = lp.algo.display
	}
	for i := range lp.traceEps {
		lp.traceEps[i] = lp.width(i)
	}
	lp.opts.OnRound(lp.m, lp.eps, lp.traceEps, flags, est, lp.sampler.Total())
}

// result assembles the common Result shape and releases the run — it must
// be the loop's final use; none of the pooled fields may be touched
// afterwards (every field the Result carries is either freshly allocated
// here or was never pooled).
func (lp *roundLoop) result() *Result {
	est := lp.estimates
	if lp.algo.display != nil {
		est = lp.algo.display
	}
	res := &Result{
		Estimates:    est,
		SampleCounts: append([]int64(nil), lp.sampler.Counts()...),
		TotalSamples: lp.sampler.Total(),
		Rounds:       lp.m,
		SettledRound: lp.settledR,
		FinalEpsilon: lp.eps,
		Capped:       lp.capped,
	}
	lp.release()
	return res
}
