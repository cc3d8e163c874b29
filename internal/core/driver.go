package core

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/conc"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// This file is the shared round driver. Every round-based algorithm in the
// package — IFOCUS and its guarantee variants (trend, chloropleth, top-t,
// values, mistakes), ROUNDROBIN, both SUM estimators, and the first phase
// of MultiAgg — is the same loop with a different settling rule: seed
// every group, then repeatedly (1) poll for cancellation, (2) recompute
// the anytime half-width ε from the cumulative per-group draw count,
// (3) draw a block of fresh samples from every still-active group,
// (4) let the algorithm settle groups whose intervals have separated, and
// (5) run the tracing / partial-result / round-cap bookkeeping. roundLoop
// owns steps 1–3 and 5; a roundAlgo supplies step 4 and a handful of
// behavioral switches.
//
// Batching: with Options.BatchSize = b, step 3 draws b fresh samples per
// group through the dataset layer's block draw path (one dispatch, one
// accounting update, and one running-mean division per block). BatchSize
// ≤ 1 reproduces the paper's one-sample rounds bit for bit, incremental
// running-mean update included — pinned by TestGoldenPins. Such a round
// draws across the groups (Sampler.DrawEach), so the groups' cache misses
// overlap rather than queue one behind the next. Blocks can
// additionally grow geometrically via Options.RoundGrowth. Because the
// anytime schedule is simultaneously valid at every sample count, indexing
// ε by the cumulative draw count keeps the union bound intact at any block
// size; batching only trades bookkeeping frequency for up to one block of
// extra samples per group.
//
// Parallelism: every group owns a deterministic RNG stream derived from
// the run seed and its index (dataset.NewStreamSampler), so a group's
// draws are a pure function of (seed, index, samples taken) and never of
// the order groups are visited. The draw phase of each round can therefore
// fan the per-group block draws across Options.Workers goroutines — the
// paper's guarantees are per group, so draws are independent — while every
// decision that touches cross-group state (settling, the isolation sweep,
// partial-result events) runs after the draw barrier, in deterministic
// group order, exactly as in the sequential loop. Workers=1 and Workers=N
// produce bit-identical results; the invariant is pinned by the
// conformance matrix (conformance_test.go).

// roundAlgo packages what distinguishes one round-based algorithm from
// another.
type roundAlgo struct {
	// decide runs after each round's draws and settles the groups whose
	// intervals have separated (and applies any algorithm-specific exits,
	// e.g. the resolution relaxation or the allowed-mistakes quota).
	decide func(lp *roundLoop)
	// drawOne, when set, replaces the sampler-native draw path (pair
	// draws, normalized draws with auxiliary randomness). Block rounds
	// loop it; accounting must go through sampler.Record inside the hook
	// unless the hook itself draws through the sampler.
	drawOne func(i int) float64
	// afterDraws, when set, runs right after every draw phase (the seed
	// round included) — e.g. the SUM estimator rescaling means into sums.
	afterDraws func(lp *roundLoop)
	// partialVal, when set, supplies the value reported to OnPartial
	// (default: the group's running estimate).
	partialVal func(i int) float64
	// display, when set, is the estimate vector exposed to the tracer and
	// the final Result (default: the running means).
	display []float64
	// traceFlags, when set, is passed to the tracer instead of the live
	// active flags (ROUNDROBIN reports every group as active, as the
	// scalar implementation always did).
	traceFlags []bool
	// seedTrace emits a tracer event for the seed round.
	seedTrace bool
	// fixedMaxN feeds the Serfling term max n_i over all groups instead of
	// the shrinking max over active groups (ROUNDROBIN).
	fixedMaxN bool
	// keepExhaustedActive marks population-exhausted groups as drained —
	// they stop drawing but stay active until decide ends the run
	// (ROUNDROBIN) — instead of settling them.
	keepExhaustedActive bool
	// notifyPartials emits OnPartial events on ordinary settles.
	notifyPartials bool
	// capNotify emits OnPartial events for the groups force-settled by the
	// MaxRounds cap.
	capNotify bool
}

// roundLoop is the shared state of one run.
type roundLoop struct {
	u       *dataset.Universe
	opts    *Options
	sched   *conc.Schedule
	sampler *dataset.Sampler
	algo    roundAlgo

	// bound is the pluggable per-group bound, nil under the default
	// Hoeffding schedule. When set, epsG holds each group's live radius
	// (recomputed after every draw phase from its own count and moments)
	// and every settle decision routes through the general unequal-width
	// interval sweep; lp.eps then tracks the widest live radius for the
	// scalar tracer/result fields.
	bound conc.Bound
	epsG  []float64

	k         int
	estimates []float64 // running means
	active    []bool
	settledR  []int
	frozenEps []float64 // interval half-width at settle time
	isolated  []bool
	actIdx    []int
	drained   []bool // keepExhaustedActive mode: drawing stopped
	numActive int

	m      int // round number
	cum    int // cumulative draws per still-active group
	eps    float64
	capped bool

	workers int         // resolved draw-phase fan-out cap (≤ 1 draws inline)
	drawIdx []int       // groups drawing this round, in index order
	drawN   []int       // matching per-group block sizes
	bufs    [][]float64 // per-worker block draw buffers

	ivsBuf   []interval // scratch for the unequal-width sweep
	orderBuf []int      // the isolation sweeps' sort permutation, carried across rounds
	orderFor int8       // which sweep family orderBuf belongs to
	traceEps []float64  // scratch per-group widths handed to OnRound

	// scratch is the pooled arena behind every per-run buffer above that
	// does not escape into the Result (estimates and settledR do escape and
	// are always freshly allocated). result() returns it to the pool; runs
	// that never reach result() — cancellation, multiagg's phase-1 loop —
	// simply drop it to the GC, which is always correct, just unpooled.
	// The sampler's draw state follows the same rule, except that a
	// canceled run hands it back too (run's error return).
	scratch *loopScratch
}

// loopScratch holds one run's reusable buffers between runs. An engine
// serving a query stream re-runs the round loop constantly with the same
// group counts, so recycling the ~10 per-run slices (and the per-worker
// block buffers, the largest of them) takes the driver's steady-state
// allocation rate to near zero.
type loopScratch struct {
	active    []bool
	isolated  []bool
	drained   []bool
	frozenEps []float64
	epsG      []float64
	traceEps  []float64
	actIdx    []int
	drawIdx   []int
	drawN     []int
	orderBuf  []int
	ivsBuf    []interval
	bufs      [][]float64
}

var loopScratchPool = sync.Pool{New: func() any { return new(loopScratch) }}

// boolScratch returns a zeroed length-k slice reusing buf's storage.
func boolScratch(buf []bool, k int) []bool {
	if cap(buf) < k {
		return make([]bool, k)
	}
	buf = buf[:k]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// f64Scratch returns a zeroed length-k slice reusing buf's storage.
func f64Scratch(buf []float64, k int) []float64 {
	if cap(buf) < k {
		return make([]float64, k)
	}
	buf = buf[:k]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// intScratch returns an empty slice with capacity ≥ k reusing buf's storage.
func intScratch(buf []int, k int) []int {
	if cap(buf) < k {
		return make([]int, 0, k)
	}
	return buf[:0]
}

// release hands the run's draw state and scratch buffers back to their
// pools. The roundLoop must not be used afterwards.
func (lp *roundLoop) release() {
	lp.sampler.Release()
	sc := lp.scratch
	if sc == nil {
		return
	}
	lp.scratch = nil
	// Store back the possibly grown/reallocated slices so the pool keeps
	// the largest incarnation of each buffer.
	sc.active = lp.active
	sc.isolated = lp.isolated
	sc.drained = lp.drained
	sc.frozenEps = lp.frozenEps
	if lp.epsG != nil {
		sc.epsG = lp.epsG
	}
	if lp.traceEps != nil {
		sc.traceEps = lp.traceEps
	}
	sc.actIdx = lp.actIdx
	sc.drawIdx = lp.drawIdx
	sc.drawN = lp.drawN
	sc.orderBuf = lp.orderBuf
	sc.ivsBuf = lp.ivsBuf
	sc.bufs = lp.bufs
	loopScratchPool.Put(sc)
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

// minParallelRoundDraws is the planned draw volume below which a round
// always runs inline: dispatching the pool costs on the order of
// microseconds, so scalar and near-scalar rounds (one block per group,
// tiny blocks) never pay for it.
const minParallelRoundDraws = 1024

// newRoundLoop builds the loop state. opts must already be validated. The
// run's RNG discipline is fixed here: one word is taken from rng and every
// group derives its own stream from it, keyed by group index — so the
// sample a group sees depends only on the seed, the group's position, and
// how many draws it has taken, never on draw interleaving across groups.
func newRoundLoop(u *dataset.Universe, rng *xrand.RNG, opts *Options, algo roundAlgo) *roundLoop {
	k := u.K()
	// Resolve the fan-out cap: Workers=0 sizes it to the machine, and any
	// request is clamped to GOMAXPROCS (goroutines beyond the schedulable
	// parallelism only add handoff cost — the measured 25% workers=8 tax
	// on a single core) and to the group count. Whether a given round
	// actually fans out is decided per round by the volume gate in
	// drawRound.
	maxPar := runtime.GOMAXPROCS(0)
	workers := opts.Workers
	if workers == 0 {
		workers = maxPar
	}
	if workers > maxPar {
		workers = maxPar
	}
	if workers > k {
		workers = k
	}
	sampler := dataset.NewStreamSampler(u, rng.Uint64(), !opts.WithReplacement)
	bound := newRunBound(u, opts)
	// Per-run buffers come from the scratch pool; only estimates and
	// settledR escape into the Result and are always freshly allocated.
	sc := loopScratchPool.Get().(*loopScratch)
	var epsG []float64
	if bound != nil {
		epsG = f64Scratch(sc.epsG, k)
		if bound.NeedsMoments() {
			// Native draws fold straight into the sampler's per-group
			// moments; algorithms with a transform hook (drawOne) observe
			// the transformed values from the draw phase instead, so the
			// moments describe the variable actually being estimated.
			sampler.EnableMoments(algo.drawOne == nil)
		}
	}
	var traceEps []float64
	if opts.OnRound != nil {
		traceEps = f64Scratch(sc.traceEps, k)
	}
	nb := max(1, workers)
	if cap(sc.bufs) < nb {
		grown := make([][]float64, nb)
		copy(grown, sc.bufs)
		sc.bufs = grown
	}
	return &roundLoop{
		u:         u,
		opts:      opts,
		sched:     newSchedule(u, opts),
		sampler:   sampler,
		bound:     bound,
		epsG:      epsG,
		algo:      algo,
		k:         k,
		estimates: make([]float64, k),
		active:    boolScratch(sc.active, k),
		settledR:  make([]int, k),
		frozenEps: f64Scratch(sc.frozenEps, k),
		isolated:  boolScratch(sc.isolated, k),
		actIdx:    intScratch(sc.actIdx, k),
		drained:   boolScratch(sc.drained, k),
		workers:   workers,
		drawIdx:   intScratch(sc.drawIdx, k),
		drawN:     intScratch(sc.drawN, k),
		bufs:      sc.bufs[:nb],
		ivsBuf:    sc.ivsBuf[:0],
		orderBuf:  sc.orderBuf[:0],
		traceEps:  traceEps,
		scratch:   sc,
	}
}

// blockSize returns how many fresh samples each active group draws this
// round: the fixed batch (or the BatchAuto schedule's block for this
// round), grown geometrically from the cumulative count when RoundGrowth
// asks for it. Always at least 1.
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

// run executes the whole loop: seed round, then rounds until every group
// has settled. It returns only the context error.
func (lp *roundLoop) run() error {
	lp.seed()
	for lp.numActive > 0 {
		if err := lp.opts.interrupted(); err != nil {
			lp.sampler.Release()
			return err
		}
		lp.m++
		fresh := lp.blockSize()
		if lp.bound == nil {
			var maxN int64
			if !lp.opts.WithReplacement {
				if lp.algo.fixedMaxN {
					maxN = lp.u.MaxSize()
				} else {
					maxN = maxActiveSize(lp.u, lp.active)
				}
			}
			lp.eps = lp.sched.EpsilonN(lp.cum+fresh, maxN) / lp.opts.HeuristicFactor
		}
		lp.drawRound(fresh)
		lp.cum += fresh
		if lp.bound != nil {
			lp.updateRadii()
		}
		if lp.algo.afterDraws != nil {
			lp.algo.afterDraws(lp)
		}
		lp.algo.decide(lp)
		lp.trace(lp.m, lp.eps)
		if lp.opts.MaxRounds > 0 && lp.m >= lp.opts.MaxRounds && lp.numActive > 0 {
			lp.capped = true
			lp.settleAllRemaining(lp.algo.capNotify)
		}
	}
	return nil
}

// seed runs round 1: every group starts active and draws one block.
func (lp *roundLoop) seed() {
	for i := 0; i < lp.k; i++ {
		lp.active[i] = true
	}
	lp.numActive = lp.k
	lp.m = 1
	fresh := lp.blockSize()
	lp.drawRound(fresh)
	lp.cum = fresh
	if lp.bound != nil {
		lp.updateRadii()
	}
	if lp.algo.afterDraws != nil {
		lp.algo.afterDraws(lp)
	}
	if lp.algo.seedTrace {
		eps := lp.eps
		if lp.bound == nil {
			eps = lp.sched.Epsilon(lp.cum) / lp.opts.HeuristicFactor
		}
		lp.trace(1, eps)
	}
}

// updateRadii recomputes the live per-group radii from each group's own
// draw count, population, and incrementally maintained moments, then
// refreshes lp.eps to the widest live radius — the scalar the tracer,
// Result.FinalEpsilon, and round-cap settles see. Per-group bounds consume
// each group's own n_i directly, where the shared schedule had to feed one
// max_{i∈A} n_i to every group. Only non-settled groups are touched
// (drained ones included: their frozen-in-place intervals still take part
// in other groups' isolation checks).
func (lp *roundLoop) updateRadii() {
	maxEps := 0.0
	for i := 0; i < lp.k; i++ {
		if !lp.active[i] {
			continue
		}
		var n int64
		if !lp.opts.WithReplacement {
			n = lp.u.Groups[i].Size()
		}
		eps := lp.bound.Radius(int(lp.sampler.Count(i)), n, lp.sampler.MomentsFor(i)) / lp.opts.HeuristicFactor
		lp.epsG[i] = eps
		if eps > maxEps {
			maxEps = eps
		}
	}
	lp.eps = maxEps
}

// drawRound draws up to fresh samples from every active, undrained group,
// folding them into the running means. A group whose remaining population
// cannot cover a full block draws what is left; one that has nothing left
// settles at width zero (its running mean is exact) or, in
// keepExhaustedActive mode, is marked drained.
//
// The round is planned sequentially (block sizes, exhaustion settles — the
// only part that mutates cross-group state, kept in deterministic group
// order), then the planned block draws fan across the worker pool. Each
// draw touches only group-owned state: the group's RNG stream and
// permutation, its running mean, a per-worker buffer, and the sampler's
// atomic accounting — so the fan-out needs no locks and the barrier at the
// end of ParallelForWorkers publishes every estimate before decide reads
// them.
func (lp *roundLoop) drawRound(fresh int) {
	lp.drawIdx = lp.drawIdx[:0]
	lp.drawN = lp.drawN[:0]
	for i := 0; i < lp.k; i++ {
		if !lp.active[i] || lp.drained[i] {
			continue
		}
		n := fresh
		if !lp.opts.WithReplacement {
			if sz := lp.u.Groups[i].Size(); sz > 0 {
				remaining := sz - int64(lp.cum)
				if remaining <= 0 {
					if lp.algo.keepExhaustedActive {
						lp.drained[i] = true
					} else {
						lp.settle(i, 0, lp.algo.notifyPartials)
					}
					continue
				}
				if int64(n) > remaining {
					n = int(remaining)
				}
			}
		}
		lp.drawIdx = append(lp.drawIdx, i)
		lp.drawN = append(lp.drawN, n)
	}
	planned := 0
	for _, n := range lp.drawN {
		planned += n
	}
	if lp.workers <= 1 || len(lp.drawIdx) <= 1 || planned < minParallelRoundDraws {
		if planned == len(lp.drawIdx) && lp.algo.drawOne == nil {
			lp.drawScalarRound()
			return
		}
		for j, i := range lp.drawIdx {
			lp.drawGroup(0, i, lp.drawN[j])
		}
		return
	}
	ParallelForWorkers(len(lp.drawIdx), lp.workers, func(w, j int) {
		lp.drawGroup(w, lp.drawIdx[j], lp.drawN[j])
	})
}

// drawScalarRound draws an inline round of one sample per group through
// Sampler.DrawEach, staging values on the stack 64 groups at a time. A
// fanned-out one runs per group through drawGroup, one pipeline step each.
func (lp *roundLoop) drawScalarRound() {
	var vals [64]float64
	for idx := lp.drawIdx; len(idx) > 0; {
		n := min(len(idx), len(vals))
		lp.sampler.DrawEach(idx[:n], vals[:n])
		for j, i := range idx[:n] {
			lp.fold(i, 1, vals[j])
		}
		idx = idx[n:]
	}
}

// drawGroup draws n fresh samples from group i, using worker w's scratch
// buffer, and folds them into the group's running mean.
func (lp *roundLoop) drawGroup(w, i, n int) {
	sum := 0.0
	switch {
	case lp.algo.drawOne != nil:
		for j := 0; j < n; j++ {
			x := lp.algo.drawOne(i)
			lp.sampler.Observe(i, x)
			sum += x
		}
	default:
		// Groups without a kernel (virtual distributions) buffer through
		// the generic block path instead.
		if s, ok := lp.sampler.DrawBlockSum(i, n); ok {
			sum = s
			break
		}
		if cap(lp.bufs[w]) < n {
			lp.bufs[w] = make([]float64, n)
		}
		buf := lp.bufs[w][:n]
		lp.sampler.DrawBatch(i, buf)
		for _, v := range buf {
			sum += v
		}
	}
	lp.fold(i, n, sum)
}

// fold folds n fresh samples summing to sum into group i's running mean.
// A single sample takes the paper's incremental update, bit for bit what
// the scalar algorithms computed; a block pays one division.
func (lp *roundLoop) fold(i, n int, sum float64) {
	prev := lp.cum
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
		if lp.algo.partialVal != nil {
			v = lp.algo.partialVal(i)
		}
		lp.opts.OnPartial(i, v, lp.m, width)
	}
}

// groupEps returns group i's live radius: the shared ε under the default
// schedule, its own per-group radius under a pluggable bound.
func (lp *roundLoop) groupEps(i int) float64 {
	if lp.bound != nil {
		return lp.epsG[i]
	}
	return lp.eps
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
// shrinks and frozen widths never exceed it. Per-group radii break that
// monotonicity (a wide high-variance interval can straddle a settled
// group's narrow frozen one), so the unequal-width sweep runs over ALL k
// intervals — frozen for settled groups, live for active — and an active
// group settles only when disjoint from every one of them, exactly like
// the SUM estimators' and IREFINE's sweeps.
func (lp *roundLoop) settleIsolated() {
	lp.actIdx = activeIndices(lp.active, lp.actIdx)
	if lp.bound == nil {
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
// r/4. Per-group radii certify the resolution on their own clock: a tight
// (low-variance) group exits while loose ones keep sampling — the same
// per-group exit IREFINE-R uses.
func (lp *roundLoop) resolutionExit() {
	if lp.opts.Resolution <= 0 {
		return
	}
	if lp.bound == nil {
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

// trace emits one OnRound event, honoring the algorithm's display and
// flag overrides. The per-group widths are frozen for settled groups and
// the live radius (eps under the default schedule) for active ones.
func (lp *roundLoop) trace(m int, eps float64) {
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
	for i := 0; i < lp.k; i++ {
		switch {
		case !lp.active[i]:
			lp.traceEps[i] = lp.frozenEps[i]
		case lp.bound != nil:
			lp.traceEps[i] = lp.epsG[i]
		default:
			lp.traceEps[i] = eps
		}
	}
	lp.opts.OnRound(m, eps, lp.traceEps, flags, est, lp.sampler.Total())
}

// result assembles the common Result shape and returns the run's scratch
// buffers to the pool — it must be the loop's final use; none of the pooled
// fields may be touched afterwards (every field the Result carries is
// either freshly allocated here or was never pooled).
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
