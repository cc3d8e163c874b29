package core

import (
	"math"
	"runtime"
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
// What a round draws comes from one of two hooks, or the default:
//   - the default plan draws one block per active group — BatchSize
//     samples, the BatchAuto block for the round, or the RoundGrowth block
//     — and folds it into the group's running mean;
//   - a per-group plan (IREFINE) lays out each group's blocks itself, one
//     or more per round, and may start a fresh estimate from the round's
//     first block instead of extending the running mean;
//   - a scatter draw (NOINDEX, multiple group-by, multiple aggregates)
//     draws from units that cannot target a group: every tuple a unit draws
//     lands in the group it reveals.
//
// Batching: BatchSize ≤ 1 reproduces the paper's one-sample rounds bit for
// bit, incremental running-mean update included — pinned by TestGoldenPins.
// Such a round draws across the groups (Sampler.DrawEach), so the groups'
// cache misses overlap rather than queue one behind the next. Because the
// anytime schedule is simultaneously valid at every sample count, indexing
// ε by each group's own draw count keeps the union bound intact at any
// block size; batching only trades bookkeeping frequency for up to one
// block of extra samples per group.
//
// Parallelism: every group owns a deterministic RNG stream derived from
// the run seed and its index (dataset.NewStreamSampler), and a scatter
// unit draws on the stream of its first group, so a group's draws are a
// pure function of (seed, index, samples taken) and never of the order
// groups are visited. The draw phase of each round can therefore fan the
// per-group (or per-unit) draws across Options.Workers goroutines, while
// every decision that touches cross-group state (planning, settling, the
// isolation sweep, partial-result events) runs before or after the draw
// barrier, in deterministic group order. Workers=1 and Workers=N produce
// bit-identical results; the conformance matrix (conformance_test.go) and
// FuzzRun pin it.

// roundAlgo packages what distinguishes one round-based algorithm from
// another.
type roundAlgo struct {
	// decide runs after each round's draws and settles the groups whose
	// intervals have separated (and applies any algorithm-specific exits,
	// e.g. the resolution relaxation or the allowed-mistakes quota).
	decide func(lp *roundLoop)
	// plan, when set, replaces the default block: it returns group i's
	// next block this round, given the drawn samples the group already
	// took this round (0 ends the group's round), and — on the round's
	// first call — whether the round starts a fresh estimate, the mean of
	// this round's draws alone, instead of extending the running mean. A
	// planned run decides from round 1 on, and keeps per-group widths in
	// epsG, which the plan maintains itself.
	plan func(i, drawn int) (n int, fresh bool)
	// scatter, when set, replaces per-group draws with draw units whose
	// tuples land in the groups they reveal. Scatter runs take per-group
	// radii at each group's own count.
	scatter *scatter
	// drawOne, when set, replaces the sampler-native draw path (normalized
	// draws with auxiliary randomness). Block rounds loop it; accounting
	// must go through sampler.Record inside the hook unless the hook itself
	// draws through the sampler.
	drawOne func(i int) float64
	// afterDraws, when set, runs right after every draw phase (the seed
	// round included) — e.g. the SUM estimator rescaling means into sums.
	afterDraws func(lp *roundLoop)
	// display, when set, is the estimate vector exposed to the tracer,
	// OnPartial and the final Result (default: the running means).
	display []float64
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

// scatter lays out the draws of an algorithm that cannot target a group:
// units draw whole tuples, each landing in the group it reveals. Unit u
// serves groups [u·k/units, (u+1)·k/units) and draws while any of them is
// active, one block per group it serves each round, on the stream of its
// first group. Every landed tuple counts towards its group's SampleCounts;
// only active groups fold it into their estimate. Scatter draws are with
// replacement.
type scatter struct {
	units int
	// draw takes one tuple from unit u on r and returns the group it
	// lands in and its value. Units may draw concurrently, so draw may
	// touch only state owned by u's groups.
	draw func(u int, r *xrand.RNG) (group int, v float64)
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
	active    []bool
	settledR  []int
	frozenEps []float64 // interval half-width at settle time
	isolated  []bool
	actIdx    []int
	drained   []bool // keepExhaustedActive mode: drawing stopped
	numActive int

	m      int // round number
	cum    int // cumulative default blocks per still-active group
	eps    float64
	capped bool

	workers int   // resolved draw-phase fan-out cap (≤ 1 draws inline)
	drawIdx []int // groups (scatter: units) drawing this phase, in index order
	drawN   []int // matching block sizes

	ivsBuf   []interval // scratch for the unequal-width sweep
	orderBuf []int      // the isolation sweeps' sort permutation, carried across rounds
	orderFor int8       // which sweep family orderBuf belongs to
	traceEps []float64  // scratch per-group widths handed to OnRound

	// scratch is the pooled arena behind every per-run buffer above that
	// does not escape into the Result (estimates and settledR do escape and
	// are always freshly allocated), and home to the plan runs' per-block
	// bookkeeping. release returns it, with the sampler's draw state,
	// exactly once per run: at the end of run, on success or cancellation.
	scratch *loopScratch
}

// loopScratch holds one run's reusable buffers between runs. An engine
// serving a query stream re-runs the round loop constantly with the same
// group counts, so recycling the per-run slices takes the driver's
// steady-state allocation rate to near zero.
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

	// Plan runs, per planned block: the samples in the group's estimate
	// before it, and the samples the group drew this round before it.
	drawPrev []int
	drawDone []int
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
	// drawPhase.
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
	if bound == nil && algo.scatter != nil {
		// Tuples land where they land, so counts differ per group: every
		// width is the radius at the group's own count, which for the
		// Hoeffding bound is exactly the shared schedule's ε.
		bound = conc.MustBound(conc.KindHoeffding, u.C, k, opts.Delta, opts.Kappa)
	}
	// Per-run buffers come from the scratch pool; only estimates and
	// settledR escape into the Result and are always freshly allocated.
	sc := loopScratchPool.Get().(*loopScratch)
	var epsG []float64
	if bound != nil || algo.plan != nil {
		epsG = f64Scratch(sc.epsG, k)
	}
	if bound != nil && bound.NeedsMoments() {
		// Native draws fold straight into the sampler's per-group moments;
		// algorithms with a transform hook (drawOne) or scatter draws
		// observe the values they fold instead, so the moments describe
		// the variable actually being estimated.
		sampler.EnableMoments(algo.drawOne == nil)
	}
	var traceEps []float64
	if opts.OnRound != nil {
		traceEps = f64Scratch(sc.traceEps, k)
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
		ivsBuf:    sc.ivsBuf[:0],
		orderBuf:  sc.orderBuf[:0],
		traceEps:  traceEps,
		scratch:   sc,
	}
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
				maxN = maxActiveSize(lp.u, lp.active)
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
			lp.trace(lp.eps)
			lp.capRun()
			break
		}
		if lp.m == 1 && lp.algo.plan == nil {
			// The seed round only draws: one block per group is no
			// interval yet.
			if lp.algo.seedTrace {
				eps := lp.eps
				if lp.epsG == nil {
					eps = lp.sched.Epsilon(lp.cum) / lp.opts.HeuristicFactor
				}
				lp.trace(eps)
			}
			continue
		}
		lp.algo.decide(lp)
		lp.trace(lp.eps)
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
// at each group's own count already; a plan's widths are its own targets.
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
		maxN = maxActiveSize(lp.u, lp.active)
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
				n = lp.u.Groups[i].Size()
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
// state — and each planned phase then fans across the worker pool (see
// drawPhase). Without replacement, a group whose remaining population
// cannot cover its block draws what is left, and one that has nothing left
// settles at width zero — its estimate is exact — or, in
// keepExhaustedActive mode, is marked drained. Under MaxDraws, blocks are
// cut to the draws the cap has left, in group order, so a capped run stops
// at the cap exactly.
func (lp *roundLoop) drawRound(fresh int) {
	lp.drawIdx = lp.drawIdx[:0]
	lp.drawN = lp.drawN[:0]
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
		per := lp.k / sd.units
		for u := 0; u < sd.units; u++ {
			for _, a := range lp.active[u*per : (u+1)*per] {
				if a {
					if n := take(fresh * per); n > 0 {
						lp.drawIdx = append(lp.drawIdx, u)
						lp.drawN = append(lp.drawN, n)
					}
					break
				}
			}
		}
		lp.drawPhase()
		return
	}
	planned, sc := lp.algo.plan != nil, lp.scratch
	if planned {
		sc.drawPrev, sc.drawDone = sc.drawPrev[:0], sc.drawDone[:0]
	}
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
		n, prev := fresh, 0
		if planned {
			var restart bool
			if n, restart = lp.algo.plan(i, 0); !restart {
				prev = int(lp.sampler.Count(i))
			} else if m := lp.sampler.MomentsFor(i); m != nil {
				m.Reset()
			}
		}
		if n = take(min(n, left)); n <= 0 {
			continue
		}
		lp.drawIdx = append(lp.drawIdx, i)
		lp.drawN = append(lp.drawN, n)
		if planned {
			sc.drawPrev = append(sc.drawPrev, prev)
			sc.drawDone = append(sc.drawDone, 0)
		}
	}
	lp.drawPhase()
	// A plan may lay out further blocks after seeing each one drawn; each
	// later phase extends the estimate the round's first block began.
	for planned && len(lp.drawIdx) > 0 {
		w := 0
		for j, i := range lp.drawIdx {
			done := sc.drawDone[j] + lp.drawN[j]
			n, _ := lp.algo.plan(i, done)
			if n = take(min(n, lp.remaining(i))); n <= 0 {
				continue
			}
			sc.drawPrev[w] = sc.drawPrev[j] + lp.drawN[j]
			sc.drawDone[w] = done
			lp.drawIdx[w], lp.drawN[w] = i, n
			w++
		}
		lp.drawIdx, lp.drawN = lp.drawIdx[:w], lp.drawN[:w]
		sc.drawPrev, sc.drawDone = sc.drawPrev[:w], sc.drawDone[:w]
		lp.drawPhase()
	}
}

// remaining returns how many more samples group i can take: the rest of
// its population without replacement, unbounded otherwise (or when the
// group's size is unknown).
func (lp *roundLoop) remaining(i int) int {
	if !lp.opts.WithReplacement {
		if sz := lp.u.Groups[i].Size(); sz > 0 {
			return int(max(sz-lp.sampler.Count(i), 0))
		}
	}
	return math.MaxInt
}

// drawPhase draws the planned blocks. Each draw touches only group-owned
// state — the group's RNG stream, permutation and draw scratch, its
// running mean, and the sampler's atomic accounting — so the fan-out needs
// no locks and the barrier at the end of ParallelFor publishes every
// estimate before decide reads them.
func (lp *roundLoop) drawPhase() {
	planned := 0
	for _, n := range lp.drawN {
		planned += n
	}
	if lp.workers <= 1 || len(lp.drawIdx) <= 1 || planned < minParallelRoundDraws {
		if planned == len(lp.drawIdx) && lp.algo.drawOne == nil && lp.algo.plan == nil && lp.algo.scatter == nil {
			lp.drawScalarRound()
			return
		}
		for j := range lp.drawIdx {
			lp.drawBlock(j)
		}
		return
	}
	ParallelFor(len(lp.drawIdx), lp.workers, lp.drawBlock)
}

// drawScalarRound draws an inline round of one sample per group through
// Sampler.DrawEach, staging values on the stack 64 groups at a time. A
// fanned-out one runs per group through drawBlock, one pipeline step each.
func (lp *roundLoop) drawScalarRound() {
	var vals [64]float64
	for idx := lp.drawIdx; len(idx) > 0; {
		n := min(len(idx), len(vals))
		lp.sampler.DrawEach(idx[:n], vals[:n])
		for j, i := range idx[:n] {
			lp.fold(i, int(lp.sampler.Count(i))-1, 1, vals[j])
		}
		idx = idx[n:]
	}
}

// drawBlock draws the j-th planned block and folds it into the group's
// estimate.
func (lp *roundLoop) drawBlock(j int) {
	i, n := lp.drawIdx[j], lp.drawN[j]
	if lp.algo.scatter != nil {
		lp.drawUnit(i, n)
		return
	}
	sum := 0.0
	switch {
	case lp.algo.drawOne != nil:
		for t := 0; t < n; t++ {
			x := lp.algo.drawOne(i)
			lp.sampler.Observe(i, x)
			sum += x
		}
	default:
		sum, _ = lp.sampler.DrawBlockSum(i, n)
	}
	prev := int(lp.sampler.Count(i)) - n
	if lp.algo.plan != nil {
		prev = lp.scratch.drawPrev[j]
	}
	lp.fold(i, prev, n, sum)
}

// drawUnit draws n tuples from scatter unit u, each recorded for the
// group it lands in and folded into that group's estimate while the group
// is active.
func (lp *roundLoop) drawUnit(u, n int) {
	sc := lp.algo.scatter
	s, active := lp.sampler, lp.active
	r := s.RNGFor(u * (lp.k / sc.units))
	s.AddTotal(int64(n))
	for ; n > 0; n-- {
		i, v := sc.draw(u, r)
		c := s.Land(i)
		if active[i] {
			s.Observe(i, v)
			lp.fold(i, int(c)-1, 1, v)
		}
	}
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
// schedule, its own per-group width otherwise.
func (lp *roundLoop) groupEps(i int) float64 {
	if lp.epsG != nil {
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
// for settled groups and the live radius (eps under the default schedule)
// for active ones.
func (lp *roundLoop) trace(eps float64) {
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
		case lp.epsG != nil:
			lp.traceEps[i] = lp.epsG[i]
		default:
			lp.traceEps[i] = eps
		}
	}
	lp.opts.OnRound(lp.m, eps, lp.traceEps, flags, est, lp.sampler.Total())
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
