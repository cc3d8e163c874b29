package core

import (
	"repro/internal/conc"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// IRefine runs Algorithm 3 of the paper: an interval-halving alternative to
// IFOCUS built on the plain Chernoff–Hoeffding bound. Each group maintains an
// estimate with half-width ε_i and failure budget δ_i; while any group's
// interval overlaps another's, every still-active group halves both (ε_i/2,
// δ_i/2) and re-estimates its mean from a fresh batch of
// c²/(2ε_i²)·ln(2/δ_i) samples (EstimateMean, Algorithm 2). Correct with
// probability 1−δ but aggressive: its sample complexity carries a log(1/η)
// factor where IFOCUS pays only log log(1/η), so it is provably non-optimal
// (Theorem 3.10).
//
// Setting opts.Resolution > 0 yields IREFINE-R, which stops refining a group
// once its interval half-width drops below r/4.
//
// With opts.Bound set to an empirical-Bernstein kind, each re-estimation
// becomes variance-adaptive: instead of committing to the Hoeffding batch
// size up front, the group draws geometrically growing blocks and stops as
// soon as the empirical-Bernstein radius certifies the target width — far
// earlier for low-spread groups.
//
// IREFINE runs on the round driver as a per-group plan: one driver round is
// one halving, each group's batch (or Bernstein blocks) is its plan, and
// every round's batch starts a fresh estimate. A batch that reaches the end
// of a group without replacement leaves the group's exact mean at width 0.
// A batch the draw cap cuts short holds the Hoeffding width its n draws
// earned at δ_i (the whole domain, c, for a group that never drew); a
// group the cap stops before this round's batch keeps its previous
// estimate and width.
func IRefine(u *dataset.Universe, rng *xrand.RNG, opts Options) (*Result, error) {
	if err := opts.validate(u); err != nil {
		return nil, err
	}
	k := u.K()
	adaptive := opts.Bound == conc.KindBernstein || opts.Bound == conc.KindBernsteinFinite
	// The widths are IREFINE's own halving ε_i, never a bound's radius, so
	// the loop runs without one; the Bernstein certificate reads the
	// sampler's moments of the current batch.
	plain := opts
	plain.Bound = conc.KindHoeffding
	deltas := make([]float64, k)
	blocks := make([]int, k)  // Bernstein blocks drawn this round
	start := make([]int64, k) // draws before this round's batch
	done := make([]bool, k)   // this round's batch reached its target
	var lp *roundLoop
	lp = newRoundLoop(u, rng, &plain, roundAlgo{
		notifyPartials: true,
		// An exhausted group keeps its exact mean at width 0 and stays in
		// play until its interval clears the others'.
		keepExhaustedActive: true,
		plan: func(i, drawn int) int {
			eps, c := lp.epsG[i], u.C
			if drawn == 0 {
				// Halve the target width and failure budget, then
				// re-estimate (Lines 8–9). The heuristic factor lets the
				// Figure 5 experiments shrink faster than theory allows.
				start[i], done[i] = lp.sampler.Count(i), false
				eps /= 2
				lp.epsG[i] = eps
				deltas[i] /= 2
				blocks[i] = 0
				if !adaptive {
					return conc.HoeffdingSampleSize(c, eps*opts.HeuristicFactor, deltas[i])
				}
			} else {
				if lp.remaining(i) == 0 {
					// The whole population has been drawn: the mean is known.
					lp.estimates[i] = exactMean(u.Groups[i])
					lp.epsG[i], done[i] = 0, true
					return 0
				}
				if !adaptive {
					done[i] = drawn >= conc.HoeffdingSampleSize(c, eps*opts.HeuristicFactor, deltas[i])
					return 0
				}
				// The stopping rule peeks at the data, so the budget is
				// spread over the checkpoints as δ/(j(j+1)), a series
				// summing to δ: the certificate holds wherever it stops.
				j := blocks[i]
				mom := lp.sampler.MomentsFor(i)
				if conc.EBRadius(c, drawn, mom.Variance(), deltas[i]/float64(j*(j+1))) <= eps*opts.HeuristicFactor {
					lp.estimates[i] = mom.Mean
					done[i] = true
					return 0
				}
			}
			// Blocks grow as the BatchAuto schedule does: 64, doubling, to
			// 4096.
			blocks[i]++
			return autoBatchSize(blocks[i])
		},
		afterDraws: func(lp *roundLoop) {
			// Only the draw cap leaves a batch short of its target. A group
			// it stopped before the batch began keeps last round's estimate
			// and width, twice this round's target.
			for i := 0; i < k; i++ {
				if !lp.active[i] || lp.drained[i] || done[i] {
					continue
				}
				if n := int(lp.sampler.Count(i) - start[i]); n == 0 && start[i] > 0 {
					lp.epsG[i] *= 2
				} else {
					lp.epsG[i] = conc.HoeffdingRadius(u.C, n, deltas[i]) / opts.HeuristicFactor
				}
			}
			lp.updateRadii()
		},
		decide: func(lp *roundLoop) {
			// Deactivate groups whose intervals no longer intersect any
			// other group's interval (Line 10), or — IREFINE-R — whose
			// width fell below r/4.
			lp.settleIsolated()
			lp.resolutionExit()
			// Exact means that still touch (ties) cannot refine further.
			for i := 0; i < k; i++ {
				if lp.active[i] && !lp.drained[i] {
					return
				}
			}
			lp.settleAllRemaining(true)
		},
	})
	if adaptive {
		lp.sampler.EnableMoments(true)
	}
	// Initialization (Lines 1–4): the whole domain is the first interval.
	for i := 0; i < k; i++ {
		lp.epsG[i] = u.C / 2
		deltas[i] = opts.Delta / (2 * float64(k))
	}
	return lp.run()
}

// exactMean recomputes the exact mean of a fully consumed group, reached
// when a without-replacement batch runs to the end of the population.
func exactMean(g dataset.Group) float64 {
	if sc, ok := g.(dataset.Scannable); ok {
		sum := 0.0
		n := sc.Scan(func(v float64) { sum += v })
		return sum / float64(n)
	}
	return g.TrueMean()
}
