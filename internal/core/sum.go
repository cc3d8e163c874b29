package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/xrand"
)

// SumKnownSizes implements IFOCUS–Sum1 (Algorithm 4, §6.3.1): ordering-
// guaranteed estimation of per-group SUMs when the group sizes n_i are
// known. Each group's sum estimate is ν_i = n_i · (running mean), and its
// confidence half-width is the mean's half-width scaled by n_i, so widths
// differ across groups and the general interval-disjointness check is used.
//
// Estimates returned in Result.Estimates are the sums σ_i.
func SumKnownSizes(u *dataset.Universe, rng *xrand.RNG, opts Options) (*Result, error) {
	if err := opts.validate(u); err != nil {
		return nil, err
	}
	for _, g := range u.Groups {
		if g.Size() == 0 {
			return nil, fmt.Errorf("core: SumKnownSizes requires every group size; %q is unknown (use SumUnknownSizes)", g.Name())
		}
	}
	k := u.K()
	sizes := make([]float64, k)
	for i, g := range u.Groups {
		sizes[i] = float64(g.Size())
	}
	sums := make([]float64, k) // ν_i = n_i · mean_i
	ivs := make([]interval, k)
	toSettle := make([]int, 0, k)

	lp := newRoundLoop(u, rng, &opts, roundAlgo{
		notifyPartials: true,
		display:        sums,
		afterDraws: func(lp *roundLoop) {
			// The driver advances the running means; rescale into sums.
			// Settled groups' means are frozen, so recomputing every entry
			// is idempotent for them.
			for i := 0; i < k; i++ {
				sums[i] = sizes[i] * lp.estimates[i]
			}
		},
		decide: func(lp *roundLoop) {
			// Widths differ per group (scaled by n_i — and, under a
			// variance-adaptive bound, per-group mean radii on top), so the
			// general disjointness sweep applies, over frozen widths for
			// settled groups and n_i·ε_i for active ones.
			for i := 0; i < k; i++ {
				w := lp.frozenEps[i]
				if lp.active[i] {
					w = sizes[i] * lp.groupEps(i)
				}
				ivs[i] = interval{sums[i] - w, sums[i] + w}
			}
			lp.sweepGeneral(ivs)
			toSettle = toSettle[:0]
			for i := 0; i < k; i++ {
				if lp.active[i] && lp.isolated[i] {
					toSettle = append(toSettle, i)
				}
			}
			for _, i := range toSettle {
				lp.settle(i, sizes[i]*lp.groupEps(i), true)
			}
			// The resolution r of Problem 2 is interpreted in sum units
			// here: stop once every active group's scaled width is below
			// r/4.
			if opts.Resolution > 0 {
				all := true
				for i := 0; i < k; i++ {
					if lp.active[i] && sizes[i]*lp.groupEps(i) >= opts.Resolution/4 {
						all = false
						break
					}
				}
				if all {
					for i := 0; i < k; i++ {
						if lp.active[i] {
							lp.settle(i, sizes[i]*lp.groupEps(i), true)
						}
					}
				}
			}
		},
	})
	return lp.run()
}

// SumUnknownSizes implements IFOCUS–Sum2 (Algorithm 5, §6.3.1): ordering-
// guaranteed estimation of *normalized* sums σ_i = s_i·µ_i when group sizes
// are unknown. For every value sample x it also draws an unbiased fraction
// estimate z from est (a membership indicator in NEEDLETAIL); x·z is an
// unbiased sample of σ_i in [0, c], so the IFOCUS machinery applies with
// the with-replacement schedule and no knowledge of n_i.
//
// Result.Estimates holds the normalized sums; multiply by the total table
// size, when known, to recover absolute sums.
func SumUnknownSizes(u *dataset.Universe, est dataset.FractionEstimator, rng *xrand.RNG, opts Options) (*Result, error) {
	if est == nil {
		return nil, fmt.Errorf("core: SumUnknownSizes requires a fraction estimator")
	}
	// Sizes are unknown by assumption: force with-replacement mode so the
	// schedule never consults them.
	opts.WithReplacement = true
	if err := opts.validate(u); err != nil {
		return nil, err
	}
	// Each normalized draw needs auxiliary randomness for the membership
	// indicator, so the batched native path does not apply; the driver
	// loops the hook per block instead. The indicator draws from group i's
	// own stream (RNGFor), keeping the hook safe under the parallel draw
	// fan-out and the run worker-invariant.
	var lp *roundLoop
	lp = newRoundLoop(u, rng, &opts, roundAlgo{
		notifyPartials: true,
		drawOne: func(i int) float64 {
			x := lp.sampler.Draw(i)
			z := est.DrawFractionEstimate(i, lp.sampler.RNGFor(i))
			return x * z
		},
		decide: func(lp *roundLoop) {
			lp.settleIsolated()
			lp.resolutionExit()
		},
	})
	return lp.run()
}
