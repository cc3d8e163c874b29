package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/xrand"
)

// NoIndex solves Problem 9 (AVG-ORDER-NOINDEX, §6.3.6): ordering-guaranteed
// estimation when the table has no index on the group-by attribute, so the
// only available operation is drawing a uniformly random tuple from the
// whole table, which reveals its group and value. Each round draws k
// blocks' worth of tuples (the driver's block schedule, times k); every
// tuple lands in some group and refines that group's running mean. Group
// i's anytime confidence interval uses its own sample count m_i, and a
// group settles once its interval is disjoint from every other group's
// (or, with opts.Resolution > 0, once it is narrower than r/4). Tuples
// that land in a settled group are still paid for — they count in
// SampleCounts — but no longer move its estimate.
//
// Tuples are drawn with replacement, and u's group sizes must be known:
// a random tuple belongs to group i with probability n_i / Σ n_j. Values
// are read through the run's Sampler. opts.MaxDraws caps the table draws;
// the cap voids the guarantee and is reported via Capped.
//
// As the paper notes, when groups are near-equal in size this behaves like
// a round-robin scheme that cannot skip settled groups, which is exactly
// the cost of having no index.
func NoIndex(u *dataset.Universe, rng *xrand.RNG, opts Options) (*Result, error) {
	opts.WithReplacement = true
	if err := opts.validate(u); err != nil {
		return nil, err
	}
	total := u.TotalSize()
	if total == 0 {
		return nil, fmt.Errorf("core: the no-index algorithm needs known group sizes to simulate table-wide tuple sampling")
	}
	cum := make([]float64, u.K())
	run := 0.0
	for i, g := range u.Groups {
		run += float64(g.Size()) / float64(total)
		cum[i] = run
	}
	var lp *roundLoop
	lp = newRoundLoop(u, rng, &opts, roundAlgo{
		notifyPartials: true,
		// One unit, the whole table: a tuple picks its group by size.
		scatter: &scatter{units: 1, draw: func(_ int, r *xrand.RNG) (int, float64) {
			x := r.Float64()
			i := 0
			for i < len(cum)-1 && x >= cum[i] {
				i++
			}
			return i, lp.sampler.DrawUsing(i, r)
		}},
		decide: func(lp *roundLoop) {
			lp.settleIsolated()
			lp.resolutionExit()
		},
	})
	return lp.run()
}
