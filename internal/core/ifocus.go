package core

import (
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// IFocus runs Algorithm 1 of the paper on the given universe and returns
// estimates whose ordering matches the true means with probability at least
// 1−opts.Delta. Setting opts.Resolution > 0 yields IFOCUS-R, the solution to
// Problem 2: sampling stops as soon as the interval half-width drops below
// r/4, and only pairs of means separated by more than r are guaranteed to be
// ordered correctly.
//
// The algorithm proceeds in rounds. Round m=1 seeds every group with one
// block of samples. Each later round takes one fresh block from every
// *active* group (one whose confidence interval still overlaps another
// active group's interval), recomputes the shared anytime half-width ε,
// and deactivates groups whose intervals have separated. Inactive groups
// are never reactivated (paper §3.1, option (a) — required for the
// optimality property). Sampling stops when no active groups remain. With
// opts.BatchSize ≤ 1 the blocks are single samples and the run is
// bit-for-bit the paper's Algorithm 1.
func IFocus(u *dataset.Universe, rng *xrand.RNG, opts Options) (*Result, error) {
	if err := opts.validate(u); err != nil {
		return nil, err
	}
	lp := newRoundLoop(u, rng, &opts, roundAlgo{
		seedTrace:      true,
		notifyPartials: true,
		decide: func(lp *roundLoop) {
			// Deactivate groups whose intervals separated from all other
			// active intervals (Lines 10–12). All active intervals share ε,
			// so the sorted-neighbour sweep applies.
			lp.settleIsolated()
			lp.resolutionExit()
		},
	})
	return lp.run()
}
