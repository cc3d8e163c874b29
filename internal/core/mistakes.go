package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/xrand"
)

// WithMistakes solves Problem 5 (AVG-ORDER-MISTAKES): the analyst accepts
// that up to a (1−gamma) fraction of the pairwise comparisons may be wrong,
// in exchange for faster termination. The algorithm is IFOCUS with one
// extra exit: after each round it counts the pairs whose relative order is
// already certain — pairs whose confidence intervals (frozen for settled
// groups, live for active ones) are disjoint — and stops as soon as that
// fraction reaches gamma, abandoning the hardest comparisons.
//
// gamma = 1 requires every pair certain, which is plain IFOCUS.
func WithMistakes(u *dataset.Universe, rng *xrand.RNG, gamma float64, opts Options) (*Result, error) {
	if gamma <= 0 || gamma > 1 {
		return nil, fmt.Errorf("core: mistake threshold gamma must be in (0,1], got %v", gamma)
	}
	if err := opts.validate(u); err != nil {
		return nil, err
	}
	k := u.K()
	totalPairs := k * (k - 1) / 2
	if totalPairs == 0 {
		return IFocus(u, rng, opts)
	}
	needed := int(float64(totalPairs) * gamma)

	// certainPairs counts pairs whose intervals (frozen for settled groups,
	// live for active ones) are disjoint right now.
	certainPairs := func(lp *roundLoop) int {
		certain := 0
		for i := 0; i < k; i++ {
			wi := lp.width(i)
			for j := i + 1; j < k; j++ {
				wj := lp.width(j)
				lo1, hi1 := lp.estimates[i]-wi, lp.estimates[i]+wi
				lo2, hi2 := lp.estimates[j]-wj, lp.estimates[j]+wj
				if hi1 < lo2 || hi2 < lo1 {
					certain++
				}
			}
		}
		return certain
	}

	lp := newRoundLoop(u, rng, &opts, roundAlgo{
		notifyPartials: true,
		decide: func(lp *roundLoop) {
			lp.settleIsolated()
			lp.resolutionExit()
			if lp.numActive > 0 && certainPairs(lp) >= needed {
				// Quota met: abandon the remaining contended groups at their
				// current estimates (their pairs are the permitted mistakes,
				// so no partial-result notification fires for them).
				lp.settleAllRemaining(false)
			}
		},
	})
	return lp.run()
}
