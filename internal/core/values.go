package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/xrand"
)

// WithValues solves Problem 6 (AVG-ORDER-ACTUAL): in addition to the
// ordering guarantee, every returned estimate must satisfy |ν_i − µ_i| ≤ d
// with probability at least 1−δ. Per §6.2.1 the algorithm is IFOCUS with a
// minimum-sampling requirement: a group may not settle until the confidence
// half-width has dropped to d/2 or below, so its interval — which contains
// µ_i with the required probability — certifies the value bound. The sample
// complexity matches Theorem 3.6 with η_i replaced by min(η_i, d/2).
func WithValues(u *dataset.Universe, rng *xrand.RNG, d float64, opts Options) (*Result, error) {
	if d <= 0 {
		return nil, fmt.Errorf("core: value bound d must be positive, got %v", d)
	}
	if err := opts.validate(u); err != nil {
		return nil, err
	}
	lp := newRoundLoop(u, rng, &opts, roundAlgo{
		notifyPartials: true,
		decide: func(lp *roundLoop) {
			// A group settles only when isolated AND its interval is tight
			// enough to certify the value bound (ε ≤ d/2 ⇒ |ν−µ| ≤ d/2 ≤ d).
			if lp.bound == nil {
				if lp.eps > d/2 {
					return
				}
				lp.settleIsolated()
				// Resolution relaxation still applies to the ordering half
				// of the guarantee; the value half is already certified
				// here.
				lp.resolutionExit()
				return
			}
			// Per-group radii certify the value bound per group: a group
			// may settle — whether by isolation from all k intervals
			// (frozen ones included) or by the resolution relaxation —
			// only once its own interval has tightened to d/2, while
			// wider groups keep sampling.
			lp.actIdx = activeIndices(lp.active, lp.actIdx)
			lp.isolatedUnequal()
			for _, i := range lp.actIdx {
				w := lp.groupEps(i)
				if w > d/2 {
					continue
				}
				if lp.isolated[i] || (opts.Resolution > 0 && w < opts.Resolution/4) {
					lp.settle(i, w, true)
				}
			}
		},
	})
	return lp.run()
}
