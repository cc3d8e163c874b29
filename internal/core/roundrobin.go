package core

import (
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// RoundRobin is the paper's baseline: conventional round-robin stratified
// sampling, adapted so that it terminates with the same ordering guarantee
// as IFOCUS. Every round takes one block of samples from *every* group —
// contended or not — and the run ends only when no two groups' confidence
// intervals overlap (or, with opts.Resolution > 0 — ROUNDROBIN-R — when
// ε < r/4).
//
// The confidence-interval machinery is identical to IFOCUS; the only
// difference is that sampling is never focused on the contentious groups,
// which is exactly the waste the paper quantifies.
func RoundRobin(u *dataset.Universe, rng *xrand.RNG, opts Options) (*Result, error) {
	if err := opts.validate(u); err != nil {
		return nil, err
	}
	k := u.K()
	all := make([]int, k)
	allFlags := make([]bool, k)
	for i := range all {
		all[i] = i
		allFlags[i] = true
	}
	lp := newRoundLoop(u, rng, &opts, roundAlgo{
		seedTrace: true,
		// Round-robin never narrows its focus: population-exhausted groups
		// merely stop drawing, every group stays active until the run ends
		// — so the Serfling term keeps the global max n_i — and the tracer
		// reports every group as live.
		keepExhaustedActive: true,
		traceFlags:          allFlags,
		decide: func(lp *roundLoop) {
			// Every group stays live until the run ends, so the sweep runs
			// over all k: the neighbour shortcut under the shared ε, the
			// general sweep when per-group radii differ.
			if lp.epsG == nil {
				lp.sweepEqualWidth(all)
			} else {
				lp.isolatedUnequal()
			}
			done := true
			for i := 0; i < k; i++ {
				if !lp.isolated[i] && !lp.drained[i] {
					done = false
					break
				}
			}
			if lp.opts.Resolution > 0 && lp.eps < lp.opts.Resolution/4 {
				done = true
			}
			if done {
				lp.settleAllRemaining(false)
			}
		},
	})
	return lp.run()
}
