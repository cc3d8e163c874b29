package core

import (
	"fmt"

	"repro/internal/conc"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// MultiAgg solves Problem 8 (AVG-AVG-ORDER, §6.3.5): visualize AVG(Y) and
// AVG(Z) simultaneously with both orderings correct with probability 1−δ.
// Per the paper, it runs IFOCUS on Y with budget δ/2 while opportunistically
// accumulating Z estimates from the same tuple draws, then continues
// sampling only the groups whose Z intervals still overlap — warm-started
// from the Z samples already taken, which is where the saving over two
// independent runs comes from. Both stages are one driver run: each group
// is a scatter unit whose pair draws land in the group itself, and when
// the last Y interval settles the run reopens every group on Z.
//
// opts.MaxRounds and opts.MaxDraws bound the two stages together: rounds
// and draws count on from Y into Z. A cap that fires while Y is still
// sampling ends the run there, Capped, without a Z stage, so
// SecondEstimates are then the Z means of the Y stage's tuples alone.
//
// The result carries AVG(Y) in Estimates and AVG(Z) in SecondEstimates.
// Pair draws are with replacement. Every group must implement
// dataset.PairGroup.
func MultiAgg(u *dataset.Universe, rng *xrand.RNG, opts Options) (*RunResult, error) {
	opts.WithReplacement = true
	if err := opts.validate(u); err != nil {
		return nil, err
	}
	k := u.K()
	pairs := make([]dataset.PairGroup, k)
	for i, g := range u.Groups {
		pg, ok := g.(dataset.PairGroup)
		if !ok {
			return nil, fmt.Errorf("core: group %q does not carry a second aggregate attribute", g.Name())
		}
		pairs[i] = pg
	}
	// Both stages run at δ/2 so the union bound covers the pair.
	opts.Delta /= 2

	// other holds the aggregate the driver is not estimating — Z while Y
	// settles, then Y — folded from every tuple by its own running mean.
	// Under a variance-adaptive bound otherMom holds its moments; the
	// sampler's moments follow the driver's aggregate.
	other := make([]float64, k)
	var otherMom []conc.Moments
	if opts.Bound == conc.KindBernstein || opts.Bound == conc.KindBernsteinFinite {
		otherMom = make([]conc.Moments, k)
	}
	onZ := false
	var lp *roundLoop
	lp = newRoundLoop(u, rng, &opts, roundAlgo{
		// Group i's tuples land in group i; the hook touches only group-
		// owned cells, so units draw concurrently.
		scatter: &dataset.Scatter{Units: k, Draw: func(i int, r *xrand.RNG) (int, float64) {
			y, z := pairs[i].DrawPair(r)
			if onZ {
				y, z = z, y
			}
			m := float64(lp.sampler.Count(i) + 1)
			other[i] = (m-1)/m*other[i] + z/m
			if otherMom != nil {
				otherMom[i].Add(z)
			}
			return i, y
		}},
		decide: func(lp *roundLoop) {
			lp.settleIsolated()
			lp.resolutionExit()
			if lp.numActive > 0 || onZ {
				return
			}
			// Every Y interval has settled: continue on Z from the samples
			// already taken. The anytime schedule is valid at every count,
			// so each group's current Z interval is immediately usable.
			onZ = true
			lp.estimates, other = other, lp.estimates
			for i := range otherMom {
				m := lp.sampler.MomentsFor(i)
				*m, otherMom[i] = otherMom[i], *m
			}
			lp.reopen()
			lp.updateRadii()
			lp.settleIsolated()
			lp.resolutionExit()
		},
	})
	res, err := lp.run()
	if err != nil {
		return nil, err
	}
	rr := &RunResult{Result: *res, SecondEstimates: other}
	if onZ {
		rr.Estimates, rr.SecondEstimates = other, res.Estimates
	}
	return rr, nil
}
