package core

import (
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// Trend solves Problem 3 (AVG-ORDER-TRENDS): when the x-axis is ordinal
// (e.g. time) only *adjacent* pairs of groups need to be ordered correctly,
// which is the guarantee a trend line or chloropleth needs. The algorithm is
// IFOCUS with the activity criterion relaxed: a group stays active only
// while its confidence interval overlaps the interval of a neighbouring
// group (i−1 or i+1). Inactive neighbours contribute their frozen intervals,
// so a late-settling group still cannot cross a settled neighbour.
//
// The effective hardness drops from η_i = min over all groups to
// η*_i = min(τ_{i−1,i}, τ_{i,i+1}), typically a large saving when many
// non-adjacent groups have similar means.
func Trend(u *dataset.Universe, rng *xrand.RNG, opts Options) (*Result, error) {
	if err := opts.validate(u); err != nil {
		return nil, err
	}
	k := u.K()
	toSettle := make([]int, 0, k)
	lp := newRoundLoop(u, rng, &opts, roundAlgo{
		notifyPartials: true,
		decide: func(lp *roundLoop) {
			// Snapshot the groups to settle before settling any, so settle
			// order within the round cannot change the neighbour checks.
			toSettle = toSettle[:0]
			for i := 0; i < k; i++ {
				line := [2]int{i - 1, i + 1}
				if lp.active[i] && !neighbourOverlap(lp, i, line[:]) {
					toSettle = append(toSettle, i)
				}
			}
			for _, i := range toSettle {
				lp.settle(i, lp.groupEps(i), true)
			}
			lp.resolutionExit()
		},
	})
	return lp.run()
}

// neighbourOverlap reports whether group i's interval overlaps any listed
// neighbour's interval (frozen widths for settled neighbours, the live ε
// for active ones). Out-of-range neighbour indices are skipped, so line
// graphs can pass {i−1, i+1} unconditionally.
func neighbourOverlap(lp *roundLoop, i int, neighbours []int) bool {
	wi := lp.width(i)
	iv := interval{lp.estimates[i] - wi, lp.estimates[i] + wi}
	for _, j := range neighbours {
		if j < 0 || j >= lp.k {
			continue
		}
		wj := lp.width(j)
		if iv.overlaps(interval{lp.estimates[j] - wj, lp.estimates[j] + wj}) {
			return true
		}
	}
	return false
}
