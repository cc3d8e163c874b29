package core

import (
	"fmt"

	"repro/internal/conc"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// CellSource models the multiple-group-by setting of §6.3.4 with an index
// on X only: the visualization groups by (X, Z), but the engine can only
// target samples by X. Drawing from stratum x returns a random tuple's Z
// value alongside its Y value, so each draw lands in one (x, z) cell.
type CellSource interface {
	// NumX returns the number of indexable strata (values of X).
	NumX() int
	// NumZ returns the number of values of the unindexed attribute Z.
	NumZ() int
	// C bounds every Y value: all values lie in [0, C].
	C() float64
	// Draw samples one random tuple from stratum x, returning its z and y.
	Draw(x int, r *xrand.RNG) (z int, y float64)
}

// MultiGroupBy solves §6.3.4: ordering-guaranteed estimation of the cells
// of GROUP BY X, Z when only X is indexed. Cell (x, z) is group x·NumZ+z of
// the run. Each stratum is a scatter unit: every round it draws one block
// per cell it serves, each tuple refining whichever of its cells it lands
// in, and it stays active as long as *some* cell (x, z) still has a
// confidence interval overlapping another cell's interval. Cell intervals
// use the per-cell sample count under the anytime schedule, so the union
// bound covers all NumX×NumZ cells; a cell never observed keeps the whole
// domain as its interval.
//
// The result carries every cell, flattened row-major, and the per-cell
// views in CellEstimates and CellCounts. opts.MaxDraws caps the total
// draws. As the paper notes, the sample complexity exceeds the
// jointly-indexed case because a stratum keeps paying for its
// already-settled cells while any one cell is contended.
func MultiGroupBy(src CellSource, rng *xrand.RNG, opts Options) (*RunResult, error) {
	kx, kz := src.NumX(), src.NumZ()
	if kx <= 0 || kz <= 0 {
		return nil, fmt.Errorf("core: multi-group-by needs positive strata and cell counts")
	}
	if kind, err := conc.ParseKind(string(opts.Bound)); err != nil {
		return nil, err
	} else if kind != conc.KindHoeffding {
		// Cells are discovered as tuples land, so there is no per-cell
		// moment accounting to feed a variance-adaptive bound yet; reject
		// rather than silently running the default schedule.
		return nil, fmt.Errorf("core: multiple group-by supports the default %s bound only, got %s", conc.KindHoeffding, kind)
	}
	// The cells stand in as the run's groups; tuples come from the source,
	// never from these placeholders.
	cells := make([]dataset.Group, kx*kz)
	for i := range cells {
		cells[i] = dataset.NewDistGroup(fmt.Sprintf("%d/%d", i/kz, i%kz), nil, 1)
	}
	u := dataset.NewUniverse(src.C(), cells...)
	opts.WithReplacement = true
	if err := opts.validate(u); err != nil {
		return nil, err
	}
	bad := make([]error, kx) // per stratum, so strata may draw concurrently
	// Cells settle without OnPartial events: the public partial stream is
	// indexed by the query's groups, which are strata here.
	res, err := newRoundLoop(u, rng, &opts, roundAlgo{
		scatter: &dataset.Scatter{Units: kx, Draw: func(x int, r *xrand.RNG) (int, float64) {
			z, y := src.Draw(x, r)
			if z < 0 || z >= kz {
				bad[x] = fmt.Errorf("core: stratum %d produced invalid z=%d", x, z)
				z, y = 0, 0
			}
			return x*kz + z, y
		}},
		decide: func(lp *roundLoop) {
			for _, e := range bad {
				if e != nil {
					lp.settleAllRemaining(false)
					return
				}
			}
			lp.settleIsolated()
			lp.resolutionExit()
		},
	}).run()
	if err != nil {
		return nil, err
	}
	for _, e := range bad {
		if e != nil {
			return nil, e
		}
	}
	rr := &RunResult{Result: *res}
	for x := 0; x < kx; x++ {
		rr.CellEstimates = append(rr.CellEstimates, res.Estimates[x*kz:(x+1)*kz])
		rr.CellCounts = append(rr.CellCounts, res.SampleCounts[x*kz:(x+1)*kz])
	}
	return rr, nil
}
