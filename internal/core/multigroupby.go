package core

import (
	"fmt"

	"repro/internal/conc"
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

// MultiGroupByResult reports per-cell estimates for the (X, Z) cross
// product. Cells never observed are reported with Counts 0 and NaN-free
// zero estimates.
type MultiGroupByResult struct {
	// Estimates[x][z] is the AVG(Y) estimate of cell (x, z).
	Estimates [][]float64
	// Counts[x][z] is the number of samples that landed in the cell.
	Counts [][]int64
	// TotalSamples is the total draws across strata.
	TotalSamples int64
	// Capped reports a maxDraws exit; the guarantee is void.
	Capped bool
}

// MultiGroupBy solves §6.3.4: ordering-guaranteed estimation of the cells
// of GROUP BY X, Z when only X is indexed. A stratum X = x stays active as
// long as *some* cell (x, z) still has a confidence interval overlapping
// another cell's interval; each round draws one tuple from every active
// stratum, which refines whichever of its cells the tuple lands in. Cell
// intervals use the per-cell sample count under the anytime schedule, so
// the union bound covers all NumX×NumZ cells.
//
// maxDraws caps total draws (0 = unlimited). As the paper notes, the
// sample complexity exceeds the jointly-indexed case because a stratum
// keeps paying for its already-settled cells while any one cell is
// contended.
func MultiGroupBy(src CellSource, rng *xrand.RNG, opts Options, maxDraws int64) (*MultiGroupByResult, error) {
	kx, kz := src.NumX(), src.NumZ()
	if kx <= 0 || kz <= 0 {
		return nil, fmt.Errorf("core: multi-group-by needs positive strata and cell counts")
	}
	if opts.Delta <= 0 || opts.Delta >= 1 {
		return nil, fmt.Errorf("core: delta must be in (0,1), got %v", opts.Delta)
	}
	if kind, err := conc.ParseKind(string(opts.Bound)); err != nil {
		return nil, err
	} else if kind != conc.KindHoeffding {
		// Cells are discovered as tuples land, so there is no per-cell
		// moment accounting to feed a variance-adaptive bound yet; reject
		// rather than silently running the default schedule.
		return nil, fmt.Errorf("core: multiple group-by supports the default %s bound only, got %s", conc.KindHoeffding, kind)
	}
	if opts.Kappa == 0 {
		opts.Kappa = 1
	}
	if opts.HeuristicFactor == 0 {
		opts.HeuristicFactor = 1
	}
	cells := kx * kz
	// Per-cell budget δ/(kx·kz); draws are with replacement at the stratum
	// level, so the radius takes no population.
	bound := conc.MustBound(conc.KindHoeffding, src.C(), cells, opts.Delta, opts.Kappa)

	est := make([][]float64, kx)
	cnt := make([][]int64, kx)
	for x := range est {
		est[x] = make([]float64, kz)
		cnt[x] = make([]int64, kz)
	}
	res := &MultiGroupByResult{Estimates: est, Counts: cnt}
	activeX := make([]bool, kx)
	for x := range activeX {
		activeX[x] = true
	}
	numActive := kx
	var total int64

	// flat index helpers for the interval check.
	type cellIv struct {
		lo, hi float64
		seen   bool
	}
	ivs := make([]cellIv, cells)

	round := 0
	for numActive > 0 {
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		round++
		for x := 0; x < kx; x++ {
			if !activeX[x] {
				continue
			}
			z, y := src.Draw(x, rng)
			if z < 0 || z >= kz {
				return nil, fmt.Errorf("core: stratum %d produced invalid z=%d", x, z)
			}
			cnt[x][z]++
			m := float64(cnt[x][z])
			est[x][z] = (m-1)/m*est[x][z] + y/m
			total++
		}
		if maxDraws > 0 && total >= maxDraws {
			res.Capped = true
			break
		}
		// Interval refresh. A cell that has never been sampled keeps the
		// whole domain as its interval (its stratum cannot settle yet).
		if round%4 != 0 {
			continue // amortize the O(cells²)-ish check
		}
		for x := 0; x < kx; x++ {
			for z := 0; z < kz; z++ {
				i := x*kz + z
				w := bound.Radius(int(cnt[x][z]), 0, nil) / opts.HeuristicFactor
				ivs[i] = cellIv{est[x][z] - w, est[x][z] + w, cnt[x][z] > 0}
			}
		}
		resolved := func(i int) bool {
			if !ivs[i].seen {
				return false
			}
			if opts.Resolution > 0 && ivs[i].hi-ivs[i].lo < opts.Resolution/2 {
				return true
			}
			for j := range ivs {
				if j == i {
					continue
				}
				if ivs[i].lo <= ivs[j].hi && ivs[j].lo <= ivs[i].hi {
					return false
				}
			}
			return true
		}
		for x := 0; x < kx; x++ {
			if !activeX[x] {
				continue
			}
			done := true
			for z := 0; z < kz; z++ {
				if !resolved(x*kz + z) {
					done = false
					break
				}
			}
			if done {
				activeX[x] = false
				numActive--
			}
		}
	}
	res.TotalSamples = total
	return res, nil
}
