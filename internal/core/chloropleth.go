package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/xrand"
)

// Adjacency lists, for every group, the groups it must be ordered correctly
// against — the generalization of the trend-line guarantee to chloropleth
// (heat-map) visualizations, where §6.1.1 asks only that *nearby regions*
// be correctly ordered relative to each other. Adjacency[i] holds the
// indices of group i's neighbours; the relation is symmetrized internally.
type Adjacency [][]int

// LineAdjacency returns the trend-line adjacency over k groups: each group
// neighbours its predecessor and successor.
func LineAdjacency(k int) Adjacency {
	adj := make(Adjacency, k)
	for i := 0; i < k; i++ {
		if i > 0 {
			adj[i] = append(adj[i], i-1)
		}
		if i+1 < k {
			adj[i] = append(adj[i], i+1)
		}
	}
	return adj
}

// GridAdjacency returns 4-neighbour adjacency over a rows×cols chloropleth
// grid; group index r*cols + c is the cell at (r, c).
func GridAdjacency(rows, cols int) Adjacency {
	adj := make(Adjacency, rows*cols)
	idx := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := idx(r, c)
			if r > 0 {
				adj[i] = append(adj[i], idx(r-1, c))
			}
			if r+1 < rows {
				adj[i] = append(adj[i], idx(r+1, c))
			}
			if c > 0 {
				adj[i] = append(adj[i], idx(r, c-1))
			}
			if c+1 < cols {
				adj[i] = append(adj[i], idx(r, c+1))
			}
		}
	}
	return adj
}

// symmetrized returns a validated, symmetric copy of the adjacency.
func (a Adjacency) symmetrized(k int) (Adjacency, error) {
	if len(a) != k {
		return nil, fmt.Errorf("core: adjacency covers %d groups, universe has %d", len(a), k)
	}
	set := make([]map[int]bool, k)
	for i := range set {
		set[i] = map[int]bool{}
	}
	for i, ns := range a {
		for _, j := range ns {
			if j < 0 || j >= k {
				return nil, fmt.Errorf("core: adjacency of group %d references invalid group %d", i, j)
			}
			if j == i {
				continue
			}
			set[i][j] = true
			set[j][i] = true
		}
	}
	out := make(Adjacency, k)
	for i, s := range set {
		for j := range s {
			out[i] = append(out[i], j)
		}
	}
	return out, nil
}

// Chloropleth solves the §6.1.1 generalization: estimates whose ordering is
// correct between every pair of *adjacent* groups (per the given adjacency)
// with probability at least 1−δ. Trend is the special case of a line graph;
// heat maps use GridAdjacency or a custom region graph. Groups stay active
// only while their confidence interval overlaps a neighbour's interval
// (frozen for settled neighbours), so the effective hardness of group i is
// min over its neighbours' mean gaps rather than the global η_i.
func Chloropleth(u *dataset.Universe, rng *xrand.RNG, adj Adjacency, opts Options) (*Result, error) {
	if err := opts.validate(u); err != nil {
		return nil, err
	}
	k := u.K()
	neighbours, err := adj.symmetrized(k)
	if err != nil {
		return nil, err
	}
	toSettle := make([]int, 0, k)
	lp := newRoundLoop(u, rng, &opts, roundAlgo{
		notifyPartials: true,
		decide: func(lp *roundLoop) {
			// Snapshot the groups to settle before settling any, so settle
			// order within the round cannot change the neighbour checks.
			toSettle = toSettle[:0]
			for i := 0; i < k; i++ {
				if lp.active[i] && !neighbourOverlap(lp, i, neighbours[i]) {
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

// AdjacentPairsCorrect reports whether the estimates order every adjacent
// pair (per the adjacency) as the truth does, up to resolution r.
func AdjacentPairsCorrect(estimates, truth []float64, adj Adjacency, r float64) bool {
	sym, err := adj.symmetrized(len(truth))
	if err != nil {
		return false
	}
	for i, ns := range sym {
		for _, j := range ns {
			d := truth[i] - truth[j]
			if d > r && !(estimates[i] > estimates[j]) {
				return false
			}
			if d < -r && !(estimates[i] < estimates[j]) {
				return false
			}
		}
	}
	return true
}
