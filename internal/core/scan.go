package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/par"
)

// Scan computes the exact group means by visiting every element of every
// group — the approach a traditional execution engine takes and the
// slowest baseline in the paper's Figure 4. It requires every group to be
// scannable (materialized).
func Scan(u *dataset.Universe) (*Result, error) { return scan(u, 1) }

// scan is Scan with the per-group scans fanned out across at most workers
// goroutines (par.For runs inline at workers ≤ 1). Group scans are
// independent, each group's sum accumulates in visit order, and the first
// failing group in index order reports, so the result and the error are
// the same at any worker count.
func scan(u *dataset.Universe, workers int) (*Result, error) {
	if u == nil || u.K() == 0 {
		return nil, fmt.Errorf("core: universe has no groups")
	}
	k := u.K()
	estimates := make([]float64, k)
	counts := make([]int64, k)
	errs := make([]error, k)
	par.For(k, workers, func(i int) {
		g := u.Groups[i]
		sc, ok := g.(dataset.Scannable)
		if !ok {
			errs[i] = fmt.Errorf("core: group %q is not scannable; SCAN needs materialized data", g.Name())
			return
		}
		sum := 0.0
		n := sc.Scan(func(v float64) { sum += v })
		if n == 0 {
			errs[i] = fmt.Errorf("core: group %q is empty", g.Name())
			return
		}
		estimates[i] = sum / float64(n)
		counts[i] = n
	})
	var total int64
	settled := make([]int, k)
	for i := range settled {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total += counts[i]
		settled[i] = 1
	}
	return &Result{
		Estimates:    estimates,
		SampleCounts: counts,
		TotalSamples: total,
		Rounds:       1,
		SettledRound: settled,
	}, nil
}
