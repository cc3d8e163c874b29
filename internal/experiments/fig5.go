package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/viz"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// HeuristicResult reproduces Figures 5(a) and 5(b): accuracy (fraction of
// runs satisfying the ordering property) as a function of the heuristic
// shrinking factor applied to IFOCUS-R's confidence intervals.
type HeuristicResult struct {
	Factors  []float64
	Accuracy []float64
	// PairAccuracy is the mean fraction of *strictly* correct pairwise
	// comparisons (no resolution exemption) — the finer-grained signal on
	// instances whose gaps all fall below the resolution, where the
	// run-level relaxed property cannot register degradation.
	PairAccuracy []float64
	// MeanPct is the mean percentage sampled at each factor, showing what
	// the heuristic buys (and costs).
	MeanPct []float64
	Title   string
}

// Fig5a sweeps the heuristic factor over the paper's 2⁰..2⁶ range on the
// mixture workload with δ=0.05.
func Fig5a(s Scale) (*HeuristicResult, error) {
	factors := []float64{1, 2, 4, 8, 16, 32, 64}
	return heuristicSweep(s, factors, mixtureConfig(s.BaseRows, 10, 0), false,
		"Figure 5(a): accuracy vs heuristic factor (mixture)")
}

// Fig5b sweeps small factors (1.00–1.20) on the hard Bernoulli workload
// with γ=0.1, the paper's demonstration that even sampling 1% less than
// IFOCUS-R prescribes breaks the guarantee on hard instances.
func Fig5b(s Scale) (*HeuristicResult, error) {
	factors := []float64{1, 1.01, 1.05, 1.1, 1.15, 1.2}
	rows := s.BaseRows
	// The paper's factor-1 exactness on this instance comes from
	// without-replacement exhaustion of the contended groups, so the
	// dataset must be materialized (cap the memory footprint).
	if rows > 4_000_000 {
		rows = 4_000_000
	}
	cfg := workload.Config{Kind: workload.HardKind, K: 10, TotalRows: rows, Gamma: 0.1}
	return heuristicSweep(s, factors, cfg, true,
		"Figure 5(b): accuracy vs heuristic factor (hard, gamma=0.1)")
}

func heuristicSweep(s Scale, factors []float64, cfg workload.Config, materialize bool, title string) (*HeuristicResult, error) {
	res := &HeuristicResult{
		Factors:      factors,
		Accuracy:     make([]float64, len(factors)),
		PairAccuracy: make([]float64, len(factors)),
		MeanPct:      make([]float64, len(factors)),
		Title:        title,
	}
	k := cfg.K
	totalPairs := k * (k - 1) / 2
	for fi, factor := range factors {
		for rep := 0; rep < s.Reps; rep++ {
			cfg.Seed = s.Seed + uint64(rep)
			var u *dataset.Universe
			var err error
			if materialize {
				u, err = workload.Materialize(cfg)
			} else {
				u, err = workload.Virtual(cfg)
			}
			if err != nil {
				return nil, err
			}
			truth := u.TrueMeans()
			opts := s.options(AlgoIFocusR)
			opts.HeuristicFactor = factor
			run, err := core.IFocus(u, xrand.New(cfg.Seed^uint64(fi*31+7)), opts)
			if err != nil {
				return nil, err
			}
			if core.ResolutionCorrect(run.Estimates, truth, s.Resolution) {
				res.Accuracy[fi] += 1 / float64(s.Reps)
			}
			bad := core.IncorrectPairs(run.Estimates, truth, 0)
			res.PairAccuracy[fi] += (1 - float64(bad)/float64(totalPairs)) / float64(s.Reps)
			res.MeanPct[fi] += 100 * run.SampledFraction(u) / float64(s.Reps)
		}
	}
	return res, nil
}

// Print renders the sweep.
func (r *HeuristicResult) Print(w io.Writer) {
	var rows [][]string
	for i, f := range r.Factors {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", f),
			fmt.Sprintf("%.2f", r.Accuracy[i]),
			fmt.Sprintf("%.4f", r.PairAccuracy[i]),
			fmt.Sprintf("%.3f", r.MeanPct[i]),
		})
	}
	fprintf(w, "%s\n%s", r.Title, viz.Table([]string{"factor", "accuracy", "strict pair acc", "% sampled"}, rows))
}

// ConvergencePoint is one checkpoint of the convergence traces behind
// Figures 5(c) and 6(a).
type ConvergencePoint struct {
	// Samples is the cumulative sample count at the checkpoint.
	Samples int64
	// ActiveGroups is the mean number of still-active groups.
	ActiveGroups float64
	// IncorrectPairs is the mean number of incorrectly ordered pairs among
	// the current estimates.
	IncorrectPairs float64
	// Runs is the number of runs contributing to the averages.
	Runs int
}

// ConvergenceResult holds the two series of Figures 5(c) and 6(a): the
// all-runs average ("0") and the average over runs that needed at least
// HardThreshold samples ("3M" in the paper).
type ConvergenceResult struct {
	All  []ConvergencePoint
	Hard []ConvergencePoint
	// HardThreshold is the sample count a run must exceed to enter Hard.
	HardThreshold int64
	// HardRuns counts the qualifying runs.
	HardRuns int
}

// Convergence instruments IFOCUS over Scale.Reps mixture datasets,
// checkpointing the active-group count and the incorrect-pair count on a
// fixed grid of sample counts. The paper's hard-subset threshold (3M
// samples at 10M rows) scales proportionally with Scale.BaseRows.
func Convergence(s Scale) (*ConvergenceResult, error) {
	threshold := int64(float64(s.BaseRows) * 0.3)
	grid := convergenceGrid(s.BaseRows)
	type trace struct {
		active    []float64
		incorrect []float64
		total     int64
	}
	var traces []trace
	for rep := 0; rep < s.Reps; rep++ {
		seed := s.Seed + uint64(rep)
		u, err := workload.Virtual(mixtureConfig(s.BaseRows, 10, seed))
		if err != nil {
			return nil, err
		}
		truth := u.TrueMeans()
		tr := trace{active: make([]float64, len(grid)), incorrect: make([]float64, len(grid))}
		next := 0
		opts := s.options(AlgoIFocus)
		opts.OnRound = func(m int, eps float64, _ []float64, active []bool, est []float64, total int64) {
			for next < len(grid) && total >= grid[next] {
				n := 0
				for _, a := range active {
					if a {
						n++
					}
				}
				tr.active[next] = float64(n)
				tr.incorrect[next] = float64(core.IncorrectPairs(est, truth, 0))
				next++
			}
		}
		run, err := core.IFocus(u, xrand.New(seed^0xc0), opts)
		if err != nil {
			return nil, err
		}
		tr.total = run.TotalSamples
		// Checkpoints beyond termination hold the terminal state.
		for ; next < len(grid); next++ {
			tr.active[next] = 0
			tr.incorrect[next] = float64(core.IncorrectPairs(run.Estimates, truth, 0))
		}
		traces = append(traces, tr)
	}

	build := func(filter func(trace) bool) ([]ConvergencePoint, int) {
		pts := make([]ConvergencePoint, len(grid))
		n := 0
		for _, tr := range traces {
			if !filter(tr) {
				continue
			}
			n++
			for i := range grid {
				pts[i].ActiveGroups += tr.active[i]
				pts[i].IncorrectPairs += tr.incorrect[i]
			}
		}
		for i := range pts {
			pts[i].Samples = grid[i]
			pts[i].Runs = n
			if n > 0 {
				pts[i].ActiveGroups /= float64(n)
				pts[i].IncorrectPairs /= float64(n)
			}
		}
		return pts, n
	}
	res := &ConvergenceResult{HardThreshold: threshold}
	res.All, _ = build(func(trace) bool { return true })
	res.Hard, res.HardRuns = build(func(tr trace) bool { return tr.total >= threshold })
	return res, nil
}

// convergenceGrid returns checkpoint sample counts spanning the run.
func convergenceGrid(baseRows int64) []int64 {
	var grid []int64
	for f := 0.01; f <= 0.4001; f += 0.01 {
		grid = append(grid, int64(float64(baseRows)*f))
	}
	return grid
}

// Print renders Figure 5(c) (active groups) and Figure 6(a) (incorrect
// pairs) from the two scenarios.
func (r *ConvergenceResult) Print(w io.Writer) {
	var rows [][]string
	for i := range r.All {
		hardA, hardI := "-", "-"
		if r.HardRuns > 0 {
			hardA = fmt.Sprintf("%.2f", r.Hard[i].ActiveGroups)
			hardI = fmt.Sprintf("%.2f", r.Hard[i].IncorrectPairs)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.All[i].Samples),
			fmt.Sprintf("%.2f", r.All[i].ActiveGroups),
			fmt.Sprintf("%.2f", r.All[i].IncorrectPairs),
			hardA,
			hardI,
		})
	}
	fprintf(w, "Figures 5(c)/6(a): convergence of IFOCUS (hard = runs with >= %d samples; %d such runs)\n",
		r.HardThreshold, r.HardRuns)
	fprintf(w, "%s", viz.Table(
		[]string{"samples", "active(all)", "incorrect(all)", "active(hard)", "incorrect(hard)"}, rows))
}
