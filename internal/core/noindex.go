package core

import (
	"fmt"

	"repro/internal/conc"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// TupleSource models a table without an index on the group-by attribute
// (§6.3.6): the only available operation is drawing a uniformly random
// tuple from the *whole* table, which reveals its group and value. Targeted
// per-group sampling is impossible.
type TupleSource interface {
	// K returns the number of groups.
	K() int
	// C bounds every value: all values lie in [0, C].
	C() float64
	// Draw returns the group index and value of one uniform random tuple.
	Draw(r *xrand.RNG) (group int, value float64)
}

// UniverseTupleSource adapts a universe with known group sizes into a
// TupleSource: a random tuple belongs to group i with probability
// proportional to n_i. Values are read through a with-replacement
// Sampler, whose per-group cursors carry the read state, so a source
// serves one run at a time.
type UniverseTupleSource struct {
	u   *dataset.Universe
	s   *dataset.Sampler
	cum []float64
}

// NewUniverseTupleSource builds the adapter; it panics if any group size is
// unknown.
func NewUniverseTupleSource(u *dataset.Universe) *UniverseTupleSource {
	total := u.TotalSize()
	if total == 0 {
		panic("core: tuple source needs known group sizes")
	}
	cum := make([]float64, u.K())
	run := 0.0
	for i, g := range u.Groups {
		run += float64(g.Size()) / float64(total)
		cum[i] = run
	}
	return &UniverseTupleSource{u: u, s: dataset.NewStreamSampler(u, 0, false), cum: cum}
}

// K returns the number of groups.
func (s *UniverseTupleSource) K() int { return s.u.K() }

// C returns the value bound.
func (s *UniverseTupleSource) C() float64 { return s.u.C }

// Draw picks a group proportionally to size and samples a value from it.
func (s *UniverseTupleSource) Draw(r *xrand.RNG) (int, float64) {
	u := r.Float64()
	// Linear scan: k is small and this keeps the source allocation-free.
	for i, c := range s.cum {
		if u < c {
			return i, s.s.DrawUsing(i, r)
		}
	}
	i := len(s.cum) - 1
	return i, s.s.DrawUsing(i, r)
}

// NoIndexResult reports a no-index run.
type NoIndexResult struct {
	// Estimates are the per-group mean estimates.
	Estimates []float64
	// SampleCounts are the number of tuples that landed in each group.
	SampleCounts []int64
	// TotalSamples is the number of tuples drawn from the table.
	TotalSamples int64
	// Capped reports a MaxDraws exit.
	Capped bool
}

// NoIndex solves Problem 9 (AVG-ORDER-NOINDEX): ordering-guaranteed
// estimation when tuples can only be sampled table-wide. Tuples are drawn
// one at a time; each lands in some group and refines that group's running
// mean. Group i's anytime confidence interval uses its own sample count
// m_i, and the run stops when all intervals are pairwise disjoint (or, with
// opts.Resolution > 0, when every interval is narrower than r/4).
//
// maxDraws caps the total table draws (0 = unlimited); the cap voids the
// guarantee and is reported via Capped.
//
// As the paper notes, when groups are near-equal in size this behaves like
// a round-robin scheme that cannot skip settled groups, which is exactly
// the cost of having no index.
func NoIndex(src TupleSource, rng *xrand.RNG, opts Options, maxDraws int64) (*NoIndexResult, error) {
	k := src.K()
	if k == 0 {
		return nil, fmt.Errorf("core: tuple source has no groups")
	}
	if opts.Delta <= 0 || opts.Delta >= 1 {
		return nil, fmt.Errorf("core: delta must be in (0,1), got %v", opts.Delta)
	}
	if opts.Kappa == 0 {
		opts.Kappa = 1
	}
	if opts.HeuristicFactor == 0 {
		opts.HeuristicFactor = 1
	}
	if opts.BatchSize < 0 {
		return nil, fmt.Errorf("core: batch size must be non-negative, got %d", opts.BatchSize)
	}
	kind, err := conc.ParseKind(string(opts.Bound))
	if err != nil {
		return nil, err
	}
	// Per-group counts differ here — tuples land where they land — so every
	// width is the bound's per-group radius at the group's own count. Draws
	// return each group's tuples with replacement, so no population is
	// passed; a variance-adaptive bound's moments fold forward with each
	// landed tuple.
	bound := conc.MustBound(kind, src.C(), k, opts.Delta, opts.Kappa)
	var mom []conc.Moments
	if bound.NeedsMoments() {
		mom = make([]conc.Moments, k)
	}

	estimates := make([]float64, k)
	counts := make([]int64, k)
	isolated := make([]bool, k)
	ivs := make([]interval, k)
	var orderBuf []int
	// Table-wide draws never deactivate a group, so every group reports to
	// OnRound as live.
	var traceActive []bool
	var traceEps []float64
	if opts.OnRound != nil {
		traceActive = make([]bool, k)
		for i := range traceActive {
			traceActive[i] = true
		}
		traceEps = make([]float64, k)
	}
	var total int64

	res := &NoIndexResult{Estimates: estimates, SampleCounts: counts}
	// Check cadence: interval checks cost O(k log k); doing one per draw
	// would dominate, so check every k draws (one "round" worth), scaled by
	// the batch size — table-wide draws cannot be targeted per group, so
	// batching here means drawing a block of tuples between checks.
	batch := opts.BatchSize
	if batch < 1 {
		batch = 1
	}
	checkEvery := int64(k) * int64(batch)
	for {
		if total%checkEvery == 0 {
			if err := opts.interrupted(); err != nil {
				return nil, err
			}
		}
		g, v := src.Draw(rng)
		counts[g]++
		m := float64(counts[g])
		estimates[g] = (m-1)/m*estimates[g] + v/m
		if mom != nil {
			mom[g].Add(v)
		}
		total++

		if total%checkEvery == 0 {
			seen := true
			for i := 0; i < k; i++ {
				if counts[i] == 0 {
					seen = false
					break
				}
			}
			if seen {
				maxEps := 0.0
				for i := 0; i < k; i++ {
					var m *conc.Moments
					if mom != nil {
						m = &mom[i]
					}
					w := bound.Radius(int(counts[i]), 0, m) / opts.HeuristicFactor
					if w > maxEps {
						maxEps = w
					}
					ivs[i] = interval{estimates[i] - w, estimates[i] + w}
					if traceEps != nil {
						traceEps[i] = w
					}
				}
				if opts.OnRound != nil {
					opts.OnRound(int(total/checkEvery), maxEps, traceEps, traceActive, estimates, total)
				}
				orderBuf = isolatedGeneral(ivs, isolated, orderBuf, len(orderBuf) == len(ivs))
				done := true
				for i := 0; i < k; i++ {
					if !isolated[i] {
						done = false
						break
					}
				}
				if opts.Resolution > 0 && maxEps < opts.Resolution/4 {
					done = true
				}
				if done {
					break
				}
			}
		}
		if maxDraws > 0 && total >= maxDraws {
			res.Capped = true
			break
		}
	}

	res.TotalSamples = total
	return res, nil
}
