package core

import (
	"repro/internal/conc"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// IRefine runs Algorithm 3 of the paper: an interval-halving alternative to
// IFOCUS built on the plain Chernoff–Hoeffding bound. Each group maintains an
// estimate with half-width ε_i and failure budget δ_i; while any group's
// interval overlaps another's, every still-active group halves both (ε_i/2,
// δ_i/2) and draws a fresh batch of c²/(2ε_i²)·ln(2/δ_i) samples
// (EstimateMean, Algorithm 2). Correct with probability 1−δ but aggressive:
// its sample complexity carries a log(1/η) factor where IFOCUS pays only
// log log(1/η), so it is provably non-optimal (Theorem 3.10).
//
// Setting opts.Resolution > 0 yields IREFINE-R, which stops refining a group
// once its interval half-width drops below r/4.
//
// With opts.Bound set to an empirical-Bernstein kind, each re-estimation
// becomes variance-adaptive: instead of committing to the Hoeffding batch
// size up front, the group draws geometrically growing chunks and stops as
// soon as the empirical-Bernstein radius certifies the target width — far
// earlier for low-spread groups.
//
// Draws follow the per-group stream discipline of the round driver: every
// group consumes its own seed-derived RNG stream (dataset.NewStreamSampler),
// so a group's samples depend only on the run seed, its index, and its own
// draw count, never on the other groups' batch sizes.
func IRefine(u *dataset.Universe, rng *xrand.RNG, opts Options) (*Result, error) {
	if err := opts.validate(u); err != nil {
		return nil, err
	}
	k := u.K()
	sampler := dataset.NewStreamSampler(u, rng.Uint64(), !opts.WithReplacement)
	defer sampler.Release()
	adaptive := opts.Bound == conc.KindBernstein || opts.Bound == conc.KindBernsteinFinite

	estimates := make([]float64, k)
	epsilons := make([]float64, k)
	deltas := make([]float64, k)
	active := make([]bool, k)
	settled := make([]int, k)
	isolated := make([]bool, k)
	var orderBuf []int
	buf := make([]float64, drawChunk)

	// Initialization (Lines 1–4): the whole domain is the first interval.
	for i := 0; i < k; i++ {
		estimates[i] = u.C / 2
		epsilons[i] = u.C / 2
		deltas[i] = opts.Delta / (2 * float64(k))
		active[i] = true
	}

	res := &Result{Estimates: estimates, SettledRound: settled}
	numActive := k
	round := 0
	for numActive > 0 {
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		round++
		for i := 0; i < k; i++ {
			if !active[i] {
				continue
			}
			// Halve the target width and failure budget, then re-estimate
			// (Lines 8–9). The divisor includes the heuristic factor so the
			// Figure 5 experiments can shrink faster than theory allows.
			epsilons[i] /= 2
			deltas[i] /= 2
			var exact bool
			if adaptive {
				estimates[i], exact = estimateMeanEB(sampler, i, u.C, epsilons[i]*opts.HeuristicFactor, deltas[i], buf)
			} else {
				estimates[i], exact = estimateMean(sampler, i, u.C, epsilons[i]*opts.HeuristicFactor, deltas[i], buf)
			}
			if exact {
				// The whole population has been drawn: the mean is known.
				epsilons[i] = 0
			}
		}

		// Deactivate groups whose intervals no longer intersect any other
		// group's interval (Line 10). Widths differ per group, so the
		// general disjointness sweep is used.
		ivs := make([]interval, k)
		for i := 0; i < k; i++ {
			ivs[i] = interval{estimates[i] - epsilons[i], estimates[i] + epsilons[i]}
		}
		orderBuf = isolatedGeneral(ivs, isolated, orderBuf, len(orderBuf) == len(ivs))
		for i := 0; i < k; i++ {
			if !active[i] {
				continue
			}
			stop := isolated[i]
			// Resolution relaxation: a group refined past r/4 can be frozen
			// even while overlapping — any group it overlaps is within r.
			if opts.Resolution > 0 && epsilons[i] < opts.Resolution/4 {
				stop = true
			}
			if stop {
				active[i] = false
				settled[i] = round
				numActive--
				if opts.OnPartial != nil {
					opts.OnPartial(i, estimates[i], round, epsilons[i])
				}
			}
		}
		if opts.OnRound != nil {
			maxEps := 0.0
			for i := 0; i < k; i++ {
				if active[i] && epsilons[i] > maxEps {
					maxEps = epsilons[i]
				}
			}
			opts.OnRound(round, maxEps, epsilons, active, estimates, sampler.Total())
		}
		if opts.MaxRounds > 0 && round >= opts.MaxRounds && numActive > 0 {
			res.Capped = true
			break
		}
	}

	maxEps := 0.0
	for _, e := range epsilons {
		if e > maxEps {
			maxEps = e
		}
	}
	res.Rounds = round
	res.FinalEpsilon = maxEps
	res.TotalSamples = sampler.Total()
	res.SampleCounts = append([]int64(nil), sampler.Counts()...)
	return res, nil
}

// drawChunk bounds the block buffer of estimateMean: Hoeffding batches can
// run to 10⁵+ samples, so they stream through a fixed-size buffer instead
// of materializing the whole batch.
const drawChunk = 4096

// estimateMean is Algorithm 2: it draws enough fresh samples that the
// returned mean is within ±eps of the true mean with probability 1−delta,
// by the Chernoff–Hoeffding bound. Draws go through the sampler's block
// path chunk by chunk; the sample stream and the accumulated sum are
// identical to the scalar draw loop, just without a dispatch per sample.
// exact reports that the batch consumed the rest of a without-replacement
// population, in which case the group's exact mean is returned.
func estimateMean(s *dataset.Sampler, group int, c, eps, delta float64, buf []float64) (mean float64, exact bool) {
	m := conc.HoeffdingSampleSize(c, eps, delta)
	// Cap the batch at the remaining population when sampling without
	// replacement from a finite group: once the whole group is consumed the
	// mean is exact, so extra draws add nothing.
	if n := s.Universe().Groups[group].Size(); n > 0 && s.WithoutReplacement() {
		remaining := n - s.Count(group)
		if int64(m) >= remaining {
			exact = true
			m = int(max(remaining, 0))
		}
	}
	sum := 0.0
	for drawn := 0; drawn < m; {
		n := m - drawn
		if n > len(buf) {
			n = len(buf)
		}
		s.DrawBatch(group, buf[:n])
		for _, v := range buf[:n] {
			sum += v
		}
		drawn += n
	}
	if exact {
		return exactMean(s.Universe().Groups[group]), true
	}
	return sum / float64(m), false
}

// estimateMeanEB is the variance-adaptive Algorithm 2: rather than
// committing to the Hoeffding batch c²/(2ε²)·ln(2/δ) up front, it draws
// geometrically growing chunks, folds them into an incremental Welford
// accumulator, and stops as soon as the fixed-confidence empirical-
// Bernstein radius — which scales with the observed spread rather than the
// domain width — certifies ±eps. Because the stopping rule peeks at the
// data, the failure budget is spread over the checkpoints as δ/(j(j+1))
// (a convergent series summing to δ), so the certificate holds wherever
// the loop stops. Sampling without replacement stops early once the
// group's remaining population is consumed, and then returns the group's
// exact mean, exactly like estimateMean.
func estimateMeanEB(s *dataset.Sampler, group int, c, eps, delta float64, buf []float64) (mean float64, exact bool) {
	remaining := int64(-1) // unbounded
	if n := s.Universe().Groups[group].Size(); n > 0 && s.WithoutReplacement() {
		remaining = n - s.Count(group)
		if remaining <= 0 {
			return exactMean(s.Universe().Groups[group]), true
		}
	}
	var mom conc.Moments
	taken := 0
	chunk := 64
	for j := 1; ; j++ {
		n := chunk
		if n > len(buf) {
			n = len(buf)
		}
		if remaining >= 0 && int64(taken+n) > remaining {
			n = int(remaining) - taken
		}
		s.DrawBatch(group, buf[:n])
		mom.AddAll(buf[:n])
		taken += n
		if remaining >= 0 && int64(taken) >= remaining {
			return exactMean(s.Universe().Groups[group]), true
		}
		if conc.EBRadius(c, taken, mom.Variance(), delta/float64(j*(j+1))) <= eps {
			return mom.Mean, false
		}
		if chunk < len(buf) {
			chunk *= 2
		}
	}
}

// exactMean recomputes the exact mean of a fully consumed group, reached
// when a without-replacement batch runs to the end of the population.
func exactMean(g dataset.Group) float64 {
	if sc, ok := g.(dataset.Scannable); ok {
		sum, n := 0.0, int64(0)
		n = sc.Scan(func(v float64) { sum += v })
		return sum / float64(n)
	}
	return g.TrueMean()
}
