package dataset

import (
	"sync/atomic"

	"repro/internal/conc"
	"repro/internal/xrand"
)

// Sampler mediates every draw an algorithm makes from a universe, keeping
// exact per-group and total sample counts (the paper's m_i and C = Σ m_i),
// and transparently switching between with- and without-replacement modes.
//
// In without-replacement mode a group that supports it is consumed via its
// permutation stream; once (or if) exhausted, further draws fall back to
// with-replacement, which can only happen if an algorithm requests more
// samples than the group holds — the accountant records this in Exhausted
// so experiments can report it.
//
// Draws come in two granularities: Draw takes one sample, DrawBatch fills
// a block with one dispatch. Both produce the same stream for the same
// total number of samples, so algorithms can batch freely without changing
// their statistics.
//
// Concurrency: all accounting (counts, total, exhausted flags) is atomic,
// so distinct groups of one sampler may be drawn from concurrently — the
// discipline of the parallel round driver, which fans groups across a
// worker pool. Draw state itself (a group's permutation position, its RNG
// stream) is still per group and unsynchronized: at most one goroutine may
// draw from a given group at a time.
type Sampler struct {
	u   *Universe
	rng *xrand.RNG
	// streams holds the per-group generators as one contiguous value slice
	// (one allocation for k streams, not k); RNGFor hands out &streams[i].
	streams []xrand.RNG
	source  DrawSource
	without bool

	counts    []int64
	total     int64
	exhausted []atomic.Bool

	// moments, when enabled, holds one Welford accumulator per group —
	// the sufficient statistics behind variance-adaptive bounds — folded
	// forward as draws happen, never by rescanning past draws. Like a
	// group's RNG stream, moments[i] is group-owned, unsynchronized state:
	// at most one goroutine may draw from (or observe values for) a given
	// group at a time.
	moments []conc.Moments
	// autoObserve folds every value the sampler itself draws into the
	// group's moments. Algorithms whose draws pass through a transform
	// (normalized draws, pair draws) disable it and feed the transformed
	// values via Observe instead, so the moments describe the variable
	// actually being estimated.
	autoObserve bool

	// kernels, when enabled, holds each group's staged draw pipeline (nil
	// for groups without one), resolved once by EnableBlockKernels so
	// DrawBlockSum can draw into the group's own value scratch (kernel.go).
	kernels []*drawCore
}

// NewSampler returns a sampler over u whose draws all consume the one
// shared generator rng, in draw order. If withoutReplacement is true,
// groups implementing WithoutReplacementGroup are consumed without
// replacement — starting from the identity arrangement: any draw state
// left on the groups by a previous run is reset, so reusing one Universe
// across consecutive runs replays the same streams instead of silently
// continuing (or exhausting) an earlier run's permutation.
//
// Because the shared stream is consumed in draw order, a shared-RNG
// sampler must be drawn from sequentially. The parallel round driver uses
// NewStreamSampler instead.
func NewSampler(u *Universe, rng *xrand.RNG, withoutReplacement bool) *Sampler {
	return newSampler(u, rng, nil, withoutReplacement)
}

// NewStreamSampler returns a sampler over u in which every group owns a
// deterministic RNG stream derived from base and the group's index
// (xrand.NewStream). Group i's randomness is then a pure function of
// (base, i) and the number of samples it has drawn — never of the order
// groups were visited — so runs produce identical results whether groups
// are drawn sequentially or fanned across any number of workers.
func NewStreamSampler(u *Universe, base uint64, withoutReplacement bool) *Sampler {
	streams := make([]xrand.RNG, u.K())
	for i := range streams {
		streams[i] = xrand.Stream(base, uint64(i))
	}
	return newSampler(u, nil, streams, withoutReplacement)
}

// NewSourceSampler returns a sampler over u whose draws are served by an
// offset-addressed source (a shared Broker) instead of the groups' own
// draw paths: group i's j-th draw is src.Fill(i, j, ·), where j is the
// group's current sample count. All accounting — counts, total, moments,
// exhaustion — works exactly as on a private sampler, so algorithms see
// no difference; but the sampler never touches the groups' draw state
// (no permutation reset or advance), which is what lets any number of
// source-fed samplers share one universe's worth of draws. The source
// must have been built with the same withoutReplacement mode.
func NewSourceSampler(u *Universe, src DrawSource, withoutReplacement bool) *Sampler {
	return &Sampler{
		u:         u,
		source:    src,
		without:   withoutReplacement,
		counts:    make([]int64, u.K()),
		exhausted: make([]atomic.Bool, u.K()),
	}
}

func newSampler(u *Universe, rng *xrand.RNG, streams []xrand.RNG, withoutReplacement bool) *Sampler {
	if withoutReplacement {
		for _, g := range u.Groups {
			if wg, ok := g.(WithoutReplacementGroup); ok {
				wg.ResetDraws()
			}
		}
	}
	return &Sampler{
		u:         u,
		rng:       rng,
		streams:   streams,
		without:   withoutReplacement,
		counts:    make([]int64, u.K()),
		exhausted: make([]atomic.Bool, u.K()),
	}
}

// Draw samples once from group i and records the draw.
func (s *Sampler) Draw(i int) float64 {
	if s.source != nil {
		var buf [1]float64
		s.fillFromSource(i, buf[:])
		if s.moments != nil && s.autoObserve {
			s.moments[i].Add(buf[0])
		}
		return buf[0]
	}
	g := s.u.Groups[i]
	s.Record(i, 1)
	r := s.RNGFor(i)
	var v float64
	drawn := false
	if s.without {
		if wg, ok := g.(WithoutReplacementGroup); ok {
			if x, ok := wg.DrawWithoutReplacement(r); ok {
				v, drawn = x, true
			} else {
				s.exhausted[i].Store(true)
			}
		}
	}
	if !drawn {
		v = g.Draw(r)
	}
	if s.moments != nil && s.autoObserve {
		s.moments[i].Add(v)
	}
	return v
}

// DrawBatch fills dst with samples from group i and records them. One call
// costs one interface dispatch and one accounting update for the whole
// block — the moments update included, folded over the freshly filled
// block right here rather than by any later rescan — and produces exactly
// the stream len(dst) successive Draw calls would, including the fall-back
// to with-replacement sampling if the group's population runs out
// mid-block.
func (s *Sampler) DrawBatch(i int, dst []float64) {
	if len(dst) == 0 {
		return
	}
	s.drawBatch(i, dst)
	if s.moments != nil && s.autoObserve {
		s.moments[i].AddAll(dst)
	}
}

// fillFromSource serves one block from the offset-addressed source: the
// block's offsets are [count_i, count_i+len(dst)), recorded before the
// fill so the next block continues where this one ended. Exhaustion is
// arithmetic — the source's without-replacement stream runs out exactly
// when offsets pass the population, at which point its values are the
// same with-replacement fallback a private sampler would produce.
func (s *Sampler) fillFromSource(i int, dst []float64) {
	from := atomic.LoadInt64(&s.counts[i])
	s.Record(i, len(dst))
	if s.without {
		if sz := s.u.Groups[i].Size(); sz > 0 && from+int64(len(dst)) > sz {
			s.exhausted[i].Store(true)
		}
	}
	s.source.Fill(i, from, dst)
}

// drawBatch is DrawBatch without the moments fold.
func (s *Sampler) drawBatch(i int, dst []float64) {
	if s.source != nil {
		s.fillFromSource(i, dst)
		return
	}
	g := s.u.Groups[i]
	s.Record(i, len(dst))
	r := s.RNGFor(i)
	if s.without {
		switch wg := g.(type) {
		case BatchWithoutReplacementGroup:
			taken := wg.DrawBatchWithoutReplacement(r, dst)
			if taken == len(dst) {
				return
			}
			s.exhausted[i].Store(true)
			dst = dst[taken:]
		case WithoutReplacementGroup:
			taken := 0
			for taken < len(dst) {
				v, ok := wg.DrawWithoutReplacement(r)
				if !ok {
					s.exhausted[i].Store(true)
					break
				}
				dst[taken] = v
				taken++
			}
			if taken == len(dst) {
				return
			}
			dst = dst[taken:]
		}
	}
	if bg, ok := g.(BatchGroup); ok {
		bg.DrawBatch(r, dst)
		return
	}
	for j := range dst {
		dst[j] = g.Draw(r)
	}
}

// Record accounts n samples that were drawn outside the sampler's Group
// interface (pair draws, normalized draws with auxiliary randomness), so
// Counts and Total stay exact for algorithms with custom draw paths. It is
// safe to call concurrently for any groups.
func (s *Sampler) Record(i int, n int) {
	atomic.AddInt64(&s.counts[i], int64(n))
	atomic.AddInt64(&s.total, int64(n))
}

// Counts returns the per-group sample counts m_i. The returned slice is
// owned by the sampler; callers must copy it if they retain it, and must
// not read it while draws are in flight on other goroutines.
func (s *Sampler) Counts() []int64 { return s.counts }

// Count returns m_i for group i.
func (s *Sampler) Count(i int) int64 { return atomic.LoadInt64(&s.counts[i]) }

// Total returns the total sample complexity C = Σ m_i so far.
func (s *Sampler) Total() int64 { return atomic.LoadInt64(&s.total) }

// Exhausted reports whether group i ran out of without-replacement samples.
func (s *Sampler) Exhausted(i int) bool { return s.exhausted[i].Load() }

// RNG exposes the sampler's shared generator for algorithms that need
// auxiliary randomness. It is nil for stream samplers, whose randomness is
// all per group — use RNGFor there.
func (s *Sampler) RNG() *xrand.RNG { return s.rng }

// RNGFor returns the generator that feeds group i's draws: the group's own
// stream on a stream sampler, the shared generator otherwise. Algorithms
// with custom draw paths (pair draws, membership indicators) must take
// their auxiliary randomness from here so the per-group stream discipline
// — and with it worker invariance — extends to every sample they consume.
// Source-fed samplers have no generator at all (draws are addressed by
// offset) and return nil; algorithms with custom draw paths cannot run on
// them, which core.Run enforces.
func (s *Sampler) RNGFor(i int) *xrand.RNG {
	if s.streams != nil {
		return &s.streams[i]
	}
	return s.rng
}

// EnableMoments switches on per-group moment accounting: one Welford
// accumulator per group, maintained incrementally. With autoObserve set,
// every value the sampler draws (Draw, DrawBatch) is folded into its
// group's moments as part of the draw — the right mode when the drawn
// values are the variable being estimated. Algorithms that transform
// draws (normalized sums, pair attributes) pass false and feed the
// transformed values through Observe at the point they fold them into
// their estimates. Call before any draws.
func (s *Sampler) EnableMoments(autoObserve bool) {
	s.moments = make([]conc.Moments, s.u.K())
	s.autoObserve = autoObserve
}

// MomentsEnabled reports whether per-group moments are being maintained.
func (s *Sampler) MomentsEnabled() bool { return s.moments != nil }

// Observe folds one value of the estimated variable into group i's
// moments (no draw is recorded). It is the value-level companion of
// Record for custom draw paths, and a no-op when moments are disabled so
// hooks can call it unconditionally.
func (s *Sampler) Observe(i int, x float64) {
	if s.moments != nil {
		s.moments[i].Add(x)
	}
}

// MomentsFor returns group i's accumulator, nil when moments are
// disabled. The caller must not mutate it; like Counts, it must not be
// read while draws are in flight on other goroutines.
func (s *Sampler) MomentsFor(i int) *conc.Moments {
	if s.moments == nil {
		return nil
	}
	return &s.moments[i]
}

// WithoutReplacement reports whether the sampler consumes groups without
// replacement.
func (s *Sampler) WithoutReplacement() bool { return s.without }

// Universe returns the sampled universe.
func (s *Sampler) Universe() *Universe { return s.u }
