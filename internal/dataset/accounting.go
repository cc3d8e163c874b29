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
// worker pool. Draw state itself (a group's cursor, its RNG stream) is
// still per group and unsynchronized: at most one goroutine may draw from
// a given group at a time. The sampler owns all of it — the groups are
// immutable — so samplers over one group set never interfere.
type Sampler struct {
	u *Universe
	// streams holds the per-group generators as one contiguous value slice
	// (one allocation for k streams, not k); RNGFor hands out &streams[i].
	streams []xrand.RNG
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

	// cursors holds the run's draw state in each group that draws through
	// the staged pipeline (kernel.go): its permutation position, scratch
	// and block memo. cursors[i] has a nil drawCore for other groups.
	cursors []cursor
}

// NewStreamSampler returns a sampler over u in which every group owns a
// deterministic RNG stream derived from base and the group's index
// (xrand.NewStream). Group i's randomness is then a pure function of
// (base, i) and the number of samples it has drawn — never of the order
// groups were visited — so runs produce identical results whether groups
// are drawn sequentially or fanned across any number of workers.
//
// If withoutReplacement is true, table- and slice-backed groups (and
// other groups implementing WithoutReplacementGroup) are consumed without
// replacement. Every sampler starts from the identity arrangement: its
// cursors are its own, so any number of samplers may draw from one
// universe, one after another or at the same time, and each replays the
// same streams.
func NewStreamSampler(u *Universe, base uint64, withoutReplacement bool) *Sampler {
	streams := make([]xrand.RNG, u.K())
	for i := range streams {
		streams[i] = xrand.Stream(base, uint64(i))
	}
	cursors := make([]cursor, u.K())
	for i, g := range u.Groups {
		if bd, ok := g.(blockDrawer); ok {
			cursors[i].drawCore = bd.core()
		} else if withoutReplacement {
			if wg, ok := g.(WithoutReplacementGroup); ok {
				wg.ResetDraws()
			}
		}
	}
	return &Sampler{
		u:         u,
		streams:   streams,
		without:   withoutReplacement,
		counts:    make([]int64, u.K()),
		exhausted: make([]atomic.Bool, u.K()),
		cursors:   cursors,
	}
}

// Draw samples once from group i and records the draw.
func (s *Sampler) Draw(i int) float64 {
	s.Record(i, 1)
	v := s.draw(i)
	if s.moments != nil && s.autoObserve {
		s.moments[i].Add(v)
	}
	return v
}

// DrawUsing samples group i once with replacement on the caller's RNG,
// without accounting: bit for bit what Groups[i].Draw(r) returns, but a
// table-backed group reads through the sampler's cursor, whose block memo
// serves repeated reads of one compressed block without the block cache.
func (s *Sampler) DrawUsing(i int, r *xrand.RNG) float64 {
	if c := &s.cursors[i]; c.drawCore != nil {
		return c.read(r.Intn(c.total))
	}
	return s.u.Groups[i].Draw(r)
}

// draw takes one sample from group i, without accounting: the next
// permutation element while the population lasts (without replacement),
// a uniform element otherwise.
func (s *Sampler) draw(i int) float64 {
	r := &s.streams[i]
	if c := &s.cursors[i]; c.drawCore != nil {
		if s.without {
			if c.next < c.total {
				return c.read(int(c.permStep(r)))
			}
			s.exhausted[i].Store(true)
		}
		return c.read(r.Intn(c.total))
	}
	g := s.u.Groups[i]
	if s.without {
		if wg, ok := g.(WithoutReplacementGroup); ok {
			if x, ok := wg.DrawWithoutReplacement(r); ok {
				return x
			}
			s.exhausted[i].Store(true)
		}
	}
	return g.Draw(r)
}

// DrawBatch fills dst with samples from group i and records them. One call
// costs one dispatch and one accounting update for the whole block — the
// moments update included, folded over the freshly filled block right
// here rather than by any later rescan — and produces exactly the stream
// len(dst) successive Draw calls would, including the fall-back to
// with-replacement sampling if the group's population runs out mid-block.
func (s *Sampler) DrawBatch(i int, dst []float64) {
	if len(dst) == 0 {
		return
	}
	s.drawBatch(i, dst)
	if s.moments != nil && s.autoObserve {
		s.moments[i].AddAll(dst)
	}
}

// drawBatch is DrawBatch without the moments fold.
func (s *Sampler) drawBatch(i int, dst []float64) {
	s.Record(i, len(dst))
	r := &s.streams[i]
	if c := &s.cursors[i]; c.drawCore != nil {
		if s.without {
			rows := c.stageWithoutReplacement(r, len(dst))
			c.gather(rows, dst[:len(rows)])
			if len(rows) == len(dst) {
				return
			}
			s.exhausted[i].Store(true)
			dst = dst[len(rows):]
		}
		c.gather(c.stageWithReplacement(r, len(dst)), dst)
		return
	}
	g := s.u.Groups[i]
	if s.without {
		if wg, ok := g.(WithoutReplacementGroup); ok {
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

// Land accounts one draw for group i and returns the group's new count,
// leaving the run's total to AddTotal: a scatter unit, which learns each
// draw's group only as it draws it, adds its whole block to the total at
// once. It is safe to call concurrently for distinct groups.
func (s *Sampler) Land(i int) int64 { return atomic.AddInt64(&s.counts[i], 1) }

// AddTotal adds n draws to the run's total without crediting a group; see
// Land.
func (s *Sampler) AddTotal(n int64) { atomic.AddInt64(&s.total, n) }

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

// RNGFor returns the generator that feeds group i's draws: the group's own
// stream. Algorithms with custom draw paths (pair draws, membership
// indicators) must take their auxiliary randomness from here so the
// per-group stream discipline — and with it worker invariance — extends to
// every sample they consume.
func (s *Sampler) RNGFor(i int) *xrand.RNG { return &s.streams[i] }

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
// disabled. Like Counts, it must not be read while draws are in flight on
// other goroutines; a caller that restarts an estimate may reset or
// replace it between draws.
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
