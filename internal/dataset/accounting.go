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
// A round-based run draws a whole phase at once through DrawRound (one
// take per group, or per scatter unit); Draw, DrawBatch and DrawBlockSum
// draw one group's sample or block through the same staged code. Every
// path produces the same stream for the same number of samples, so a run
// can batch freely without changing its statistics.
//
// Concurrency: distinct groups of one sampler may be drawn from
// concurrently — the discipline of DrawRound, which fans a phase's takes
// across a worker pool. Everything but the total is group-owned and
// unsynchronized, like the group's RNG stream and cursor: its count, its
// exhaustion flag and its moments, so at most one goroutine may draw from
// a given group at a time. The total is the one shared counter: each call
// adds its draws to it once, atomically (DrawRound after its barrier). The
// sampler owns all of it — the groups are immutable — so samplers over one
// group set never interfere.
type Sampler struct {
	u *Universe
	// streams holds the per-group generators as one contiguous value slice
	// (one allocation for k streams, not k).
	streams []xrand.RNG
	without bool

	counts    []int64
	total     atomic.Int64
	exhausted []bool

	// moments, when enabled, holds one Welford accumulator per group —
	// the sufficient statistics behind variance-adaptive bounds — folded
	// forward as draws happen, never by rescanning past draws. Like a
	// group's RNG stream, moments[i] is group-owned, unsynchronized state:
	// at most one goroutine may draw from (or observe values for) a given
	// group at a time.
	moments []conc.Moments

	// cursors holds the run's draw state in each group that draws through
	// the staged pipeline (kernel.go): its permutation position, scratch
	// and block memo. cursors[i] has a nil drawCore for other groups.
	cursors []cursor

	// workers caps DrawRound's fan-out (≤ 1 draws inline), and scatter,
	// when set, makes plans name its units; see NewRoundSampler.
	workers int
	scatter *Scatter
}

// NewStreamSampler returns a sampler over u in which every group owns a
// deterministic RNG stream derived from base and the group's index
// (xrand.NewStream). Group i's randomness is then a pure function of
// (base, i) and the number of samples it has drawn — never of the order
// groups were visited — so runs produce identical results whether groups
// are drawn sequentially or fanned across any number of workers.
//
// If withoutReplacement is true, every group that draws through the
// staged pipeline (slice-, table-, filter- and bitmap-backed groups) is
// consumed without replacement; virtual groups draw with replacement
// regardless. Every sampler starts from the identity arrangement: its
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
		}
	}
	return &Sampler{
		u:         u,
		streams:   streams,
		without:   withoutReplacement,
		counts:    make([]int64, u.K()),
		exhausted: make([]bool, u.K()),
		cursors:   cursors,
	}
}

// Draw samples once from group i and records the draw: a phase of one
// single draw.
func (s *Sampler) Draw(i int) float64 {
	v := s.drawOne(i)
	s.total.Add(1)
	return v
}

// drawOne is Draw without the total: one sample from group i, counted and
// folded into its moments.
func (s *Sampler) drawOne(i int) float64 {
	v := s.draw(i)
	s.counts[i]++
	if s.moments != nil {
		s.moments[i].Add(v)
	}
	return v
}

// read samples group i once with replacement on r, without accounting:
// bit for bit what Groups[i].Draw(r) returns, but a table-backed group
// reads through the sampler's cursor, whose block memo serves repeated
// reads of one compressed block without the block cache.
func (s *Sampler) read(i int, r *xrand.RNG) float64 {
	if c := &s.cursors[i]; c.drawCore != nil {
		return c.read(r.Intn(c.total))
	}
	return s.u.Groups[i].Draw(r)
}

// draw takes one sample from group i, without accounting: the cursor's
// next staged value, or the first of a block it stages; a group that reads
// through a caller's function takes the next permutation element instead.
// Once a without-replacement population is spent, and always for virtual
// groups, the draw is a uniform element.
func (s *Sampler) draw(i int) float64 {
	r := &s.streams[i]
	c := &s.cursors[i]
	if v, ok := c.unstage(); ok {
		return v
	}
	switch {
	case c.drawCore == nil:
		return s.u.Groups[i].Draw(r)
	case s.without && c.next >= c.total:
		s.exhausted[i] = true
	case c.fetch == nil:
		return c.stage(r, s.without)
	case s.without:
		return c.read(int(c.permStep(r)))
	}
	return c.read(r.Intn(c.total))
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
	s.fill(i, dst)
	s.total.Add(int64(len(dst)))
}

// fill is DrawBatch without the total.
func (s *Sampler) fill(i int, dst []float64) {
	s.drawBatch(i, dst)
	if s.moments != nil {
		s.moments[i].AddAll(dst)
	}
}

// drawBatch fills dst with group i's next samples and counts them: the
// cursor's staged values first, then a fresh block.
func (s *Sampler) drawBatch(i int, dst []float64) {
	s.counts[i] += int64(len(dst))
	r := &s.streams[i]
	if c := &s.cursors[i]; c.drawCore != nil {
		if sc := c.sc; sc != nil && sc.pos < len(sc.staged) {
			n := copy(dst, sc.staged[sc.pos:])
			sc.pos += n
			if dst = dst[n:]; len(dst) == 0 {
				return
			}
		}
		if s.without {
			rows := c.stageWithoutReplacement(r, len(dst))
			c.gather(rows, dst[:len(rows)])
			if len(rows) == len(dst) {
				return
			}
			s.exhausted[i] = true
			dst = dst[len(rows):]
		}
		c.gather(c.stageWithReplacement(r, len(dst)), dst)
		return
	}
	g := s.u.Groups[i]
	for j := range dst {
		dst[j] = g.Draw(r)
	}
}

// Counts returns the per-group sample counts m_i. The returned slice is
// owned by the sampler; callers must copy it if they retain it, and must
// not read it while draws are in flight on other goroutines.
func (s *Sampler) Counts() []int64 { return s.counts }

// Count returns m_i for group i.
func (s *Sampler) Count(i int) int64 { return s.counts[i] }

// Total returns the total sample complexity C = Σ m_i so far.
func (s *Sampler) Total() int64 { return s.total.Load() }

// Exhausted reports whether group i ran out of without-replacement samples.
func (s *Sampler) Exhausted(i int) bool { return s.exhausted[i] }

// EnableMoments switches on per-group moment accounting: one Welford
// accumulator per group, maintained incrementally. Every value a draw
// yields joins its group's moments as part of the draw; a scatter tuple
// joins them only while Fold reports its group still estimating. A run
// that estimates a transform of the rows (x·z for normalized sums) draws
// through a group that applies it, so the moments always describe the
// variable being estimated. The flag is ignored. Call before any draws.
func (s *Sampler) EnableMoments(bool) {
	s.moments = make([]conc.Moments, s.u.K())
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
