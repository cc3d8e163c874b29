// Shared-sample broker: one draw stream feeding any number of concurrent
// queries over the same table (ROADMAP item 2).
//
// The paper's guarantees are per query and depend only on the draws a
// query folds — never on who triggered them — so N concurrent queries
// over one group set can share a single physical draw stream: each
// round's block draws are taken once and fanned to every subscriber,
// which folds them into its own aggregate, moments, and bound. The
// per-group RNG-stream discipline (xrand.NewStream) makes this exact
// rather than approximate: group i's j-th draw is a pure function of
// (base seed, i, j), independent of interleaving, so a broker-fed run is
// bit-for-bit identical to a solo run over the same resolved seed.
//
// The broker keeps each group's drawn values as a retained prefix. A
// subscriber at offset j reads prefix[j:]; the first subscriber to need
// an offset extends the prefix (one block draw through the broker's own
// sampler), everyone else copies. Late arrivals simply start reading at
// offset 0 — catch-up is the same code path as fan-out, not a special
// case. Retention is bounded by the deepest subscriber (and by the group
// size in without-replacement mode); registries that hand out brokers
// drop them when their last subscriber departs, freeing the prefixes.
package dataset

import (
	"sync"
	"sync/atomic"
)

// DrawSource serves draw values by (group, offset): an offset-addressed
// view of the per-group sample streams, shareable across runs because
// offsets — not private RNG state — identify draws. Fill must be safe for
// concurrent use across goroutines (including the same group; the round
// driver draws distinct groups concurrently, and distinct subscribers may
// hit one group at once).
type DrawSource interface {
	// Fill copies draws [from, from+len(dst)) of group i into dst.
	Fill(i int, from int64, dst []float64)
}

// Broker is a refcount-agnostic shared draw stream over one universe: the
// canonical DrawSource. Construct one per (table, filter, sampling mode,
// resolved seed) and feed every concurrent query's sampler from it via
// NewSourceSampler; each distinct offset is drawn exactly once no matter
// how many subscribers request it.
type Broker struct {
	sampler *Sampler
	groups  []brokerStream

	served atomic.Int64
}

// brokerStream is one group's retained draw prefix. The mutex serializes
// extension and copying per group, so subscribers contend only when they
// touch the same group at the same instant.
type brokerStream struct {
	mu     sync.Mutex
	prefix []float64
}

// NewBroker returns a broker over u whose draw streams are seeded exactly
// as NewStreamSampler(u, base, withoutReplacement) would seed a solo
// run's: feed subscribers built with NewSourceSampler and their results
// match a solo run over the same base bit for bit. The broker owns u's
// groups' draw state; do not sample them through any other sampler while
// the broker lives.
func NewBroker(u *Universe, base uint64, withoutReplacement bool) *Broker {
	return &Broker{
		sampler: NewStreamSampler(u, base, withoutReplacement),
		groups:  make([]brokerStream, u.K()),
	}
}

// Fill implements DrawSource: it serves group i's draws [from,
// from+len(dst)), extending the retained prefix through the broker's own
// sampler when the high offsets have not been drawn yet. Extension draws
// exactly the missing suffix — values are a pure function of the offset,
// so chunking never changes them.
func (b *Broker) Fill(i int, from int64, dst []float64) {
	if len(dst) == 0 {
		return
	}
	g := &b.groups[i]
	need := from + int64(len(dst))
	g.mu.Lock()
	if int64(len(g.prefix)) < need {
		cur := int64(len(g.prefix))
		if int64(cap(g.prefix)) < need {
			grown := make([]float64, cur, growCap(cur, need))
			copy(grown, g.prefix)
			g.prefix = grown
		}
		g.prefix = g.prefix[:need]
		b.sampler.drawBatch(i, g.prefix[cur:need])
	}
	copy(dst, g.prefix[from:need])
	g.mu.Unlock()
	b.served.Add(int64(len(dst)))
}

// growCap doubles the prefix capacity until it covers need, so extension
// cost is amortized O(1) per value regardless of subscribers' block sizes.
func growCap(cur, need int64) int64 {
	c := cur * 2
	if c < 1024 {
		c = 1024
	}
	if c < need {
		c = need
	}
	return c
}

// Release hands the broker's draw state back for reuse
// (Universe.ReleaseDraws over its private group set). The registry that
// owns the broker calls it when it drops it, after the last subscriber has
// departed: the streams cannot be extended afterwards.
func (b *Broker) Release() { b.sampler.u.ReleaseDraws() }

// Drawn returns the number of samples the broker has physically drawn —
// the memory-traffic cost actually paid, summed over groups.
func (b *Broker) Drawn() int64 { return b.sampler.Total() }

// Served returns the number of samples delivered to subscribers. With N
// concurrent subscribers over the same offsets, Served approaches
// N×Drawn: the sharing win.
func (b *Broker) Served() int64 { return b.served.Load() }

// Retained returns the number of values currently held across all group
// prefixes (the broker's retention footprint).
func (b *Broker) Retained() int64 {
	var total int64
	for i := range b.groups {
		g := &b.groups[i]
		g.mu.Lock()
		total += int64(len(g.prefix))
		g.mu.Unlock()
	}
	return total
}

// WithoutReplacement reports the broker's sampling mode. Subscribers must
// be built with the same mode, or offsets would mean different streams.
func (b *Broker) WithoutReplacement() bool { return b.sampler.WithoutReplacement() }
