// Broker: a retained, offset-addressed copy of a universe's per-group draw
// streams.
//
// Broker has no production caller: every query draws its own per-group
// streams through a stream Sampler (DESIGN §11). It stays only because the
// benchmark's dataset.broker_fill_ns_per_sample probe times Fill.
//
// Group i's j-th draw is a pure function of (base, i, j) — the per-group
// stream discipline of NewStreamSampler — so Fill serves exactly the values
// a stream sampler over the same base draws, however the offsets are
// chunked and whichever caller asks first. The broker keeps each group's
// drawn values as a retained prefix: the first caller to need an offset
// extends it with one block draw, every later one copies.
package dataset

import (
	"sync"
	"sync/atomic"
)

// Broker serves a universe's per-group draw streams by (group, offset),
// drawing each offset once. Fill is safe for concurrent use.
type Broker struct {
	sampler *Sampler
	groups  []brokerStream

	served atomic.Int64
}

// brokerStream is one group's retained draw prefix. The mutex serializes
// extension and copying per group, so callers contend only when they touch
// the same group at the same instant.
type brokerStream struct {
	mu     sync.Mutex
	prefix []float64
}

// NewBroker returns a broker over u whose draw streams are seeded exactly
// as NewStreamSampler(u, base, withoutReplacement) seeds a run's. Its
// draw state lives in its own sampler, so u's groups stay free for any
// other run.
func NewBroker(u *Universe, base uint64, withoutReplacement bool) *Broker {
	return &Broker{
		sampler: NewStreamSampler(u, base, withoutReplacement),
		groups:  make([]brokerStream, u.K()),
	}
}

// Fill copies group i's draws [from, from+len(dst)) into dst, extending
// the retained prefix through the broker's own sampler when the high
// offsets have not been drawn yet. Extension draws exactly the missing
// suffix — values are a pure function of the offset, so chunking never
// changes them.
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
		b.sampler.DrawBatch(i, g.prefix[cur:need])
	}
	copy(dst, g.prefix[from:need])
	g.mu.Unlock()
	b.served.Add(int64(len(dst)))
}

// growCap doubles the prefix capacity until it covers need, so extension
// cost is amortized O(1) per value regardless of the callers' block sizes.
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

// Drawn returns the number of samples the broker has physically drawn,
// summed over groups.
func (b *Broker) Drawn() int64 { return b.sampler.Total() }

// Served returns the number of samples Fill has copied out. Callers that
// re-read offsets already drawn make it exceed Drawn.
func (b *Broker) Served() int64 { return b.served.Load() }
