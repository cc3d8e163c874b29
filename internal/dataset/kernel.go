// The staged block-draw pipeline: the one draw path behind SliceGroup,
// TableGroup and FilteredGroup, whatever the backing (heap slice, mmapped
// segment chunk, compressed block window) and selection (none, bitmap,
// index slice).
//
// A block of n > 1 draws runs as tight loops, each over the run's int32
// row scratch:
//
//  1. stage   the n Fisher–Yates targets next+t+Intn(total−next−t) (or n
//     with-replacement ranks) from the group's RNG stream;
//  2. swap    the targets through the permutation, leaving the drawn ranks
//     in the scratch (without replacement only);
//  3. gather  map rank→row (identity | SelectBatch | index slice) and read
//     the values, in ascending row order on mmapped and compressed columns;
//
// and the caller folds sum and Welford moments over the values in draw
// order. A draw costs two dependent cache misses (permutation slot, value);
// with the RNG, the swap and the load in separate loops, each loop's misses
// are independent of one another and the CPU overlaps them instead of
// paying them one after the other. The RNG consumption, the permutation
// advance and the value order are exactly those of n one-at-a-time draws —
// a target depends on (total, next, t) only, never on the permutation's
// contents — so every stream is bit for bit what the scalar path produces.
//
// A round of one sample per group has no block to overlap within, so
// Sampler.DrawEach runs the same loops across the groups instead. On the
// benchmark's round_bound workload (BatchSize=1, 20 groups of 50 k rows)
// that took the query p50 from 35.5 to 17.9 ms (2-vCPU Xeon, ten pairs).
//
// Groups hold no draw state: a run's position in each group's permutation
// is a cursor its Sampler owns, so any number of runs may draw from one
// group set at once. Draw state is recycled, not per-query garbage: a
// cursor's permutation and staging buffers live in a drawScratch taken
// from a free list every run over the group shares, and handed back — the
// permutation restored to the identity — when the run ends
// (Sampler.Release).
package dataset

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/xrand"
)

// drawScratch is the recyclable part of one run's draw state in a group.
type drawScratch struct {
	perm []int32   // dense Fisher–Yates permutation; the identity whenever pooled
	rows []int32   // a block's targets, then drawn ranks, then rows — draw order
	keys []uint64  // (row<<32 | slot) sort keys of the row-ordered gather
	vals []float64 // a block's values, draw order (DrawBlockSum)
}

// drawPool is the free list of draw scratch every run over one group
// shares. It is last in, first out, so a run takes the scratch the
// previous run released, and it keeps at most max idle entries — the
// GOMAXPROCS of the group's creation, as many runs as can draw at once —
// for the group's lifetime. Unlike a sync.Pool it is not emptied by a
// garbage collection, so a query's allocation does not depend on when the
// collector last ran.
type drawPool struct {
	mu   sync.Mutex
	free []*drawScratch
	max  int
}

// get pops the most recently released scratch, or returns a new one.
func (p *drawPool) get() *drawScratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return new(drawScratch)
	}
	sc := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return sc
}

// put returns sc to the list, or drops it to the garbage collector when
// the list already holds max entries.
func (p *drawPool) put(sc *drawScratch) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < p.max {
		p.free = append(p.free, sc)
	}
}

// drawCore is the draw machinery SliceGroup and FilteredGroup embed: a
// column accessor and an optional selection over it. Exactly one of values
// and win is set. It is immutable after construction — the per-run draw
// state is a cursor (below) — so concurrent runs share it freely.
type drawCore struct {
	values []float64    // the group's column segment, local row indexing
	win    *blockWindow // compressed backing: reads decode through the block cache
	sel    *selection   // nil: every row is in the population and rank == row
	total  int          // population: the rows, or the selection's cardinality
	// seg marks values as an mmapped chunk: blocks gather in ascending row
	// order, so a round touches its O(batch) pages clustered instead of
	// faulting them in random order. Windows always gather that way, so
	// each block decodes every touched column block once.
	seg bool
	// sparse keeps a cursor's permutation as a map of displaced entries
	// (disp), identity elsewhere: the same arrangement and RNG discipline
	// as the dense array in O(draws) memory instead of O(rows) — what lets
	// a group far larger than RAM be sampled without replacement. Only
	// segment-backed groups past sparsePermGate use it.
	sparse bool
	// pool recycles drawScratch among every run over the group, so its
	// permutations all have length total.
	pool *drawPool
}

func newDrawCore(values []float64, win *blockWindow, sel *selection) drawCore {
	g := drawCore{values: values, win: win, sel: sel, total: len(values), pool: &drawPool{max: runtime.GOMAXPROCS(0)}}
	if win != nil {
		g.total = win.n
	}
	if sel != nil {
		g.total = sel.count
	}
	return g
}

// at reads one local row through whichever backing the group has; m
// memoizes the compressed block last read.
func (g *drawCore) at(m *blockMemo, row int) float64 {
	if g.win != nil {
		return g.win.at(m, row)
	}
	return g.values[row]
}

// value reads the row a population rank denotes.
func (g *drawCore) value(m *blockMemo, rank int) float64 {
	if g.sel != nil {
		rank = g.sel.row(rank)
	}
	return g.at(m, rank)
}

// Draw samples uniformly with replacement: one rank draw, one rank→row
// map, no rejection. Sampler draws, DrawUsing's included, go through the
// run's cursor and its block memo instead.
func (g *drawCore) Draw(r *xrand.RNG) float64 {
	var m blockMemo
	return g.value(&m, r.Intn(g.total))
}

// core returns the group's draw machinery.
func (g *drawCore) core() *drawCore { return g }

// blockDrawer is implemented by the groups that embed drawCore.
type blockDrawer interface{ core() *drawCore }

// cursor is one run's draw state in one group: the consumed prefix of the
// run's permutation of the population, the permutation itself (dense, in
// sc, or sparse, in disp), the staging buffers and the compressed-block
// memo. A Sampler owns one per drawCore group.
type cursor struct {
	*drawCore // nil for groups that do not draw through the pipeline

	// next counts the permutation's consumed prefix: perm[0..next) have been
	// drawn. The permutation is built by an inside-out Fisher–Yates so that
	// consuming a few samples from a huge group costs O(samples), not O(n).
	next int
	disp map[int32]int32
	sc   *drawScratch
	memo blockMemo
}

// scratch returns the cursor's draw scratch, taking it from the group's
// pool on first use.
func (c *cursor) scratch() *drawScratch {
	if c.sc == nil {
		c.sc = c.pool.get()
	}
	return c.sc
}

// densePerm returns the dense permutation, built as the identity the first
// time a scratch is used without replacement.
func (c *cursor) densePerm() []int32 {
	sc := c.scratch()
	if sc.perm == nil {
		sc.perm = make([]int32, c.total)
		for i := range sc.perm {
			sc.perm[i] = int32(i)
		}
	}
	return sc.perm
}

// rowScratch returns the staging buffer with length n.
func (c *cursor) rowScratch(n int) []int32 {
	sc := c.scratch()
	if cap(sc.rows) < n {
		sc.rows = make([]int32, n)
	}
	return sc.rows[:n]
}

// valScratch returns the value buffer with length n.
func (c *cursor) valScratch(n int) []float64 {
	sc := c.scratch()
	if cap(sc.vals) < n {
		sc.vals = make([]float64, n)
	}
	return sc.vals[:n]
}

// read reads the row a population rank denotes through the cursor's memo.
func (c *cursor) read(rank int) float64 { return c.value(&c.memo, rank) }

// permStep performs one inside-out Fisher–Yates step — choose the next
// element uniformly from the unconsumed suffix [next, total) — and returns
// the rank it lands on. Dense and sparse permutations consume the RNG
// identically, so the drawn sequence is bit-for-bit the same either way.
func (c *cursor) permStep(r *xrand.RNG) int32 {
	next := c.next
	j := next + r.Intn(c.total-next)
	c.next++
	if c.sparse {
		pn := c.permAt(int32(next))
		if j != next {
			// Swap perm[next] and perm[j]: both displaced entries are
			// recorded so the map stays a valid permutation.
			pj := c.permAt(int32(j))
			if c.disp == nil {
				c.disp = make(map[int32]int32)
			}
			c.disp[int32(next)] = pj
			c.disp[int32(j)] = pn
			pn = pj
		}
		return pn
	}
	perm := c.densePerm()
	perm[next], perm[j] = perm[j], perm[next]
	return perm[next]
}

// permAt reads the sparse permutation at index i: displaced entries live in
// disp, everything else is identity.
func (c *cursor) permAt(i int32) int32 {
	if v, ok := c.disp[i]; ok {
		return v
	}
	return i
}

// stageWithoutReplacement runs up to n Fisher–Yates steps — fewer only when
// the population runs out — and returns the drawn ranks in draw order,
// without touching the value column.
func (c *cursor) stageWithoutReplacement(r *xrand.RNG, n int) []int32 {
	next, total := c.next, c.total
	if n > total-next {
		n = total - next
	}
	rows := c.rowScratch(n)
	if c.sparse {
		for t := range rows {
			rows[t] = c.permStep(r)
		}
		return rows
	}
	for t := range rows {
		rows[t] = int32(next + t + r.Intn(total-next-t))
	}
	perm := c.densePerm()
	head := perm[next : next+n]
	for t, j := range rows {
		// In order, so a target that is a later step's own slot, or that
		// two steps of the block share, sees the earlier swap.
		pj := perm[j]
		perm[j] = head[t]
		head[t] = pj
		rows[t] = pj
	}
	c.next = next + n
	return rows
}

// stageWithReplacement stages n uniform ranks, exactly the stream n
// successive with-replacement draws consume.
func (c *cursor) stageWithReplacement(r *xrand.RNG, n int) []int32 {
	rows := c.rowScratch(n)
	for i := range rows {
		rows[i] = int32(r.Intn(c.total))
	}
	return rows
}

// gather maps the staged ranks to rows, in place, and reads their values
// into dst in draw order. On a plain column the reads are n independent
// loads; on an mmapped or compressed one they run in ascending row order:
// keys pack (row<<32 | slot), so one sort yields both the visit order and
// where each value belongs.
func (c *cursor) gather(rows []int32, dst []float64) {
	if s := c.sel; s != nil {
		if s.bits != nil {
			if err := s.bits.SelectBatch(rows); err != nil {
				panic(err) // ranks < count by construction
			}
		} else {
			for i, rank := range rows {
				rows[i] = s.idx[rank]
			}
		}
	}
	vals := c.values
	if c.win == nil && !c.seg {
		for i, row := range rows {
			dst[i] = vals[row]
		}
		return
	}
	sc := c.sc
	if cap(sc.keys) < len(rows) {
		sc.keys = make([]uint64, len(rows))
	}
	keys := sc.keys[:len(rows)]
	for slot, row := range rows {
		keys[slot] = uint64(uint32(row))<<32 | uint64(uint32(slot))
	}
	slices.Sort(keys)
	if c.win != nil {
		c.win.gatherKeys(&c.memo, keys, dst)
		return
	}
	for _, k := range keys {
		dst[uint32(k)] = vals[int32(k>>32)]
	}
}

// release ends the run's use of the cursor: the permutation goes back to
// the identity and the scratch to the group's pool. Restoring costs
// O(draws), not O(rows): a consumed prefix [0, next) displaces exactly the
// suffix slots {perm[t] : t < next, perm[t] ≥ next} — a slot leaves the
// identity only by being a step's target, which moves its own index into
// the prefix for good — so one pass over the prefix repairs both.
func (c *cursor) release() {
	if c.sc == nil {
		return
	}
	if perm := c.sc.perm; perm != nil {
		next := c.next
		for t, v := range perm[:next] {
			perm[t] = int32(t)
			if int(v) >= next {
				perm[v] = v
			}
		}
	}
	c.pool.put(c.sc)
	c.sc = nil
}

// Release ends the run's use of its draw state: every cursor's
// permutation is restored to the identity, in O(draws), and handed with
// its staging buffers back to the pool every run over the group shares,
// so the next query over the same rows allocates O(batch) rather than
// 4 B × rows. The sampler must not draw afterwards. A sampler nobody
// releases loses nothing but the recycling.
func (s *Sampler) Release() {
	for i := range s.cursors {
		s.cursors[i].release()
	}
	s.cursors = nil
}

// EnableBlockKernels is a no-op — every group that embeds drawCore draws
// through the staged pipeline — that the benchmark module still calls.
func (s *Sampler) EnableBlockKernels() {}

// DrawBlockSum is DrawBatch into the cursor's own value scratch — the same
// stream, accounting, moments fold and fall-back to with-replacement when
// the population runs out mid-block — returning the block's sum,
// accumulated in draw order on one running total. A block larger than
// blockSumChunk streams through the scratch chunk by chunk on that same
// running total, so the scratch stays bounded and the sum is bit for bit
// that of one pass. Groups that do not draw through the pipeline (virtual
// distributions) have no cursor scratch and stream the same chunks of
// DrawBatch through a pooled buffer. ok is false, and nothing is drawn,
// when n < 1.
//
// Like every draw path, at most one goroutine may call it for a given
// group at a time; distinct groups may be drawn concurrently.
func (s *Sampler) DrawBlockSum(i, n int) (sum float64, ok bool) {
	if n <= 0 {
		return 0, false
	}
	c := &s.cursors[i]
	var pooled *[]float64
	if c.drawCore == nil {
		pooled = blockSumPool.Get().(*[]float64)
	}
	for n > 0 {
		var vals []float64
		if pooled != nil {
			vals = (*pooled)[:min(n, blockSumChunk)]
		} else {
			vals = c.valScratch(min(n, blockSumChunk))
		}
		s.DrawBatch(i, vals)
		for _, v := range vals {
			sum += v
		}
		n -= len(vals)
	}
	if pooled != nil {
		blockSumPool.Put(pooled)
	}
	return sum, true
}

// blockSumChunk bounds DrawBlockSum's value scratch: the largest block the
// BatchAuto schedule draws.
const blockSumChunk = 4096

// blockSumPool holds DrawBlockSum's chunk buffers for groups without a
// cursor scratch.
var blockSumPool = sync.Pool{New: func() any {
	b := make([]float64, blockSumChunk)
	return &b
}}

// eachChunk is how many groups DrawEach stages at once: far more misses in
// flight than the memory system overlaps, in staging that fits the stack.
const eachChunk = 64

// DrawEach draws one sample from each group idx[t] into dst[t], bit for
// bit what Draw(idx[t]) returns, accounting and moments included. It runs
// the pipeline's loops across the groups: stage every target (or WR rank)
// from each group's own stream, swap every permutation slot, read every
// value, then account (one total add per call) and fold moments. Groups
// with no pipeline, a sparse permutation, or an exhausted population fall
// back to Draw in the same call. idx must not repeat a group; at most one
// goroutine may draw a given group at a time.
func (s *Sampler) DrawEach(idx []int, dst []float64) {
	for len(idx) > 0 {
		n := min(len(idx), eachChunk)
		s.drawEach(idx[:n], dst[:n])
		idx, dst = idx[n:], dst[n:]
	}
}

// drawEach is DrawEach over at most eachChunk groups.
func (s *Sampler) drawEach(idx []int, dst []float64) {
	var curBuf [eachChunk]*cursor
	var ranks [eachChunk]int32 // targets, then drawn ranks
	curs := curBuf[:len(idx)]  // nil where Draw served the group
	staged := 0
	for t, i := range idx {
		c := &s.cursors[i]
		if c.drawCore == nil || c.sparse || s.without && c.next >= c.total {
			dst[t] = s.Draw(i)
			continue
		}
		r := &s.streams[i]
		if s.without {
			ranks[t] = int32(c.next + r.Intn(c.total-c.next))
		} else {
			ranks[t] = int32(r.Intn(c.total))
		}
		curs[t] = c
		staged++
	}
	if s.without {
		for t, c := range curs {
			if c != nil {
				perm := c.densePerm()
				next, j := c.next, ranks[t]
				perm[next], perm[j] = perm[j], perm[next]
				ranks[t] = perm[next]
				c.next++
			}
		}
	}
	for t, c := range curs {
		if c != nil {
			dst[t] = c.read(int(ranks[t]))
		}
	}
	for t, c := range curs {
		if c != nil {
			atomic.AddInt64(&s.counts[idx[t]], 1)
			if s.moments != nil && s.autoObserve {
				s.moments[idx[t]].Add(dst[t])
			}
		}
	}
	atomic.AddInt64(&s.total, int64(staged))
}
