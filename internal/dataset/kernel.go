// The staged block-draw pipeline: the one draw path behind SliceGroup,
// TableGroup, FilteredGroup and BitmapGroup, whatever the backing (heap
// slice, mmapped segment chunk, compressed block window, caller's reader)
// and selection (none, bitmap, index slice).
//
// A block of n > 1 draws runs as tight loops, each over the run's int32
// row scratch:
//
//  1. stage   the n Fisher–Yates targets next+t+Intn(total−next−t) (or n
//     with-replacement ranks) from the group's RNG stream;
//  2. swap    the targets through the permutation, leaving the drawn ranks
//     in the scratch (without replacement only);
//  3. gather  map rank→row (identity | SelectBatch | index slice) and read
//     the values, bucketed by block on mmapped and compressed columns;
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
// A one-sample take has no block to overlap within, so it runs the same
// loops one block ahead: a group's drawn sequence depends only on its own
// stream and population, so the cursor draws its next stageLen samples as
// one block into its scratch and hands one out per take. Every draw path
// drains those staged values before it draws afresh, and a staged value
// stays invisible — no count, total, moment or exhaustion flag — until a
// take hands it out. Groups that read through a caller's function
// (BitmapGroup's fetch) never stage, so they read exactly the rows they
// are charged for.
//
// Groups hold no draw state: a run's position in each group's permutation
// is a cursor its Sampler owns, so any number of runs may draw from one
// group set at once. Draw state is recycled, not per-query garbage: a
// cursor's permutation and staging buffers live in a drawScratch taken
// from a free list every run over the group shares — runs over the
// group's filtered views included — and handed back, the permutation
// restored to the identity and the staged values dropped, when the run
// ends (Sampler.Release).
package dataset

import (
	"runtime"
	"sync"

	"repro/internal/par"
	"repro/internal/xrand"
)

// drawScratch is the recyclable part of one run's draw state in a group.
type drawScratch struct {
	perm  []int32   // dense Fisher–Yates permutation; the identity whenever pooled
	rows  []int32   // a block's targets, then drawn ranks, then rows — draw order
	order []int32   // the block-bucketed gather's slots by block, then its bucket ends
	vals  []float64 // a block's values, draw order (DrawBlockSum)
	// staged holds the cursor's next one-sample draws, staged[pos:] not yet
	// handed out; empty whenever pooled.
	staged []float64
	pos    int
}

// drawPool is the free list of draw scratch every run over one group
// shares, runs over its filtered views included. It is last in, first
// out, so a run takes the scratch the previous run released, and it keeps
// at most max idle entries — the GOMAXPROCS of the group's creation, as
// many runs as can draw at once — for the group's lifetime. Unlike a
// sync.Pool it is not emptied by a garbage collection, so a query's
// allocation does not depend on when the collector last ran.
type drawPool struct {
	mu   sync.Mutex
	free []*drawScratch
	max  int
	rows int // every pooled permutation's length, all of it the identity
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

// drawCore is the draw machinery SliceGroup, FilteredGroup and
// BitmapGroup embed: a column accessor and an optional selection over it.
// Exactly one of values, win and fetch is set. It is immutable after
// construction — the per-run draw state is a cursor (below) — so
// concurrent runs share it freely.
type drawCore struct {
	values []float64             // the group's column segment, local row indexing
	win    *blockWindow          // compressed backing: reads decode through the block cache
	fetch  func(row int) float64 // caller's reader (BitmapGroup): one call per drawn row
	sel    *selection            // nil: every row is in the population and rank == row
	total  int                   // population: the rows, or the selection's cardinality
	// seg marks values as an mmapped chunk: blocks gather span by span of
	// DefaultBlockLen rows, so a round touches its O(batch) pages clustered
	// instead of faulting them in random order. Windows gather by column
	// block, so a draw block fetches each column block it touches once.
	seg bool
	// sparse keeps a cursor's permutation as a map of displaced entries
	// (disp), identity elsewhere: the same arrangement and RNG discipline
	// as the dense array in O(draws) memory instead of O(rows) — what lets
	// a group far larger than RAM be sampled without replacement. Only
	// segment-backed groups past sparsePermGate use it.
	sparse bool
	// pool recycles drawScratch among every run over the group and, for
	// a filtered view, over its base group: pool.rows ≥ total.
	pool *drawPool
}

// newDrawCore builds the draw machinery; a nil pool gives it its own.
func newDrawCore(values []float64, win *blockWindow, sel *selection, pool *drawPool) drawCore {
	g := drawCore{values: values, win: win, sel: sel, total: len(values), pool: pool}
	if win != nil {
		g.total = win.n
	}
	if sel != nil {
		g.total = sel.count
	}
	if pool == nil {
		g.pool = &drawPool{max: runtime.GOMAXPROCS(0), rows: g.total}
	}
	return g
}

// at reads one local row through whichever backing the group has; m
// memoizes the compressed block last read.
func (g *drawCore) at(m *blockMemo, row int) float64 {
	switch {
	case g.values != nil:
		return g.values[row]
	case g.win != nil:
		return g.win.at(m, row)
	}
	return g.fetch(row)
}

// value reads the row a population rank denotes.
func (g *drawCore) value(m *blockMemo, rank int) float64 {
	if g.sel != nil {
		rank = g.sel.row(rank)
	}
	return g.at(m, rank)
}

// Draw samples uniformly with replacement: one rank draw, one rank→row
// map, no rejection. Sampler draws go through the run's cursor and its
// block memo instead.
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
	// drawn or staged. The permutation is built by an inside-out Fisher–Yates so that
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

// densePerm returns perm[:total] of the scratch's permutation, built as
// the identity over the pool's rows the first time it is drawn from.
func (c *cursor) densePerm() []int32 {
	sc := c.scratch()
	if sc.perm == nil {
		sc.perm = make([]int32, c.pool.rows)
		for i := range sc.perm {
			sc.perm[i] = int32(i)
		}
	}
	return sc.perm[:c.total]
}

// grow returns the scratch buffer *buf with length n, reallocating it
// only when it is too short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
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
	rows := grow(&c.scratch().rows, n)
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
	rows := grow(&c.scratch().rows, n)
	for i := range rows {
		rows[i] = int32(r.Intn(c.total))
	}
	return rows
}

// gather maps the staged ranks to rows, in place, and reads their values
// into dst in draw order. On a plain column the reads are n independent
// loads. On a compressed window (or an mmapped chunk, in DefaultBlockLen-row
// spans) they go block by block, each block fetched once and read in one
// tight loop; a window with more blocks than the batch has rows reads in
// draw order, as its rows would sit mostly one to a block.
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
	if f := c.fetch; f != nil {
		for i, row := range rows {
			dst[i] = f(int(row))
		}
		return
	}
	vals, w := c.values, c.win
	if w == nil && !c.seg {
		for i, row := range rows {
			dst[i] = vals[row]
		}
		return
	}
	span, off, n := DefaultBlockLen, 0, len(vals)
	if w != nil {
		span, off, n = w.col.blockLen, int(w.lo%int64(w.col.blockLen)), w.n
	}
	nb := (off+n-1)/span + 1
	if nb > len(rows) {
		for i, row := range rows {
			dst[i] = c.at(&c.memo, int(row))
		}
		return
	}
	order := grow(&c.sc.order, len(rows)+nb)
	ends := order[len(rows):]
	blockOrder(rows, off, span, order[:len(rows)], ends)
	start := int32(0)
	for b, end := range ends {
		if start == end {
			continue
		}
		base := 0 // the local row vals[0] holds
		if w != nil {
			vals, base = w.block(&c.memo, int(w.lo)/span+b), b*span-off
		}
		for _, slot := range order[start:end] {
			dst[slot] = vals[int(rows[slot])-base]
		}
		start = end
	}
}

// blockOrder is the gather's counting sort. It writes the slots of rows to
// order grouped by block, local row r being in block (off+r)/span: blocks
// ascending, slots ascending within a block. ends[b] becomes the end of
// block b's run in order, which starts at ends[b-1] (0 for b = 0).
func blockOrder(rows []int32, off, span int, order, ends []int32) {
	clear(ends)
	for _, row := range rows {
		ends[(off+int(row))/span]++
	}
	var sum int32
	for b, n := range ends {
		ends[b] = sum
		sum += n
	}
	for slot, row := range rows {
		b := (off + int(row)) / span
		order[ends[b]] = int32(slot)
		ends[b]++
	}
}

// stageLen is how many draws a one-sample take stages at once: one block
// of the pipeline, its misses overlapped, in a scratch that stays in L1.
const stageLen = 64

// unstage hands out the cursor's next staged value, if it has one.
func (c *cursor) unstage() (float64, bool) {
	sc := c.sc
	if sc == nil || sc.pos == len(sc.staged) {
		return 0, false
	}
	sc.pos++
	return sc.staged[sc.pos-1], true
}

// stage draws the cursor's next stageLen samples — fewer only when a
// without-replacement population runs out first — as one pipeline block
// into its staged buffer, and hands out the first.
func (c *cursor) stage(r *xrand.RNG, without bool) float64 {
	var rows []int32
	if without {
		rows = c.stageWithoutReplacement(r, stageLen)
	} else {
		rows = c.stageWithReplacement(r, stageLen)
	}
	sc := c.sc
	sc.staged = grow(&sc.staged, len(rows))
	c.gather(rows, sc.staged)
	sc.pos = 1
	return sc.staged[0]
}

// release ends the run's use of the cursor: the permutation goes back to
// the identity, the staged values are dropped and the scratch goes to the
// group's pool. Restoring costs O(draws), not O(rows): a consumed prefix
// [0, next) displaces exactly the suffix slots {perm[t] : t < next,
// perm[t] ≥ next} — a slot leaves the identity only by being a step's
// target, which moves its own index into the prefix for good — so one
// pass over the prefix repairs both. It touches no slot past total, the
// tail a view of fewer rows never uses.
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
	c.sc.staged, c.sc.pos = c.sc.staged[:0], 0
	c.pool.put(c.sc)
	c.sc = nil
}

// Release ends the run's use of its draw state: every cursor's
// permutation is restored to the identity, in O(draws), its staged values
// are dropped, and it is handed with its staging buffers back to the pool
// every run over the group shares, so the next query over the same rows
// allocates O(batch) rather than 4 B × rows. The sampler must not draw afterwards. A sampler nobody
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
// accumulated in draw order on one running total. ok is false, and nothing
// is drawn, when n < 1.
//
// Like every draw path, at most one goroutine may call it for a given
// group at a time; distinct groups may be drawn concurrently.
func (s *Sampler) DrawBlockSum(i, n int) (sum float64, ok bool) {
	if n <= 0 {
		return 0, false
	}
	sum = s.blockSum(i, n)
	s.total.Add(int64(n))
	return sum, true
}

// blockSum draws n samples from group i, counted and folded into its
// moments but not into the total, and returns their sum. A block larger
// than blockSumChunk streams through the scratch chunk by chunk on one
// running total, so the scratch stays bounded and the sum is bit for bit
// that of one pass. Groups that do not draw through the pipeline (virtual
// distributions) have no cursor scratch and stream the same chunks through
// a pooled buffer.
func (s *Sampler) blockSum(i, n int) (sum float64) {
	c := &s.cursors[i]
	var buf *[]float64
	if c.drawCore != nil {
		buf = &c.scratch().vals
	} else {
		buf = blockSumPool.Get().(*[]float64)
	}
	for n > 0 {
		vals := grow(buf, min(n, blockSumChunk))
		s.fill(i, vals)
		for _, v := range vals {
			sum += v
		}
		n -= len(vals)
	}
	if c.drawCore == nil {
		blockSumPool.Put(buf)
	}
	return sum
}

// blockSumChunk bounds DrawBlockSum's value scratch: the largest block the
// BatchAuto schedule draws.
const blockSumChunk = 4096

// blockSumPool holds DrawBlockSum's chunk buffers for groups without a
// cursor scratch.
var blockSumPool = sync.Pool{New: func() any { return new([]float64) }}

// minParallelRoundDraws is the phase volume below which DrawRound always
// runs inline: dispatching the pool costs on the order of microseconds, so
// scalar and near-scalar phases (one block per group, tiny blocks) never
// pay for it.
const minParallelRoundDraws = 1024

// Take is one entry of a draw phase's plan: N draws from group I or, in a
// scatter sampler, from unit I. DrawRound sets a group take's Sum to the
// sum of its values, accumulated in draw order; a unit's tuples land in
// the groups they reveal instead.
type Take struct {
	I, N int
	Sum  float64
}

// Scatter lays out the draws of a run whose units cannot target a group:
// each tuple a unit draws lands in the group it reveals. Unit u serves
// groups [u·k/Units, (u+1)·k/Units) and draws on the stream of its first
// group. Units may draw concurrently, so the functions may touch only
// state owned by the unit's groups.
type Scatter struct {
	Units int
	// Draw takes one tuple from unit u on r: the group it lands in and its
	// value.
	Draw func(u int, r *xrand.RNG) (group int, v float64)
	// Pick, set instead of Draw, only chooses the tuple's group; the
	// landing reads one of the group's rows, uniformly with replacement, on
	// r.
	Pick func(u int, r *xrand.RNG) (group int)
	// Fold folds a tuple's value into group i's estimate, count being the
	// group's draws with this one, and reports whether the group still
	// estimates: only then does the value join the group's moments.
	Fold func(i int, count int64, v float64) bool
}

// NewRoundSampler is NewStreamSampler for a round-based run. DrawRound
// fans a phase across at most workers goroutines: 0 sizes the fan-out to
// the machine, and any request is clamped to GOMAXPROCS (goroutines beyond
// the schedulable parallelism only add handoff cost) and to the group
// count. With sc set, plans name sc's units rather than groups.
func NewRoundSampler(u *Universe, base uint64, withoutReplacement bool, workers int, sc *Scatter) *Sampler {
	s := NewStreamSampler(u, base, withoutReplacement)
	if maxPar := runtime.GOMAXPROCS(0); workers == 0 || workers > maxPar {
		workers = maxPar
	}
	s.workers = min(workers, u.K())
	s.scatter = sc
	return s
}

// DrawRound draws one phase of a round: every take of plan, each group (or
// unit) listed at most once. A one-sample take is handed the group's next
// staged value, any other take draws through the staged block pipeline,
// and a scatter sampler lands each unit's tuples. A phase of at least
// minParallelRoundDraws draws over more than one take fans the takes
// across the sampler's workers. Counts and moments are kept by each take,
// on the goroutine that draws its group; the phase's draws join the total
// once, after the barrier. Every group's stream, and so every value and
// Sum, is the same whichever way the phase runs; a Fold call runs on the
// goroutine that draws its unit, in the unit's draw order.
func (s *Sampler) DrawRound(plan []Take) {
	draws := 0
	for _, t := range plan {
		draws += t.N
	}
	if s.workers > 1 && len(plan) > 1 && draws >= minParallelRoundDraws {
		par.For(len(plan), s.workers, func(j int) { s.take(&plan[j]) })
	} else {
		for j := range plan {
			s.take(&plan[j])
		}
	}
	s.total.Add(int64(draws))
}

// take draws one take of a phase, leaving the total to DrawRound.
func (s *Sampler) take(t *Take) {
	switch {
	case s.scatter != nil:
		s.land(t.I, t.N)
	case t.N == 1:
		t.Sum = s.drawOne(t.I)
	default:
		t.Sum = s.blockSum(t.I, t.N)
	}
}

// land draws n tuples from scatter unit u on the stream of its first
// group. Each is counted for the group it lands in and handed to Fold; the
// total is DrawRound's.
func (s *Sampler) land(u, n int) {
	sc := s.scatter
	r := &s.streams[u*(len(s.streams)/sc.Units)]
	for ; n > 0; n-- {
		var i int
		var v float64
		if sc.Pick != nil {
			i = sc.Pick(u, r)
			v = s.read(i, r)
		} else {
			i, v = sc.Draw(u, r)
		}
		s.counts[i]++
		if sc.Fold(i, s.counts[i], v) && s.moments != nil {
			s.moments[i].Add(v)
		}
	}
}
