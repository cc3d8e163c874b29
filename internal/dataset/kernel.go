// The staged block-draw pipeline: the one draw path behind SliceGroup,
// TableGroup and FilteredGroup, whatever the backing (heap slice, mmapped
// segment chunk, compressed block window) and selection (none, bitmap,
// index slice).
//
// A block of n > 1 draws runs as tight loops, each over the group's int32
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
// A block of one is the scalar path: one direct step, no scratch traffic.
//
// Draw state is recycled, not per-query garbage: the permutation and the
// staging buffers live in a drawScratch taken from a pool shared by every
// view of the group, and handed back — the permutation restored to the
// identity — when the run that used it ends (Universe.ReleaseDraws).
package dataset

import (
	"slices"
	"sync"

	"repro/internal/xrand"
)

// drawScratch is the recyclable part of one view's draw state.
type drawScratch struct {
	perm []int32   // dense Fisher–Yates permutation; the identity whenever pooled
	rows []int32   // a block's targets, then drawn ranks, then rows — draw order
	keys []uint64  // (row<<32 | slot) sort keys of the row-ordered gather
	vals []float64 // a block's values, draw order (DrawBlockSum)
}

// drawCore is the draw machinery SliceGroup and FilteredGroup embed: a
// column accessor, an optional selection over it, and the per-view
// without-replacement state. Exactly one of values and win is set.
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
	// sparse keeps the permutation as a map of displaced entries (disp),
	// identity elsewhere: the same arrangement and RNG discipline as the
	// dense array in O(draws) memory instead of O(rows) — what lets a group
	// far larger than RAM be sampled without replacement. Only
	// segment-backed groups past sparsePermGate use it.
	sparse bool
	// pool recycles drawScratch among every view of the group (views copy
	// the pointer), so its permutations all have length total. A sync.Pool:
	// idle scratch is the garbage collector's to reclaim.
	pool *sync.Pool

	// next counts the permutation's consumed prefix: perm[0..next) have been
	// drawn. The permutation is built by an inside-out Fisher–Yates so that
	// consuming a few samples from a huge group costs O(samples), not O(n).
	next int
	disp map[int32]int32
	sc   *drawScratch
}

func newDrawCore(values []float64, win *blockWindow, sel *selection) drawCore {
	g := drawCore{values: values, win: win, sel: sel, total: len(values), pool: new(sync.Pool)}
	if win != nil {
		g.total = win.n
	}
	if sel != nil {
		g.total = sel.count
	}
	return g
}

// scratch returns the view's draw scratch, taking it from the pool on
// first use.
func (g *drawCore) scratch() *drawScratch {
	if g.sc != nil {
		return g.sc
	}
	g.sc, _ = g.pool.Get().(*drawScratch)
	if g.sc == nil {
		g.sc = new(drawScratch)
	}
	return g.sc
}

// densePerm returns the dense permutation, built as the identity the first
// time a scratch is used without replacement.
func (g *drawCore) densePerm() []int32 {
	sc := g.scratch()
	if sc.perm == nil {
		sc.perm = make([]int32, g.total)
		for i := range sc.perm {
			sc.perm[i] = int32(i)
		}
	}
	return sc.perm
}

// rowScratch returns the staging buffer with length n.
func (g *drawCore) rowScratch(n int) []int32 {
	sc := g.scratch()
	if cap(sc.rows) < n {
		sc.rows = make([]int32, n)
	}
	return sc.rows[:n]
}

// valScratch returns the value buffer with length n.
func (g *drawCore) valScratch(n int) []float64 {
	sc := g.scratch()
	if cap(sc.vals) < n {
		sc.vals = make([]float64, n)
	}
	return sc.vals[:n]
}

// at reads one local row through whichever backing the group has.
func (g *drawCore) at(row int) float64 {
	if g.win != nil {
		return g.win.at(row)
	}
	return g.values[row]
}

// value reads the row a population rank denotes.
func (g *drawCore) value(rank int) float64 {
	if g.sel != nil {
		rank = g.sel.row(rank)
	}
	return g.at(rank)
}

// Draw samples uniformly with replacement: one rank draw, one rank→row
// map, no rejection.
func (g *drawCore) Draw(r *xrand.RNG) float64 { return g.value(r.Intn(g.total)) }

// DrawWithoutReplacement returns the next element of a uniform random
// permutation of the population, built lazily, and false once exhausted.
func (g *drawCore) DrawWithoutReplacement(r *xrand.RNG) (float64, bool) {
	if g.next >= g.total {
		return 0, false
	}
	return g.value(int(g.permStep(r))), true
}

// DrawBatch fills dst with uniform with-replacement samples, exactly the
// stream len(dst) successive Draw calls produce.
func (g *drawCore) DrawBatch(r *xrand.RNG, dst []float64) {
	if len(dst) == 1 {
		dst[0] = g.Draw(r)
		return
	}
	rows := g.rowScratch(len(dst))
	for i := range rows {
		rows[i] = int32(r.Intn(g.total))
	}
	g.gather(rows, dst)
}

// DrawBatchWithoutReplacement consumes up to len(dst) further permutation
// elements and returns how many it produced, exactly the stream that many
// successive DrawWithoutReplacement calls produce.
func (g *drawCore) DrawBatchWithoutReplacement(r *xrand.RNG, dst []float64) int {
	if len(dst) == 1 {
		v, ok := g.DrawWithoutReplacement(r)
		if !ok {
			return 0
		}
		dst[0] = v
		return 1
	}
	rows := g.stageWithoutReplacement(r, len(dst))
	g.gather(rows, dst[:len(rows)])
	return len(rows)
}

// permStep performs one inside-out Fisher–Yates step — choose the next
// element uniformly from the unconsumed suffix [next, total) — and returns
// the rank it lands on. Dense and sparse permutations consume the RNG
// identically, so the drawn sequence is bit-for-bit the same either way.
func (g *drawCore) permStep(r *xrand.RNG) int32 {
	next := g.next
	j := next + r.Intn(g.total-next)
	g.next++
	if g.sparse {
		pn := g.permAt(int32(next))
		if j != next {
			// Swap perm[next] and perm[j]: both displaced entries are
			// recorded so the map stays a valid permutation.
			pj := g.permAt(int32(j))
			if g.disp == nil {
				g.disp = make(map[int32]int32)
			}
			g.disp[int32(next)] = pj
			g.disp[int32(j)] = pn
			pn = pj
		}
		return pn
	}
	perm := g.densePerm()
	perm[next], perm[j] = perm[j], perm[next]
	return perm[next]
}

// permAt reads the sparse permutation at index i: displaced entries live in
// disp, everything else is identity.
func (g *drawCore) permAt(i int32) int32 {
	if v, ok := g.disp[i]; ok {
		return v
	}
	return i
}

// stageWithoutReplacement runs up to n Fisher–Yates steps — fewer only when
// the population runs out — and returns the drawn ranks in draw order,
// without touching the value column.
func (g *drawCore) stageWithoutReplacement(r *xrand.RNG, n int) []int32 {
	next, total := g.next, g.total
	if n > total-next {
		n = total - next
	}
	rows := g.rowScratch(n)
	if g.sparse {
		for t := range rows {
			rows[t] = g.permStep(r)
		}
		return rows
	}
	for t := range rows {
		rows[t] = int32(next + t + r.Intn(total-next-t))
	}
	perm := g.densePerm()
	head := perm[next : next+n]
	for t, j := range rows {
		// In order, so a target that is a later step's own slot, or that
		// two steps of the block share, sees the earlier swap.
		pj := perm[j]
		perm[j] = head[t]
		head[t] = pj
		rows[t] = pj
	}
	g.next = next + n
	return rows
}

// gather maps the staged ranks to rows, in place, and reads their values
// into dst in draw order. On a plain column the reads are n independent
// loads; on an mmapped or compressed one they run in ascending row order:
// keys pack (row<<32 | slot), so one sort yields both the visit order and
// where each value belongs.
func (g *drawCore) gather(rows []int32, dst []float64) {
	if s := g.sel; s != nil {
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
	vals := g.values
	if g.win == nil && !g.seg {
		for i, row := range rows {
			dst[i] = vals[row]
		}
		return
	}
	sc := g.sc
	if cap(sc.keys) < len(rows) {
		sc.keys = make([]uint64, len(rows))
	}
	keys := sc.keys[:len(rows)]
	for slot, row := range rows {
		keys[slot] = uint64(uint32(row))<<32 | uint64(uint32(slot))
	}
	slices.Sort(keys)
	if g.win != nil {
		g.win.gatherKeys(keys, dst)
		return
	}
	for _, k := range keys {
		dst[uint32(k)] = vals[int32(k>>32)]
	}
}

// ResetDraws restarts without-replacement sampling from the identity
// arrangement, so the same RNG stream replays the same draws however many
// runs the group has served. Restoring costs O(draws), not O(rows): a
// consumed prefix [0, next) displaces exactly the suffix slots
// {perm[t] : t < next, perm[t] ≥ next} — a slot leaves the identity only
// by being a step's target, which moves its own index into the prefix for
// good — so one pass over the prefix repairs both.
func (g *drawCore) ResetDraws() {
	next := g.next
	g.next = 0
	g.disp = nil
	if g.sc == nil || g.sc.perm == nil {
		return
	}
	perm := g.sc.perm
	for t, v := range perm[:next] {
		perm[t] = int32(t)
		if int(v) >= next {
			perm[v] = v
		}
	}
}

// releaseDraws ends the view's use of its draw state: the permutation goes
// back to the identity and the scratch to the pool.
func (g *drawCore) releaseDraws() {
	g.ResetDraws()
	if g.sc != nil {
		g.pool.Put(g.sc)
		g.sc = nil
	}
}

// resetView clears the draw state a by-value copy inherited, making the
// copy an independent view: without this it would share (and corrupt) the
// original's scratch. The pool pointer is kept — that is the sharing.
func (g *drawCore) resetView() {
	g.next = 0
	g.disp = nil
	g.sc = nil
	if g.win != nil {
		// The block cursor memoizes draw position; views need their own.
		g.win = g.win.clone()
	}
}

// blockDrawer is implemented by the groups that embed drawCore.
type blockDrawer interface{ core() *drawCore }

func (g *drawCore) core() *drawCore { return g }

// EnableBlockKernels resolves, once, which groups draw through the staged
// pipeline, switching DrawBlockSum on for them. It is a no-op on
// source-fed samplers, whose draws are addressed by offset and never
// touch the groups' draw paths.
func (s *Sampler) EnableBlockKernels() {
	if s.source != nil {
		return
	}
	s.kernels = make([]*drawCore, s.u.K())
	for i, g := range s.u.Groups {
		if bd, ok := g.(blockDrawer); ok {
			s.kernels[i] = bd.core()
		}
	}
}

// DrawBlockSum is DrawBatch into the group's own value scratch — the same
// stream, accounting, moments fold and fall-back to with-replacement when
// the population runs out mid-block — returning the block's sum,
// accumulated in draw order on one running total. ok is false when group i
// does not draw through the pipeline (virtual distributions, custom
// sources, kernels not enabled); the caller falls back to DrawBatch.
//
// Like every draw path, at most one goroutine may call it for a given
// group at a time; distinct groups may be drawn concurrently.
func (s *Sampler) DrawBlockSum(i, n int) (sum float64, ok bool) {
	if s.kernels == nil || n <= 0 || s.kernels[i] == nil {
		return 0, false
	}
	vals := s.kernels[i].valScratch(n)
	s.DrawBatch(i, vals)
	for _, v := range vals {
		sum += v
	}
	return sum, true
}
