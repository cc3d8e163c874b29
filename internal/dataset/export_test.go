package dataset

// DrainDrawPool empties the draw-state pool every run over g shares and
// returns the permutations it held. ok is false for groups that do not
// draw through drawCore.
func DrainDrawPool(g Group) (perms [][]int32, ok bool) {
	bd, ok := g.(blockDrawer)
	if !ok {
		return nil, false
	}
	c := bd.core()
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	for _, sc := range c.pool.free {
		if sc.perm != nil {
			perms = append(perms, sc.perm)
		}
	}
	c.pool.free = nil
	return perms, true
}

// soloSampler returns a stream sampler over a one-group universe.
func soloSampler(g Group, seed uint64) *Sampler {
	return NewStreamSampler(NewUniverse(1, g), seed, true)
}

// pending returns how many values the cursor has staged and not yet handed
// out.
func (c *cursor) pending() int {
	if c.sc == nil {
		return 0
	}
	return len(c.sc.staged) - c.sc.pos
}

// drawWithout takes group i's next without-replacement draw through s,
// reporting false — without drawing — once the population is exhausted.
// Staged values are still part of the population.
func drawWithout(s *Sampler, i int) (float64, bool) {
	if c := &s.cursors[i]; c.next >= c.total && c.pending() == 0 {
		return 0, false
	}
	return s.Draw(i), true
}

// drawBatchWithout fills a prefix of dst with group i's next
// without-replacement draws through s and returns how many it drew —
// fewer than len(dst) only when the population runs out.
func drawBatchWithout(s *Sampler, i int, dst []float64) int {
	c := &s.cursors[i]
	n := min(len(dst), c.total-c.next+c.pending())
	s.DrawBatch(i, dst[:n])
	return n
}

// column returns column c (0 the value column, 1+e extra e) in row order.
func (t *Table) column(c int) []float64 { return t.columnRows(c, 0, t.NumRows()) }

// groupColumn returns group i's values.
func (t *Table) groupColumn(i int) []float64 {
	return t.columnRows(0, t.offsets[i], t.offsets[i+1])
}

// extraColumn returns the named extra column, row-aligned with the value
// column.
func (t *Table) extraColumn(name string) ([]float64, bool) {
	for e, n := range t.extraNames {
		if n == name {
			return t.column(1 + e), true
		}
	}
	return nil, false
}

// columnRows returns rows [lo, hi) of column c: a resident column's own
// slice, or an encoded one's rows decoded through the block cache.
func (t *Table) columnRows(c, lo, hi int) []float64 {
	bc := t.cols[c]
	if !bc.encoded() {
		return bc.flat[lo:hi]
	}
	out := make([]float64, 0, hi-lo)
	(&blockWindow{col: bc, lo: int64(lo), n: hi - lo}).scan(func(v float64) { out = append(out, v) })
	return out
}
