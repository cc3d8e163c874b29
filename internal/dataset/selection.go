// Predicate-filtered sampling. Table.Filter evaluates a conjunction of
// predicates into one selection vector per group — bitmap-backed above a
// density threshold (rank/select via internal/bitmap), a sorted index
// slice below it — and wraps them in a View whose groups implement every
// draw mode the unfiltered table groups do. Planning is one block loop over
// the table's columns, whatever their storage: zone maps settle whole
// blocks, the remaining predicates compare in place on the stored form
// (blockColumn.selectBlock) into 64-verdict words, and the words are ORed
// straight into each group's bitmap; no value is decoded
// and no value statistic is computed until something asks for one. A
// filtered draw maps a uniform rank in [0, count) to a surviving row in
// O(1) (index slice) or O(log r) (bitmap select); there is never a
// rejection loop, so every algorithm in internal/core runs on filtered
// data with unchanged ordering guarantees: group sizes are the selection
// cardinalities, without-replacement accounting consumes a permutation of
// ranks, and each group's RNG stream discipline is untouched because a
// filtered draw costs exactly one Intn — the same as an unfiltered one.
package dataset

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bitmap"
	"repro/internal/colcodec"
)

// selectionDenseMin is the survivor density (count/groupRows) at and above
// which a group's selection is stored as a bitmap rather than a sorted
// index slice. At 1/32 the two representations tie in memory (1 bit per
// row vs 32 bits per survivor); denser selections favor the bitmap's
// constant footprint, sparser ones the slice's O(1) rank→row lookup.
const selectionDenseMin = 1.0 / 32

// selection is one group's filtered row set, in local (within-group) row
// coordinates. Exactly one of idx and bits is set.
type selection struct {
	count int
	idx   []int32        // sorted local rows, sparse representation
	bits  *bitmap.Bitmap // dense representation with rank/select
}

// row maps a selection rank to the local row it denotes: O(1) on the index
// slice, O(log n) bitmap select on the dense form.
func (s *selection) row(rank int) int {
	if s.bits != nil {
		pos, err := s.bits.Select(rank)
		if err != nil {
			panic(err) // rank < count by construction
		}
		return pos
	}
	return int(s.idx[rank])
}

// View is the result of filtering a Table: the surviving groups, each
// restricted to its selected rows, in the table's group order. Views share
// the table's packed columns (no rows are copied) and hold selections
// only, never draw state, so one cached selection can serve any number of
// sequential or concurrent queries.
type View struct {
	table  *Table
	groups []Group // *FilteredGroup, or the table's *TableGroup for all-selected groups
	rows   int64

	maxOnce sync.Once
	maxV    float64 // set by maxOnce
}

// Table returns the filtered table.
func (v *View) Table() *Table { return v.table }

// K returns the number of surviving groups.
func (v *View) K() int { return len(v.groups) }

// Names returns the surviving group names, in table group order.
func (v *View) Names() []string {
	names := make([]string, len(v.groups))
	for i, g := range v.groups {
		names[i] = g.Name()
	}
	return names
}

// NumRows returns the total number of selected rows.
func (v *View) NumRows() int64 { return v.rows }

// MaxValue returns the largest selected value (0 for an empty view), the
// natural query bound for filtered runs. Planning never reads the value
// column, so the first call scans the filtered groups' selected values
// (whole groups answer from their build-time maximum); later calls, from
// any goroutine, return the same result.
func (v *View) MaxValue() float64 {
	v.maxOnce.Do(func() {
		for _, g := range v.groups {
			var m float64
			switch g := g.(type) {
			case *TableGroup:
				m = g.MaxValue()
			case *FilteredGroup:
				_, m = g.valueStats()
			}
			if m > v.maxV {
				v.maxV = m
			}
		}
	})
	return v.maxV
}

// Groups returns the view's sampling groups, built once. Like
// Table.Groups, they are immutable and may serve any number of queries at
// once.
func (v *View) Groups() []Group { return v.groups }

// View returns Groups(); the benchmark module still calls it.
func (v *View) View() []Group { return v.groups }

// Universe wraps the view's groups with the value bound c, inferring it
// from the selected maximum when c == 0 (mirroring Table.Universe).
func (v *View) Universe(c float64) (*Universe, error) {
	if c < 0 {
		return nil, fmt.Errorf("dataset: view bound must be non-negative, got %v", c)
	}
	maxV := v.MaxValue()
	if c == 0 {
		c = maxV
		if c == 0 {
			c = 1
		}
	} else if maxV > c {
		return nil, fmt.Errorf("dataset: view holds value %v above the declared bound %v", maxV, c)
	}
	return NewUniverse(c, v.groups...), nil
}

// Filter evaluates the conjunction of preds and returns a View of the
// surviving rows. Group-inclusion predicates answer from the table's group
// index (the offsets) without reading any rows. Value predicates are
// evaluated by selectRows' one block loop, comparing in place on the
// stored bytes without decoding them. Groups whose selection is empty are
// dropped; a filter that leaves no rows at all is an error. Groups every
// row of which survives stay plain zero-copy table views, so an all-pass
// filter costs nothing per draw. On a compressed table that has already
// recorded a block-decode failure, Filter returns that error instead of
// planning over known-corrupt data.
func (t *Table) Filter(preds ...Predicate) (*View, error) {
	if err := t.cols[0].err(); err != nil {
		return nil, err
	}
	valuePreds, include, err := t.validatePredicates(preds)
	if err != nil {
		return nil, err
	}
	var sels []*bitmap.Bitmap
	if len(valuePreds) > 0 {
		if sels, err = t.selectRows(valuePreds, include); err != nil {
			return nil, err
		}
	}
	v := &View{table: t}
	for gi := range t.names {
		if include != nil && !include[gi] {
			continue
		}
		if sels == nil {
			// Index path: the group survives whole; its zero-copy table
			// view needs no selection vector at all.
			v.addWhole(t, gi)
			continue
		}
		lo, hi := t.offsets[gi], t.offsets[gi+1]
		switch count := sels[gi].Count(); count {
		case 0:
		case hi - lo:
			v.addWhole(t, gi)
		default:
			sel := seal(sels[gi], count)
			fg := &FilteredGroup{name: t.names[gi]}
			// A bitmap view borrows its base group's pool; an index view
			// keeps its own, no larger than its index (DESIGN §8).
			base := &t.groups[gi].(*TableGroup).drawCore
			pool := base.pool
			if sel.bits == nil {
				pool = nil
			}
			fg.drawCore = newDrawCore(base.values, base.win, sel, pool)
			fg.sparse = base.sparse
			v.groups = append(v.groups, fg)
			v.rows += int64(count)
		}
	}
	if len(v.groups) == 0 {
		return nil, fmt.Errorf("dataset: filter %v matches no rows", preds)
	}
	return v, nil
}

// addWhole appends the table's own group gi, reading no rows.
func (v *View) addWhole(t *Table, gi int) {
	tg := t.groups[gi].(*TableGroup)
	v.groups = append(v.groups, tg)
	v.rows += tg.Size()
}

// selectRows evaluates the value predicates into one survivor bitmap per
// included group (nil for excluded groups), in local row coordinates. It
// walks the table in its columns' blocks (blockcol.go), skipping blocks no
// included group overlaps. Per block, verdicts writes the conjunction's
// verdict string, which is ORed into every included group the block
// overlaps: a block can span group boundaries, so each group takes its own
// bit range.
func (t *Table) selectRows(preds []resolvedPredicate, include map[int]bool) ([]*bitmap.Bitmap, error) {
	slices.SortStableFunc(preds, func(a, b resolvedPredicate) int { return cmp.Compare(a.col, b.col) })
	sels := make([]*bitmap.Bitmap, len(t.names))
	for gi := range sels {
		if include == nil || include[gi] {
			sels[gi] = bitmap.New(t.offsets[gi+1] - t.offsets[gi])
		}
	}
	bl := t.cols[0].blockLen
	words := make([]uint64, (bl+63)/64)
	scratch := make([]uint64, len(words))
	first := 0 // first group ending after the current block's start
	for lo, rows := 0, t.NumRows(); lo < rows; lo += bl {
		hi := min(lo+bl, rows)
		for t.offsets[first+1] <= lo {
			first++
		}
		end := first // one past the last group starting before hi
		need := false
		for ; end < len(sels) && t.offsets[end] < hi; end++ {
			need = need || sels[end] != nil
		}
		if !need {
			continue
		}
		ok, err := t.verdicts(lo/bl, hi-lo, preds, words, scratch)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		for gi := first; gi < end; gi++ {
			if sels[gi] == nil {
				continue
			}
			from, to := max(lo, t.offsets[gi]), min(hi, t.offsets[gi+1])
			sels[gi].OrWords(from-t.offsets[gi], words, from-lo, to-from)
		}
	}
	return sels, nil
}

// verdicts writes into words the conjunction's verdicts for the n rows of
// block b of the table, one bit per row; it reports false when a zone map
// proves no row of the block matches. preds come sorted by column. Zone
// maps settle predicates whole blocks at a time; each column's remaining
// predicates compare in place as one conjunction, and the columns' verdict
// strings are ANDed into words.
func (t *Table) verdicts(b, n int, preds []resolvedPredicate, words, scratch []uint64) (bool, error) {
	nw := (n + 63) / 64
	words, scratch = words[:nw], scratch[:nw]
	for _, p := range preds {
		if t.cols[1+p.col].zone(b).relate(p.op, p.c) == zoneNone {
			return false, nil
		}
	}
	for i := range words {
		words[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		words[nw-1] = 1<<r - 1
	}
	conj := make([]colcodec.Cmp, 0, 8)
	for i := 0; i < len(preds); {
		col := preds[i].col
		conj = conj[:0]
		for ; i < len(preds) && preds[i].col == col; i++ {
			p := preds[i]
			if t.cols[1+col].zone(b).relate(p.op, p.c) != zoneAll {
				conj = append(conj, colcodec.Cmp{Op: p.op.codec(), C: p.c})
			}
		}
		if len(conj) == 0 {
			continue
		}
		if err := t.cols[1+col].selectBlock(b, conj, scratch); err != nil {
			return false, err
		}
		for k := range words {
			words[k] &= scratch[k]
		}
	}
	return true, nil
}

// seal turns a group's survivor bitmap, count bits set, into its
// selection: the bitmap itself at density selectionDenseMin and above, its
// sorted rows below.
func seal(bits *bitmap.Bitmap, count int) *selection {
	sel := &selection{count: count}
	if float64(count) >= selectionDenseMin*float64(bits.Len()) {
		// Build the rank index before the selection is published: views are
		// cached and shared across concurrent queries, and a lazy build on
		// first Select would race.
		bits.Index()
		sel.bits = bits
		return sel
	}
	sel.idx = make([]int32, 0, count)
	bits.ForEach(func(pos int) bool {
		sel.idx = append(sel.idx, int32(pos))
		return true
	})
	return sel
}

// FilteredGroup is one group of a View: a zero-copy column segment plus a
// selection vector over it, drawn through the same drawCore as SliceGroup —
// every draw mode, and the RNG stream consumed exactly as an equal-sized
// SliceGroup would (one Intn per draw) — so a filtered run is bit-for-bit
// identical to the same run over a pre-materialized table of the surviving
// rows.
type FilteredGroup struct {
	name string
	drawCore

	stats     sync.Once
	mean, max float64 // set by stats
}

// Name returns the group's name.
func (g *FilteredGroup) Name() string { return g.name }

// Size returns the selection cardinality.
func (g *FilteredGroup) Size() int64 { return int64(g.total) }

// TrueMean returns the exact mean of the selected rows (verification
// oracle only; the first call scans them).
func (g *FilteredGroup) TrueMean() float64 {
	mean, _ := g.valueStats()
	return mean
}

// valueStats returns the selected rows' mean and maximum, folded once, on
// first use, over the rows in ascending order — the order a scan of a
// pre-materialized table of the survivors would take, so both are
// bit-for-bit that table's.
func (g *FilteredGroup) valueStats() (mean, max float64) {
	g.stats.Do(func() {
		sum := 0.0
		g.Scan(func(v float64) {
			sum += v
			if v > g.max {
				g.max = v
			}
		})
		g.mean = sum / float64(g.total)
	})
	return g.mean, g.max
}

// Scan visits every selected value, enabling bound inference and the SCAN
// baseline on filtered data.
func (g *FilteredGroup) Scan(fn func(v float64)) int64 {
	// Both representations visit rows ascending, so the window path (at)
	// decodes each touched block once through the memo.
	var m blockMemo
	if g.sel.bits != nil {
		g.sel.bits.ForEach(func(pos int) bool {
			fn(g.at(&m, pos))
			return true
		})
	} else {
		for _, r := range g.sel.idx {
			fn(g.at(&m, int(r)))
		}
	}
	return int64(g.total)
}
