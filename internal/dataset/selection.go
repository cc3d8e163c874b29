// Predicate-filtered sampling. Table.Filter evaluates a conjunction of
// predicates into one selection vector per group — bitmap-backed above a
// density threshold (rank/select via internal/bitmap), a sorted index
// slice below it — and wraps them in a View whose groups implement every
// draw mode the unfiltered table groups do. A filtered draw maps a uniform
// rank in [0, count) to a surviving row in O(1) (index slice) or O(log r)
// (bitmap select); there is never a rejection loop, so every algorithm in
// internal/core runs on filtered data with unchanged ordering guarantees:
// group sizes are the selection cardinalities, without-replacement
// accounting consumes a permutation of ranks, and each group's RNG stream
// discipline is untouched because a filtered draw costs exactly one Intn —
// the same as an unfiltered one.
package dataset

import (
	"fmt"

	"repro/internal/bitmap"
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
// the table's packed columns (no rows are copied) and hold no draw state
// of their own — Groups returns one shared set (like Table.Groups), View
// a fresh set per call (like Table.View), so one cached selection can
// serve any number of sequential or concurrent queries.
type View struct {
	table  *Table
	groups []Group // *FilteredGroup, or *TableGroup view for all-selected groups
	rows   int64
	maxV   float64
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
// natural query bound for filtered runs.
func (v *View) MaxValue() float64 { return v.maxV }

// Groups returns one shared set of sampling groups over the selection.
// Like Table.Groups, the set carries without-replacement draw state and
// must not serve two queries at the same time; concurrent queries take a
// View() each.
func (v *View) Groups() []Group { return v.groups }

// View returns a fresh set of sampling groups over the same selection:
// shared selection vectors and packed columns, independent draw state.
func (v *View) View() []Group {
	fresh := make([]Group, len(v.groups))
	for i, g := range v.groups {
		switch fg := g.(type) {
		case *FilteredGroup:
			cp := *fg
			cp.resetView()
			fresh[i] = &cp
		case *TableGroup:
			cp := *fg
			cp.resetView()
			fresh[i] = &cp
		default:
			fresh[i] = g // unreachable: views hold only the two types above
		}
	}
	return fresh
}

// Universe wraps the view's groups with the value bound c, inferring it
// from the selected maximum when c == 0 (mirroring Table.Universe).
func (v *View) Universe(c float64) (*Universe, error) {
	if c < 0 {
		return nil, fmt.Errorf("dataset: view bound must be non-negative, got %v", c)
	}
	if c == 0 {
		c = v.maxV
		if c == 0 {
			c = 1
		}
	} else if v.maxV > c {
		return nil, fmt.Errorf("dataset: view holds value %v above the declared bound %v", v.maxV, c)
	}
	return NewUniverse(c, v.groups...), nil
}

// Filter evaluates the conjunction of preds and returns a View of the
// surviving rows. Planning is two-tier: group-inclusion predicates answer
// from the table's group index (the offsets) without reading any rows,
// while value predicates — which have no precomputed index — fall back to
// one scan-and-filter pass over the included groups' columns. Groups whose
// selection is empty are dropped; a filter that leaves no rows at all is
// an error. Groups every row of which survives stay plain zero-copy table
// views, so an all-pass filter costs nothing per draw.
func (t *Table) Filter(preds ...Predicate) (*View, error) {
	valuePreds, include, err := t.validatePredicates(preds)
	if err != nil {
		return nil, err
	}
	v := &View{table: t}
	for gi := range t.names {
		if include != nil && !include[gi] {
			continue
		}
		lo, hi := t.offsets[gi], t.offsets[gi+1]
		if len(valuePreds) == 0 {
			// Index path: the group survives whole; its zero-copy table
			// view needs no selection vector at all.
			v.addWhole(t, gi)
			continue
		}
		var sel *selection
		var sum, max float64
		if t.bcols != nil {
			sel, sum, max, err = t.filterGroupBlocks(gi, valuePreds)
			if err != nil {
				return nil, err
			}
		} else {
			sel, sum, max = t.filterGroup(gi, valuePreds)
		}
		switch {
		case sel.count == 0:
			continue
		case sel.count == hi-lo:
			v.addWhole(t, gi)
		default:
			fg := &FilteredGroup{name: t.names[gi], mean: sum / float64(sel.count)}
			if t.bcols != nil {
				fg.drawCore = newDrawCore(nil, newBlockWindow(t.bcols[0], int64(lo), hi-lo), sel)
			} else {
				fg.drawCore = newDrawCore(t.col[lo:hi], nil, sel)
			}
			v.groups = append(v.groups, fg)
			v.rows += int64(sel.count)
			if max > v.maxV {
				v.maxV = max
			}
		}
	}
	if len(v.groups) == 0 {
		return nil, fmt.Errorf("dataset: filter %v matches no rows", preds)
	}
	return v, nil
}

// addWhole appends group gi as an unfiltered zero-copy view. The group's
// max was tracked at build time, so this reads no rows — which keeps the
// inclusion-only path's "group index only" promise honest.
func (v *View) addWhole(t *Table, gi int) {
	tg := *(t.groups[gi].(*TableGroup))
	tg.resetView()
	v.groups = append(v.groups, &tg)
	v.rows += tg.Size()
	if m := tg.MaxValue(); m > v.maxV {
		v.maxV = m
	}
}

// filterGroup evaluates the value predicates over one group's rows and
// builds its selection vector, returning it with the survivors' sum and
// max (the view's mean and bound bookkeeping). Survivors are collected as
// sorted local rows first; dense results convert to a bitmap.
func (t *Table) filterGroup(gi int, preds []resolvedPredicate) (*selection, float64, float64) {
	lo, hi := t.offsets[gi], t.offsets[gi+1]
	col := t.col
	var idx []int32
	sum, max := 0.0, 0.0
	for row := lo; row < hi; row++ {
		ok := true
		for _, p := range preds {
			x := col[row]
			if p.col >= 0 {
				x = t.extras[p.col][row]
			}
			if !p.op.eval(x, p.c) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		idx = append(idx, int32(row-lo))
		sum += col[row]
		if col[row] > max {
			max = col[row]
		}
	}
	return sealSelection(idx, hi-lo), sum, max
}

// sealSelection wraps sorted local survivor rows as a selection, converting
// dense results to a bitmap.
func sealSelection(idx []int32, n int) *selection {
	sel := &selection{count: len(idx)}
	if len(idx) > 0 && float64(len(idx)) >= selectionDenseMin*float64(n) {
		bits := bitmap.New(n)
		for _, r := range idx {
			bits.Set(int(r))
		}
		// Build the rank index before the selection is published: views are
		// cached and shared across concurrent queries, and a lazy build on
		// first Select would race.
		bits.Index()
		sel.bits = bits
	} else {
		sel.idx = idx
	}
	return sel
}

// filterGroupBlocks is filterGroup for compressed tables, with zone-map
// pushdown: each block's manifest [min,max] is tested against every
// predicate first, so blocks no row of which can match are skipped without
// decoding, and predicates every row of a block satisfies are dropped from
// that block's per-row loop. Surviving rows accumulate in ascending order
// and the sum/max fold visits them in that same order, so the selection,
// mean, and bound are bit-for-bit what filterGroup would produce on the
// decoded data. Decode errors (corrupt blocks) are returned, not degraded.
func (t *Table) filterGroupBlocks(gi int, preds []resolvedPredicate) (*selection, float64, float64, error) {
	lo, hi := t.offsets[gi], t.offsets[gi+1]
	bl := t.bcols[0].blockLen
	var idx []int32
	sum, max := 0.0, 0.0
	// live holds the predicates still undecided for the current block,
	// liveCols their decoded column blocks.
	live := make([]resolvedPredicate, 0, len(preds))
	liveCols := make([][]float64, 0, len(preds))
	for b := lo / bl; b*bl < hi; b++ {
		rowLo, rowHi := b*bl, (b+1)*bl
		if rowLo < lo {
			rowLo = lo
		}
		if rowHi > hi {
			rowHi = hi
		}
		live = live[:0]
		skip := false
		for _, p := range preds {
			bc := t.bcols[0]
			if p.col >= 0 {
				bc = t.bcols[1+p.col]
			}
			switch bc.zones[b].relate(p.op, p.c) {
			case zoneNone:
				skip = true
			case zoneAll:
				// Provably true for every row of the block: drop it.
			default:
				live = append(live, p)
			}
			if skip {
				break
			}
		}
		if skip {
			continue
		}
		vals := t.bcols[0].block(b)
		liveCols = liveCols[:0]
		for _, p := range live {
			if p.col >= 0 {
				liveCols = append(liveCols, t.bcols[1+p.col].block(b))
			} else {
				liveCols = append(liveCols, vals)
			}
		}
		base := b * bl
		for row := rowLo; row < rowHi; row++ {
			ok := true
			for pi, p := range live {
				if !p.op.eval(liveCols[pi][row-base], p.c) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			v := vals[row-base]
			idx = append(idx, int32(row-lo))
			sum += v
			if v > max {
				max = v
			}
		}
	}
	if err := t.bcols[0].cache.Err(); err != nil {
		return nil, 0, 0, err
	}
	return sealSelection(idx, hi-lo), sum, max, nil
}

// FilteredGroup is one group of a View: a zero-copy column segment plus a
// selection vector over it, drawn through the same drawCore as SliceGroup —
// every draw mode, and the RNG stream consumed exactly as an equal-sized
// SliceGroup would (one Intn per draw) — so a filtered run is bit-for-bit
// identical to the same run over a pre-materialized table of the surviving
// rows.
type FilteredGroup struct {
	name string
	mean float64
	drawCore
}

// Name returns the group's name.
func (g *FilteredGroup) Name() string { return g.name }

// Size returns the selection cardinality.
func (g *FilteredGroup) Size() int64 { return int64(g.total) }

// TrueMean returns the exact mean of the selected rows (computed during
// the filter pass; verification oracle only).
func (g *FilteredGroup) TrueMean() float64 { return g.mean }

// Scan visits every selected value, enabling bound inference and the SCAN
// baseline on filtered data.
func (g *FilteredGroup) Scan(fn func(v float64)) int64 {
	// Both representations visit rows ascending, so the window path (at)
	// decodes each touched block once through the cursor memo.
	if g.sel.bits != nil {
		g.sel.bits.ForEach(func(pos int) bool {
			fn(g.at(pos))
			return true
		})
	} else {
		for _, r := range g.sel.idx {
			fn(g.at(int(r)))
		}
	}
	return int64(g.total)
}
