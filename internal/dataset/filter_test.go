package dataset

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// filterBackings returns one table under every backing Filter serves: the
// in-memory heap table, its v1 (raw mmap) segments, and compressed v2
// segments at block lengths 64, 1000 and 65536. The columns are shaped so
// each codec appears: "value" and "x" are scaled decimals (FOR), "t" counts
// within its group (Delta), "d" holds a few non-decimal values with a NaN,
// -0 and +Inf among them (Dict), and "r" is full-mantissa noise (Raw). The
// group sizes put group boundaries inside blocks and across them, and the
// largest groups span several 65536-row blocks.
func filterBackings(t *testing.T) (heap *Table, backings map[string]*Table) {
	t.Helper()
	b := NewTableBuilderColumns("value", "x", "t", "d", "r")
	rng := xrand.New(0xf17e)
	alphabet := []float64{math.Pi, math.E, math.Sqrt2, math.NaN(), math.Copysign(0, -1), math.Inf(1)}
	for gi, n := range []int{1, 63, 64, 1000, 65, 70000, 2, 90000} {
		name := fmt.Sprintf("g%d", gi)
		for i := 0; i < n; i++ {
			err := b.AddRow(name, float64(rng.Intn(10000))/100,
				float64(rng.Intn(1000)), float64(i), alphabet[rng.Intn(len(alphabet))], rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	heap, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	backings = map[string]*Table{"heap": heap}
	v1 := t.TempDir()
	if err := heap.WriteSegments(v1); err != nil {
		t.Fatal(err)
	}
	open := func(name, dir string) {
		st, err := OpenSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		backings[name] = st.Table
	}
	open("v1", v1)
	for _, bl := range []int{64, 1000, 65536} {
		dir := t.TempDir()
		writeCompressed(t, heap, dir, bl)
		open(fmt.Sprintf("v2/blocklen=%d", bl), dir)
	}
	return heap, backings
}

// definition evaluates a conjunction row by row over the heap table: the
// surviving local rows of every group, nil for groups an inclusion
// predicate drops.
func definition(tab *Table, preds []Predicate) [][]int32 {
	rows := make([][]int32, tab.K())
	for gi := range rows {
		lo, hi := tab.offsets[gi], tab.offsets[gi+1]
		rows[gi] = []int32{}
	rowLoop:
		for r := lo; r < hi; r++ {
			for _, p := range preds {
				if len(p.Groups) > 0 {
					if !slices.Contains(p.Groups, tab.names[gi]) {
						rows[gi] = nil
						break rowLoop
					}
					continue
				}
				v := tab.col[r]
				if p.Column != "" && p.Column != "value" {
					e := slices.Index(tab.extraNames, p.Column)
					v = tab.extras[e][r]
				}
				if !p.Op.codec().Eval(v, p.Value) {
					continue rowLoop
				}
			}
			rows[gi] = append(rows[gi], int32(r-lo))
		}
	}
	return rows
}

// selectedRows lists a filtered group's selected local rows.
func selectedRows(g *FilteredGroup) []int32 {
	if g.sel.bits == nil {
		return g.sel.idx
	}
	var rows []int32
	g.sel.bits.ForEach(func(pos int) bool {
		rows = append(rows, int32(pos))
		return true
	})
	return rows
}

// TestFilterMatchesDefinitionEveryBacking: on every backing, Filter keeps
// exactly the rows the conjunction's definition keeps, in the
// representation the density threshold prescribes — whole groups as the
// table's own group, then a bitmap at 1/32 and above, a sorted index below
// — for one to three conjuncts over every codec, at selectivities on both
// sides of 1/32 and at the all and none extremes.
func TestFilterMatchesDefinitionEveryBacking(t *testing.T) {
	heap, backings := filterBackings(t)
	filters := [][]Predicate{
		{{Column: "x", Op: OpLT, Value: 20}},  // 2 %: index slices
		{{Column: "x", Op: OpLT, Value: 31}},  // 3.1 %: straddles 1/32
		{{Column: "x", Op: OpLT, Value: 33}},  // 3.3 %
		{{Column: "x", Op: OpGE, Value: 500}}, // dense
		{{Column: "x", Op: OpEQ, Value: 7}},
		{{Column: "x", Op: OpNE, Value: 7}},
		{{Column: "x", Op: OpLE, Value: 999}}, // every row: whole groups
		{{Column: "value", Op: OpGT, Value: 99.5}, {Column: "t", Op: OpLT, Value: 50000}},
		{{Column: "t", Op: OpGE, Value: 1000}, {Column: "x", Op: OpNE, Value: 3}, {Column: "r", Op: OpLT, Value: 0.5}},
		{{Column: "t", Op: OpLT, Value: 64}, {Column: "value", Op: OpLE, Value: 50.25}},
		{{Column: "d", Op: OpEQ, Value: math.Pi}},
		{{Column: "d", Op: OpNE, Value: math.Pi}, {Column: "d", Op: OpLT, Value: math.Inf(1)}},
		{{Column: "d", Op: OpGE, Value: 0}, {Column: "r", Op: OpGT, Value: 0.97}},
		{{Column: "r", Op: OpLE, Value: 0.01}},
		{{Column: "x", Op: OpLT, Value: 500}, {Groups: []string{"g0", "g3", "g7"}}},
		{{Column: "x", Op: OpGT, Value: 2000}}, // matches nothing: an error
	}
	for fi, preds := range filters {
		want := definition(heap, preds)
		for name, tab := range backings {
			v, err := tab.Filter(preds...)
			total := 0
			for _, rows := range want {
				total += len(rows)
			}
			if total == 0 {
				if err == nil {
					t.Fatalf("filter %d on %s: %d groups selected, want the no-rows error", fi, name, v.K())
				}
				continue
			}
			if err != nil {
				t.Fatalf("filter %d on %s: %v", fi, name, err)
			}
			gi := 0
			for wi, rows := range want {
				if len(rows) == 0 {
					continue
				}
				if gi >= v.K() {
					t.Fatalf("filter %d on %s: view lacks group %s", fi, name, tab.names[wi])
				}
				n := tab.offsets[wi+1] - tab.offsets[wi]
				switch g := v.Groups()[gi].(type) {
				case *TableGroup:
					if g != tab.Groups()[wi] || len(rows) != n {
						t.Fatalf("filter %d on %s group %s: whole group, definition keeps %d of %d rows", fi, name, g.Name(), len(rows), n)
					}
				case *FilteredGroup:
					if g.Name() != tab.names[wi] || !slices.Equal(selectedRows(g), rows) {
						t.Fatalf("filter %d on %s group %s: selection differs from the definition (%d vs %d rows)",
							fi, name, g.Name(), g.Size(), len(rows))
					}
					if dense := float64(len(rows)) >= selectionDenseMin*float64(n); dense != (g.sel.bits != nil) {
						t.Fatalf("filter %d on %s group %s: %d of %d rows stored as bitmap=%v", fi, name, g.Name(), len(rows), n, !dense)
					}
				}
				gi++
			}
			if gi != v.K() || v.NumRows() != int64(total) {
				t.Fatalf("filter %d on %s: %d groups/%d rows, definition %d/%d", fi, name, v.K(), v.NumRows(), gi, total)
			}
		}
	}
}

// TestFilterLeavesBlockCacheUntouched: planning on a compressed table
// compares in place, so the decoded-block LRU — warmed here by a draw —
// holds the same entries in the same order after any number of filters.
func TestFilterLeavesBlockCacheUntouched(t *testing.T) {
	tab := buildTestTable(t)
	dir := t.TempDir()
	writeCompressed(t, tab, dir, 32)
	st, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var buf [64]float64
	NewStreamSampler(NewUniverse(1, st.Groups()[1]), 1, false).DrawBatch(0, buf[:])
	snapshot := func() ([]uint64, map[uint64]*float64) {
		st.cache.mu.Lock()
		defer st.cache.mu.Unlock()
		vals := map[uint64]*float64{}
		for k, v := range st.cache.entries {
			vals[k] = &v[0]
		}
		return slices.Clone(st.cache.order), vals
	}
	order, entries := snapshot()
	if len(order) == 0 {
		t.Fatal("the draw decoded no block")
	}
	for _, preds := range [][]Predicate{
		{{Column: "delay", Op: OpLT, Value: 20}},
		{{Column: "elapsed", Op: OpGT, Value: 50}, {Column: "distance", Op: OpLE, Value: 150}},
		{{Column: "distance", Op: OpNE, Value: 5}, {Groups: []string{"UA"}}},
	} {
		if _, err := st.Filter(preds...); err != nil {
			t.Fatal(err)
		}
	}
	gotOrder, gotEntries := snapshot()
	if !slices.Equal(order, gotOrder) || len(entries) != len(gotEntries) {
		t.Fatalf("filter changed the block cache: order %v -> %v", order, gotOrder)
	}
	for k, p := range entries {
		if gotEntries[k] != p {
			t.Fatalf("filter replaced cached block %x", k)
		}
	}
}

// TestFilterReturnsStickyDecodeError: once a draw has hit a corrupt block,
// the table's cache holds the failure, and Filter reports it instead of
// planning over known-corrupt data — even when no predicate reads the
// damaged column.
func TestFilterReturnsStickyDecodeError(t *testing.T) {
	tab := buildTestTable(t)
	dir := t.TempDir()
	writeCompressed(t, tab, dir, 64)
	corruptFile(t, filepath.Join(dir, "value.seg"), func(b []byte) []byte {
		b[SegmentDataOffset+20] ^= 0x40 // inside the first value block's payload
		return b
	})
	st, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pred := Predicate{Column: "distance", Op: OpLT, Value: 30}
	if _, err := st.Filter(pred); err != nil {
		t.Fatalf("filter before any draw: %v", err)
	}
	var buf [128]float64
	NewStreamSampler(NewUniverse(1, st.Groups()[0]), 1, false).DrawBatch(0, buf[:])
	if _, err := st.Filter(pred); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("filter after a draw hit the corrupt block: %v", err)
	}
}

// TestFilterNamesCorruptPredicateBlock: a corrupt block in a predicate
// column fails planning with the column's name and the block index.
func TestFilterNamesCorruptPredicateBlock(t *testing.T) {
	tab := buildTestTable(t)
	dir := t.TempDir()
	writeCompressed(t, tab, dir, 64)
	corruptFile(t, filepath.Join(dir, "extra.0.seg"), func(b []byte) []byte {
		b[SegmentDataOffset+20] ^= 0x40
		return b
	})
	st, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = st.Filter(Predicate{Column: "elapsed", Op: OpGT, Value: 20})
	if err == nil || !strings.Contains(err.Error(), `column "elapsed" block 0: `) {
		t.Fatalf("filter over a corrupt predicate block: %v", err)
	}
}

// TestViewStatsConcurrent: a freshly planned view's value statistics are
// computed on first use; many goroutines asking at once must all get the
// eager fold's values — sum and max over the selected rows in ascending
// order — bit for bit. Run under -race.
func TestViewStatsConcurrent(t *testing.T) {
	heap, backings := filterBackings(t)
	preds := []Predicate{{Column: "x", Op: OpLT, Value: 300}, {Column: "t", Op: OpGE, Value: 10}}
	want := definition(heap, preds)
	wantMax := 0.0
	var wantMeans []float64
	for gi, rows := range want {
		if len(rows) == 0 {
			continue
		}
		sum, max := 0.0, 0.0
		for _, r := range rows {
			v := heap.col[heap.offsets[gi]+int(r)]
			sum += v
			if v > max {
				max = v
			}
		}
		wantMeans = append(wantMeans, sum/float64(len(rows)))
		if max > wantMax {
			wantMax = max
		}
	}
	for name, tab := range backings {
		v, err := tab.Filter(preds...)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := v.MaxValue(); math.Float64bits(got) != math.Float64bits(wantMax) {
					t.Errorf("%s: MaxValue %v, want %v", name, got, wantMax)
				}
				for gi, g := range v.Groups() {
					if got := g.TrueMean(); math.Float64bits(got) != math.Float64bits(wantMeans[gi]) {
						t.Errorf("%s group %s: TrueMean %v, want %v", name, g.Name(), got, wantMeans[gi])
					}
				}
			}()
		}
		wg.Wait()
	}
}
