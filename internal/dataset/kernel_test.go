package dataset

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/xrand"
)

// kernelTestTable builds a table whose groups are large enough to draw
// several blocks — and to leave a 1/32-sparse selection more than a handful
// of rows — yet small enough for one 4096-draw block to exhaust.
func kernelTestTable(t testing.TB) *Table {
	t.Helper()
	b := NewTableBuilderColumns("delay", "dist")
	r := xrand.New(0xbeef)
	for _, name := range []string{"a", "b", "c"} {
		for i := 0; i < 2400; i++ {
			if err := b.AddRow(name, math.Floor(r.Float64()*100), float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// kernelCase builds identical universes for one backing × selection.
type kernelCase struct {
	name  string
	build func(t testing.TB) *Universe
}

// kernelCases covers every form a pipeline group takes: heap slices, table
// groups, mmapped and compressed segments (and an mmapped one forced onto
// the sparse permutation), each bare, under a bitmap selection and under an
// index selection. Populations are ≤ 2400 so block schedules cross the
// exhaustion boundary.
func kernelCases(t testing.TB) []kernelCase {
	t.Helper()
	universe := func(t testing.TB, tab *Table, preds ...Predicate) *Universe {
		var u *Universe
		var err error
		if len(preds) == 0 {
			u, err = tab.Universe(100)
		} else {
			var v *View
			if v, err = tab.Filter(preds...); err == nil {
				u, err = v.Universe(100)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	cases := []kernelCase{{"slice", func(t testing.TB) *Universe {
		r := xrand.New(0x51ce)
		mk := func(name string) *SliceGroup {
			vals := make([]float64, 250)
			for i := range vals {
				vals[i] = r.Float64() * 100
			}
			return NewSliceGroup(name, vals)
		}
		return NewUniverse(100, mk("a"), mk("b"), mk("c"))
	}}}
	backings := []struct {
		name string
		open func(t testing.TB) *Table
	}{
		{"table", kernelTestTable},
		{"mmap", func(t testing.TB) *Table { return kernelSegmentTable(t, SegmentOptions{}) }},
		{"compressed", func(t testing.TB) *Table {
			return kernelSegmentTable(t, SegmentOptions{Compress: true, BlockLen: 64})
		}},
		{"sparse", func(t testing.TB) *Table {
			old := sparsePermGate
			sparsePermGate = 1 // every segment group opened now goes sparse
			defer func() { sparsePermGate = old }()
			return kernelSegmentTable(t, SegmentOptions{})
		}},
	}
	for _, bk := range backings {
		prefix := bk.name + "-"
		if bk.name == "table" {
			prefix = "filtered-" // the names these cases have always had
		}
		cases = append(cases,
			kernelCase{bk.name, func(t testing.TB) *Universe { return universe(t, bk.open(t)) }},
			// A dense predicate keeps the bitmap selection representation.
			kernelCase{prefix + "bitmap", func(t testing.TB) *Universe {
				return universe(t, bk.open(t), Predicate{Op: OpLT, Value: 80})
			}},
			// A highly selective one switches to the row-index representation.
			kernelCase{prefix + "index", func(t testing.TB) *Universe {
				return universe(t, bk.open(t), Predicate{Column: "dist", Op: OpLT, Value: 70})
			}},
		)
	}
	return cases
}

// kernelSegmentTable writes kernelTestTable as segments and reopens it.
func kernelSegmentTable(t testing.TB, opts SegmentOptions) *Table {
	t.Helper()
	dir := t.TempDir()
	if err := kernelTestTable(t).WriteSegmentsOptions(dir, opts); err != nil {
		t.Fatal(err)
	}
	st, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st.Table
}

// TestBlockOrder checks the gather's counting sort on its own: the order
// it writes holds every slot exactly once, visits the blocks in ascending
// order (slots ascending within a block), and its ends delimit each
// block's run.
func TestBlockOrder(t *testing.T) {
	cases := []struct {
		name         string
		off, span, n int     // the window: its first row's place in its block, block length, rows
		rows         []int32 // nil: 50 uniform rows, then the first and the last
	}{
		{"window starts mid-block", 5, 8, 40, nil},
		{"short last block", 0, 8, 21, nil},
		{"duplicate rows", 3, 4, 10, []int32{7, 2, 7, 7, 0, 9, 2, 0}},
		{"one row", 6, 8, 30, []int32{17}},
		{"one block", 2, 64, 40, nil},
		{"block length 1", 0, 1, 12, nil},
	}
	r := xrand.New(0xb10c)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows := tc.rows
			if rows == nil {
				for range 50 {
					rows = append(rows, int32(r.Intn(tc.n)))
				}
				rows = append(rows, 0, int32(tc.n-1))
			}
			block := func(slot int32) int { return (tc.off + int(rows[slot])) / tc.span }
			order := make([]int32, len(rows))
			ends := make([]int32, (tc.off+tc.n-1)/tc.span+1)
			blockOrder(rows, tc.off, tc.span, order, ends)

			seen := make([]bool, len(rows))
			for i, slot := range order {
				if seen[slot] {
					t.Fatalf("slot %d visited twice", slot)
				}
				seen[slot] = true
				if i > 0 {
					if prev := order[i-1]; block(prev) > block(slot) || block(prev) == block(slot) && prev > slot {
						t.Fatalf("visit %d: slot %d (block %d) after slot %d (block %d)", i, slot, block(slot), prev, block(prev))
					}
				}
			}
			start := int32(0)
			for b, end := range ends {
				for _, slot := range order[start:end] {
					if block(slot) != b {
						t.Fatalf("slot %d (block %d) in block %d's run", slot, block(slot), b)
					}
				}
				start = end
			}
			if int(start) != len(rows) {
				t.Fatalf("block runs end at %d, want %d", start, len(rows))
			}
		})
	}
}

// TestKernelFallsBackOnVirtualGroups: distribution-backed groups have no
// concrete kernel; DrawBlockSum serves them through DrawBatch, chunk by
// chunk — the same stream, accounting and sum as DrawBatch in
// blockSumChunk pieces — and serves a mixed universe's slice group through
// the pipeline.
func TestKernelFallsBackOnVirtualGroups(t *testing.T) {
	dist := func() Group { return NewDistGroup("d", xrand.TruncNormal{Mu: 50, Sigma: 8, Lo: 0, Hi: 100}, 1000) }
	u := NewUniverse(100, dist())
	s, ref := NewStreamSampler(u, 1, false), NewStreamSampler(NewUniverse(100, dist()), 1, false)
	buf := make([]float64, blockSumChunk)
	for _, n := range []int{8, 2*blockSumChunk + 5} {
		want := 0.0
		for left := n; left > 0; left -= min(left, blockSumChunk) {
			chunk := buf[:min(left, blockSumChunk)]
			ref.DrawBatch(0, chunk)
			for _, v := range chunk {
				want += v
			}
		}
		if got, ok := s.DrawBlockSum(0, n); !ok || got != want {
			t.Fatalf("n=%d: DrawBlockSum %v (ok=%v), chunked DrawBatch %v", n, got, ok, want)
		}
		if s.Count(0) != ref.Count(0) {
			t.Fatalf("n=%d: DrawBlockSum accounted %d draws, DrawBatch %d", n, s.Count(0), ref.Count(0))
		}
	}
	if _, ok := s.DrawBlockSum(0, 0); ok || s.Count(0) != ref.Count(0) {
		t.Fatal("an empty block drew")
	}
	// In a mixed universe the slice group draws through its kernel.
	mixed := NewUniverse(100, NewSliceGroup("s", []float64{1, 2, 3, 4, 5}), dist())
	ms := NewStreamSampler(mixed, 1, true)
	if got, ok := ms.DrawBlockSum(0, 5); !ok || got != 15 {
		t.Fatalf("slice group in a mixed universe: sum %v (ok=%v), want all five rows", got, ok)
	}
	if _, ok := ms.DrawBlockSum(1, 3); !ok || ms.Count(1) != 3 {
		t.Fatal("virtual group in a mixed universe not served")
	}
}

// TestViewsRecycleReleasedPermutation: a run whose first draw is a scalar
// step, and one whose first draw is a block, must both start from the
// permutation the previous run's sampler released rather than build their
// own — the O(batch)-per-query allocation promise, at the pointer level.
func TestViewsRecycleReleasedPermutation(t *testing.T) {
	tab := kernelTestTable(t)
	for _, first := range []int{1, 64} {
		a := NewStreamSampler(NewUniverse(100, tab.Groups()...), 1, true)
		a.DrawBatch(0, make([]float64, 64))
		released := a.cursors[0].sc.perm
		a.Release()

		b := NewStreamSampler(NewUniverse(100, tab.Groups()...), 2, true)
		if first == 1 {
			b.Draw(0)
		} else {
			b.DrawBatch(0, make([]float64, first))
		}
		if got := b.cursors[0].sc.perm; &got[0] != &released[0] {
			t.Fatalf("first draw of %d: the run built its own permutation instead of reusing the released one", first)
		}
		b.Release()
	}
}

// TestDrawStateSurvivesGC: consecutive runs over one table share a single
// permutation per group however often the garbage collector runs between
// them, so a query's allocation does not depend on GC timing. Each gap
// runs two collections: one alone leaves a sync.Pool's contents in its
// victim cache, two drop them.
func TestDrawStateSurvivesGC(t *testing.T) {
	tab := kernelTestTable(t)
	perms := make(map[*int32]bool)
	for run := 0; run < 50; run++ {
		s := NewStreamSampler(NewUniverse(100, tab.Groups()...), uint64(run), true)
		s.DrawBatch(0, make([]float64, 64))
		perms[&s.cursors[0].sc.perm[0]] = true
		s.Release()
		runtime.GC()
		runtime.GC()
	}
	if len(perms) != 1 {
		t.Fatalf("50 runs allocated %d permutations, want 1", len(perms))
	}
}

// TestDrawPoolKeepsAtMostGOMAXPROCS: more runs than GOMAXPROCS can draw
// at once, but after they all release, the group keeps only GOMAXPROCS
// idle scratch entries — the retention bound.
func TestDrawPoolKeepsAtMostGOMAXPROCS(t *testing.T) {
	tab := kernelTestTable(t)
	limit := runtime.GOMAXPROCS(0)
	u := NewUniverse(100, tab.Groups()...)
	var held []*Sampler
	for v := 0; v < limit+3; v++ {
		s := NewStreamSampler(u, uint64(v), true)
		s.DrawBatch(0, make([]float64, 64))
		held = append(held, s)
	}
	for _, s := range held {
		s.Release()
	}
	perms, ok := DrainDrawPool(tab.Groups()[0])
	if !ok {
		t.Fatal("drain: the table group has no draw pool")
	}
	if len(perms) != limit {
		t.Fatalf("pool kept %d permutations after %d runs released, want GOMAXPROCS = %d", len(perms), limit+3, limit)
	}
}

// prefiltered builds the table a view of tab should equal: every row of
// every group that keep accepts, in row order, with its extra columns.
func prefiltered(t *testing.T, tab *Table, keep func(row int) bool) *Table {
	t.Helper()
	b := NewTableBuilderColumns(tab.valueName, tab.extraNames...)
	for gi, name := range tab.names {
		for row := tab.offsets[gi]; row < tab.offsets[gi+1]; row++ {
			if !keep(row) {
				continue
			}
			extras := make([]float64, len(tab.extraNames))
			for e := range extras {
				extras[e] = tab.column(1 + e)[row]
			}
			if err := b.AddRow(name, tab.column(0)[row], extras...); err != nil {
				t.Fatal(err)
			}
		}
	}
	pre, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return pre
}

// TestViewsShareBaseDrawState: a bitmap-selected view draws from its
// base group's pool. A fresh view's cursor takes the very permutation the
// base group's run released; runs over the base group and over two views
// of different selectivity, interleaved and overlapping, leave every
// pooled permutation the identity over its whole capacity, the base
// group's rows; and each view's draws, across blocks, scalar steps and
// exhaustion, equal those over a table pre-filtered to its survivors. An
// index-selected view, whose permutation is no larger than its index,
// keeps a pool of its own.
func TestViewsShareBaseDrawState(t *testing.T) {
	tab := kernelTestTable(t)
	base := NewStreamSampler(NewUniverse(100, tab.Groups()...), 1, true)
	base.DrawBatch(0, make([]float64, 64))
	released := base.cursors[0].sc.perm
	base.Release()

	type viewCase struct {
		view *View
		pre  *Table
	}
	var views []viewCase
	for _, f := range []struct {
		pred Predicate
		keep func(row int) bool
	}{
		{Predicate{Column: "delay", Op: OpLT, Value: 70}, func(row int) bool { return tab.column(0)[row] < 70 }},
		{Predicate{Column: "dist", Op: OpLT, Value: 300}, func(row int) bool { return tab.column(1)[row] < 300 }},
	} {
		v, err := tab.Filter(f.pred)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, viewCase{v, prefiltered(t, tab, f.keep)})
	}
	for vi, vc := range views {
		for gi, g := range vc.view.Groups() {
			if fg := g.(*FilteredGroup); fg.sel.bits == nil || fg.pool != tab.groups[gi].(*TableGroup).pool {
				t.Fatalf("view %d group %d: not a bitmap view on its base group's pool", vi, gi)
			}
		}
	}
	index, err := tab.Filter(Predicate{Column: "dist", Op: OpLT, Value: 60})
	if err != nil {
		t.Fatal(err)
	}
	if fg := index.groups[0].(*FilteredGroup); fg.sel.idx == nil || fg.pool == tab.groups[0].(*TableGroup).pool {
		t.Fatal("the index view was meant to keep a pool of its own")
	}

	fresh := NewStreamSampler(NewUniverse(100, views[0].view.Groups()...), 2, true)
	fresh.Draw(0)
	if got := fresh.cursors[0].sc.perm; &got[0] != &released[0] {
		t.Fatal("a fresh view built its own permutation instead of taking the one its base group released")
	}
	fresh.Release()

	for round := 0; round < 3; round++ {
		// The base run stays open while the views draw, so the pool hands
		// out a second permutation, and it is released between them.
		open := NewStreamSampler(NewUniverse(100, tab.Groups()...), uint64(10+round), true)
		open.DrawBatch(0, make([]float64, 300*(round+1)))
		for vi, vc := range views {
			seed := uint64(100*round + vi)
			got := NewStreamSampler(NewUniverse(100, vc.view.Groups()...), seed, true)
			want := NewStreamSampler(NewUniverse(100, vc.pre.Groups()...), seed, true)
			for gi := range vc.view.Groups() {
				for step, n := range []int{1, 64, 1, 700, 4096, 3} {
					g, w := make([]float64, n), make([]float64, n)
					got.DrawBatch(gi, g)
					want.DrawBatch(gi, w)
					if fmt.Sprint(g) != fmt.Sprint(w) {
						t.Fatalf("round %d view %d group %d step %d: view draws differ from the pre-filtered table's", round, vi, gi, step)
					}
				}
			}
			got.Release()
			want.Release()
			if vi == 0 {
				open.Release()
			}
		}
	}
	for gi, g := range tab.Groups() {
		perms, _ := DrainDrawPool(g)
		if len(perms) == 0 {
			t.Fatalf("group %d: no permutation came back to the pool", gi)
		}
		for _, perm := range perms {
			if len(perm) != int(g.Size()) {
				t.Fatalf("group %d: pooled permutation of %d entries, want the base group's %d", gi, len(perm), g.Size())
			}
			for i, v := range perm {
				if int(v) != i {
					t.Fatalf("group %d: pooled permutation has perm[%d] = %d", gi, i, v)
				}
			}
		}
	}
}

// TestFreshFilterAllocatesNoPermutation: once its base group has run, a
// fresh Filter and a without-replacement run over 30 % of its survivors
// allocate less than a quarter of the 4 B per survivor a permutation of
// their own would take.
func TestFreshFilterAllocatesNoPermutation(t *testing.T) {
	const rows = 200_000
	b := NewTableBuilderColumns("v", "x")
	r := xrand.New(0xa110c)
	for i := 0; i < rows; i++ {
		if err := b.AddRow("g", r.Float64(), r.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	warm := NewStreamSampler(NewUniverse(1, tab.Groups()...), 1, true)
	warm.DrawBatch(0, make([]float64, 64))
	warm.Release()

	best := uint64(math.MaxUint64)
	survivors := 0
	for trial := 0; trial < 3; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := tab.Filter(Predicate{Column: "x", Op: OpLT, Value: 0.7 + 0.01*float64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		survivors = int(v.NumRows())
		s := NewStreamSampler(NewUniverse(1, v.Groups()...), uint64(trial), true)
		buf := make([]float64, blockSumChunk)
		for drawn := 0; drawn < survivors*3/10; drawn += len(buf) {
			s.DrawBatch(0, buf[:min(len(buf), survivors*3/10-drawn)])
		}
		s.Release()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(survivors); best >= limit {
		t.Fatalf("a fresh filter and a 30 %% run allocated %d B, want < %d B (¼ of 4 B × %d survivors)", best, limit, survivors)
	}
}

// TestSamplersShareNoDrawState: two samplers interleaving their draws over
// one universe — every backing × selection — must each draw exactly what
// the same sampler draws alone on a universe of its own, through to
// exhaustion and the with-replacement top-up. The groups hold no draw
// state; each run's cursors are its own.
func TestSamplersShareNoDrawState(t *testing.T) {
	for _, tc := range kernelCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			shared := tc.build(t)
			runs := []*Sampler{NewStreamSampler(shared, 1, true), NewStreamSampler(shared, 2, true)}
			refs := []*Sampler{NewStreamSampler(tc.build(t), 1, true), NewStreamSampler(tc.build(t), 2, true)}
			buf, want := make([]float64, 97), make([]float64, 97)
			for gi, g := range shared.Groups {
				for step := 0; runs[1].Count(gi) <= g.Size(); step++ {
					for r, s := range runs {
						n := 1 + (step+r)%len(buf)
						s.DrawBatch(gi, buf[:n])
						refs[r].DrawBatch(gi, want[:n])
						for j := range buf[:n] {
							if math.Float64bits(buf[j]) != math.Float64bits(want[j]) {
								t.Fatalf("group %d run %d step %d draw %d: %v alone, %v beside another run", gi, r, step, j, want[j], buf[j])
							}
						}
					}
				}
			}
		})
	}
}
