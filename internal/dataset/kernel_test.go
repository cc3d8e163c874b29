package dataset

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// kernelTestTable builds a table whose groups are large enough to draw
// several blocks — and to leave a 1/32-sparse selection more than a handful
// of rows — yet small enough for one 4096-draw block to exhaust.
func kernelTestTable(t *testing.T) *Table {
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
	build func(t *testing.T) *Universe
}

// kernelCases covers every form a pipeline group takes: heap slices, table
// groups, mmapped and compressed segments (and an mmapped one forced onto
// the sparse permutation), each bare, under a bitmap selection and under an
// index selection. Populations are ≤ 2400 so block schedules cross the
// exhaustion boundary.
func kernelCases(t *testing.T) []kernelCase {
	t.Helper()
	universe := func(t *testing.T, tab *Table, preds ...Predicate) *Universe {
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
	cases := []kernelCase{{"slice", func(t *testing.T) *Universe {
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
		open func(t *testing.T) *Table
	}{
		{"table", kernelTestTable},
		{"mmap", func(t *testing.T) *Table { return kernelSegmentTable(t, SegmentOptions{}) }},
		{"compressed", func(t *testing.T) *Table {
			return kernelSegmentTable(t, SegmentOptions{Compress: true, BlockLen: 64})
		}},
		{"sparse", func(t *testing.T) *Table {
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
			kernelCase{bk.name, func(t *testing.T) *Universe { return universe(t, bk.open(t)) }},
			// A dense predicate keeps the bitmap selection representation.
			kernelCase{prefix + "bitmap", func(t *testing.T) *Universe {
				return universe(t, bk.open(t), Predicate{Op: OpLT, Value: 80})
			}},
			// A highly selective one switches to the row-index representation.
			kernelCase{prefix + "index", func(t *testing.T) *Universe {
				return universe(t, bk.open(t), Predicate{Column: "dist", Op: OpLT, Value: 70})
			}},
		)
	}
	return cases
}

// kernelSegmentTable writes kernelTestTable as segments and reopens it.
func kernelSegmentTable(t *testing.T, opts SegmentOptions) *Table {
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

// blockHazards recomputes the Fisher–Yates targets a without-replacement
// block of n is about to stage (r is a copy of the group's stream) and
// reports the two orderings the swap loop must respect: a step whose
// target is its own slot, and two steps sharing one target.
func blockHazards(r xrand.RNG, next, total, n int) (self, shared bool) {
	seen := make(map[int]bool)
	for t := 0; t < n && next+t < total; t++ {
		j := next + t + r.Intn(total-next-t)
		self = self || j == next+t
		shared = shared || seen[j]
		seen[j] = true
	}
	return self, shared
}

// TestKernelMatchesGenericPath holds the pipeline's equivalence contract
// against the generic one-at-a-time path: a random schedule of blocks
// (n ∈ {1, 2, 63, 64, 4096}, through DrawBlockSum or DrawBatch at random)
// must produce exactly what the same number of scalar Sampler.Draw calls
// produce on an identical universe — the same values (bit for bit, or
// their draw-order sum), Welford moments, counts, exhaustion flags and RNG
// state — with and without replacement, across blocks in which a step
// targets its own slot, two steps share a slot, and the population runs
// out mid-block and is topped up with replacement on the same running
// accumulator.
func TestKernelMatchesGenericPath(t *testing.T) {
	sizes := []int{1, 2, 63, 64, 4096}
	for _, tc := range kernelCases(t) {
		for _, without := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/without=%v", tc.name, without), func(t *testing.T) {
				fast := NewStreamSampler(tc.build(t), 0x5eed, without)
				fast.EnableMoments(true)
				ref := NewStreamSampler(tc.build(t), 0x5eed, without)
				ref.EnableMoments(true)

				plan := xrand.New(0x9e37)
				buf := make([]float64, 4096)
				var self, shared, toppedUp bool
				for gi, g := range fast.Universe().Groups {
					core := &fast.cursors[gi]
					if sel := core.sel; sel != nil && (sel.idx != nil) != strings.HasSuffix(tc.name, "-index") {
						t.Fatalf("group %d: selection representation is not the one the case names", gi)
					}
					for step := 0; fast.Count(gi) < 3*g.Size(); step++ {
						n := sizes[plan.Intn(len(sizes))]
						if without {
							s, sh := blockHazards(*fast.RNGFor(gi), core.next, core.total, n)
							self, shared = self || s, shared || sh
							toppedUp = toppedUp || (core.next < core.total && core.next+n > core.total)
						}
						want := 0.0
						if plan.Intn(2) == 0 {
							sum, ok := fast.DrawBlockSum(gi, n)
							if !ok {
								t.Fatalf("group %d: no block pipeline", gi)
							}
							for k := 0; k < n; k++ {
								want += ref.Draw(gi)
							}
							if sum != want {
								t.Fatalf("group %d step %d (n=%d): block sum %v, scalar %v", gi, step, n, sum, want)
							}
						} else {
							fast.DrawBatch(gi, buf[:n])
							for k, v := range buf[:n] {
								if w := ref.Draw(gi); math.Float64bits(v) != math.Float64bits(w) {
									t.Fatalf("group %d step %d (n=%d) draw %d: block %v, scalar %v", gi, step, n, k, v, w)
								}
							}
						}
						if *fast.RNGFor(gi) != *ref.RNGFor(gi) {
							t.Fatalf("group %d step %d (n=%d): RNG streams diverge", gi, step, n)
						}
						if *fast.MomentsFor(gi) != *ref.MomentsFor(gi) {
							t.Fatalf("group %d step %d: moments diverge: %+v vs %+v", gi, step, *fast.MomentsFor(gi), *ref.MomentsFor(gi))
						}
						if fast.Exhausted(gi) != ref.Exhausted(gi) || fast.Count(gi) != ref.Count(gi) {
							t.Fatalf("group %d step %d: accounting diverges: exhausted %v/%v, count %d/%d",
								gi, step, fast.Exhausted(gi), ref.Exhausted(gi), fast.Count(gi), ref.Count(gi))
						}
					}
				}
				if fast.Total() != ref.Total() {
					t.Fatalf("totals diverge: %d vs %d", fast.Total(), ref.Total())
				}
				if without && !(self && shared && toppedUp) {
					t.Fatalf("schedule missed a case: own-slot target %v, shared target %v, mid-block exhaustion %v", self, shared, toppedUp)
				}
			})
		}
	}
}

// TestDrawUsingMatchesGroupDraw: DrawUsing through a sampler's cursor
// returns bit for bit what Group.Draw returns on the same RNG, on every
// backing and selection, and consumes the RNG identically.
func TestDrawUsingMatchesGroupDraw(t *testing.T) {
	for _, tc := range kernelCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			u := tc.build(t)
			s := NewStreamSampler(u, 1, false)
			a, b := xrand.New(0x7ab1e), xrand.New(0x7ab1e)
			for n := 0; n < 2000; n++ {
				i := n % u.K()
				if got, want := s.DrawUsing(i, a), u.Groups[i].Draw(b); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("draw %d from group %d: DrawUsing %v, Group.Draw %v", n, i, got, want)
				}
			}
			if *a != *b {
				t.Fatal("RNG streams diverge")
			}
			if s.Total() != 0 {
				t.Fatalf("DrawUsing accounted %d draws", s.Total())
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

// TestDrawEachMatchesDraw holds DrawEach's contract: drawing one sample
// from each of a random subset of groups per call must give exactly what
// one Sampler.Draw per listed group gives on an identical universe — the
// same values bit for bit, counts, total, exhaustion flags, moments and RNG
// state — on every backing × selection, with and without replacement,
// moments on and off, until every group has run out of its population and
// fallen back to with-replacement draws. Beside the kernel cases, a mixed
// universe puts virtual groups (no kernel) among slice groups, and a wide
// one spans several of DrawEach's staging chunks in one call.
func TestDrawEachMatchesDraw(t *testing.T) {
	cases := append(kernelCases(t),
		kernelCase{"mixed-virtual", func(t *testing.T) *Universe {
			return NewUniverse(100,
				NewSliceGroup("s", []float64{1, 2, 3, 4, 5, 6, 7}),
				NewDistGroup("d", xrand.TruncNormal{Mu: 50, Sigma: 8, Lo: 0, Hi: 100}, 40),
				NewSliceGroup("t", []float64{9, 8, 7}))
		}},
		kernelCase{"wide", func(t *testing.T) *Universe {
			r := xrand.New(0x1de)
			groups := make([]Group, 3*eachChunk+5)
			for i := range groups {
				vals := make([]float64, 1+i%17)
				for j := range vals {
					vals[j] = r.Float64() * 100
				}
				groups[i] = NewSliceGroup(fmt.Sprint(i), vals)
			}
			return NewUniverse(100, groups...)
		}},
	)
	for _, tc := range cases {
		for _, without := range []bool{true, false} {
			for _, moments := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/without=%v/moments=%v", tc.name, without, moments), func(t *testing.T) {
					fast := NewStreamSampler(tc.build(t), 0x5eed, without)
					ref := NewStreamSampler(tc.build(t), 0x5eed, without)
					if moments {
						fast.EnableMoments(true)
						ref.EnableMoments(true)
					}
					checkDrawEach(t, fast, ref)
				})
			}
		}
	}
}

// checkDrawEach draws random group subsets through fast.DrawEach and
// through ref.Draw until every group has drawn past its population.
func checkDrawEach(t *testing.T, fast, ref *Sampler) {
	t.Helper()
	u := fast.Universe()
	k := u.K()
	plan := xrand.New(0x7a11)
	idx := make([]int, 0, k)
	dst := make([]float64, k)
	past := func() bool {
		for i, g := range u.Groups {
			if fast.Count(i) <= g.Size()+4 {
				return false
			}
		}
		return true
	}
	for step := 0; !past(); step++ {
		idx = idx[:0]
		for i := 0; i < k; i++ {
			if plan.Intn(3) != 0 {
				idx = append(idx, i)
			}
		}
		fast.DrawEach(idx, dst[:len(idx)])
		for j, i := range idx {
			if w := ref.Draw(i); math.Float64bits(dst[j]) != math.Float64bits(w) {
				t.Fatalf("step %d group %d: DrawEach %v, Draw %v", step, i, dst[j], w)
			}
		}
		for i := 0; i < k; i++ {
			if fast.Count(i) != ref.Count(i) || fast.Exhausted(i) != ref.Exhausted(i) {
				t.Fatalf("step %d group %d: accounting diverges: count %d/%d, exhausted %v/%v",
					step, i, fast.Count(i), ref.Count(i), fast.Exhausted(i), ref.Exhausted(i))
			}
			if *fast.RNGFor(i) != *ref.RNGFor(i) {
				t.Fatalf("step %d group %d: RNG streams diverge", step, i)
			}
			if fm, rm := fast.MomentsFor(i), ref.MomentsFor(i); fm != nil && *fm != *rm {
				t.Fatalf("step %d group %d: moments diverge: %+v vs %+v", step, i, *fm, *rm)
			}
		}
		if fast.Total() != ref.Total() {
			t.Fatalf("step %d: totals diverge: %d vs %d", step, fast.Total(), ref.Total())
		}
	}
	if fast.WithoutReplacement() {
		for i, g := range u.Groups {
			if _, virtual := g.(*DistGroup); !virtual && !fast.Exhausted(i) {
				t.Fatalf("group %d never ran out of its population", i)
			}
		}
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
