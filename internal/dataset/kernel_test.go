package dataset

import (
	"fmt"
	"math"
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
				fast.EnableBlockKernels()
				ref := NewStreamSampler(tc.build(t), 0x5eed, without)
				ref.EnableMoments(true)

				plan := xrand.New(0x9e37)
				buf := make([]float64, 4096)
				var self, shared, toppedUp bool
				for gi, g := range fast.Universe().Groups {
					core := g.(blockDrawer).core()
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

// TestKernelFallsBackOnVirtualGroups: distribution-backed groups have no
// concrete kernel; DrawBlockSum must decline so the driver's generic path
// serves them, and enabling kernels on such a universe stays a no-op.
func TestKernelFallsBackOnVirtualGroups(t *testing.T) {
	u := NewUniverse(100,
		NewDistGroup("d", xrand.TruncNormal{Mu: 50, Sigma: 8, Lo: 0, Hi: 100}, 1000))
	s := NewStreamSampler(u, 1, false)
	s.EnableBlockKernels()
	if _, ok := s.DrawBlockSum(0, 8); ok {
		t.Fatal("kernel claimed a distribution-backed group")
	}
	// A mixed universe gets kernels only for the concrete groups.
	mixed := NewUniverse(100,
		NewSliceGroup("s", []float64{1, 2, 3, 4, 5}),
		NewDistGroup("d", xrand.TruncNormal{Mu: 50, Sigma: 8, Lo: 0, Hi: 100}, 1000))
	ms := NewStreamSampler(mixed, 1, false)
	ms.EnableBlockKernels()
	if _, ok := ms.DrawBlockSum(0, 3); !ok {
		t.Fatal("kernel missing for the slice group in a mixed universe")
	}
	if _, ok := ms.DrawBlockSum(1, 3); ok {
		t.Fatal("kernel claimed the virtual group in a mixed universe")
	}
}

// TestViewsRecycleReleasedPermutation: a view whose first draw is a scalar
// step, and one whose first draw is a block, must both start from the
// permutation the previous view released rather than build their own —
// the O(batch)-per-query allocation promise, at the pointer level.
func TestViewsRecycleReleasedPermutation(t *testing.T) {
	tab := kernelTestTable(t)
	for _, first := range []int{1, 64} {
		reused := 0
		// sync.Pool may drop any one Put (under -race it drops a quarter at
		// random): ask for one reuse in eight.
		for attempt := 0; attempt < 8; attempt++ {
			a := NewStreamSampler(NewUniverse(100, tab.View()...), 1, true)
			a.DrawBatch(0, make([]float64, 64))
			released := a.u.Groups[0].(blockDrawer).core().sc.perm
			a.u.ReleaseDraws()

			b := NewStreamSampler(NewUniverse(100, tab.View()...), 2, true)
			b.DrawBatch(0, make([]float64, first))
			if got := b.u.Groups[0].(blockDrawer).core().sc.perm; &got[0] == &released[0] {
				reused++
			}
			b.u.ReleaseDraws()
		}
		if reused == 0 {
			t.Fatalf("first draw of %d: no view in eight reused the released permutation", first)
		}
	}
}
