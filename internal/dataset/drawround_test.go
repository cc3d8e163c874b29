package dataset

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/conc"
	"repro/internal/xrand"
)

// drawRoundFixtures are FuzzDrawRound's universes: every kernel case
// (heap slices, table groups, mmapped and compressed segments and a sparse
// permutation, each bare and under a bitmap and an index selection), a
// mixed universe that puts virtual groups (no pipeline) among slice groups,
// a wide one of 197 groups of 1–17 rows, each of which stages its whole
// population at once, and BitmapGroups reading their rows through a
// function, which never stage. Groups are immutable, so every input draws
// from the same fixtures.
func drawRoundFixtures(tb testing.TB) []kernelCase {
	return append(kernelCases(tb),
		kernelCase{"mixed-virtual", func(testing.TB) *Universe {
			return NewUniverse(100,
				NewSliceGroup("s", []float64{1, 2, 3, 4, 5, 6, 7}),
				NewDistGroup("d", xrand.TruncNormal{Mu: 50, Sigma: 8, Lo: 0, Hi: 100}, 40),
				NewSliceGroup("t", []float64{9, 8, 7}))
		}},
		kernelCase{"wide", func(testing.TB) *Universe {
			r := xrand.New(0x1de)
			groups := make([]Group, 197)
			for i := range groups {
				vals := make([]float64, 1+i%17)
				for j := range vals {
					vals[j] = r.Float64() * 100
				}
				groups[i] = NewSliceGroup(fmt.Sprint(i), vals)
			}
			return NewUniverse(100, groups...)
		}},
		kernelCase{"bitmap-reader", func(testing.TB) *Universe {
			// Three groups interleaved over one 900-row column, as a
			// group-by index lays them out.
			r := xrand.New(0xb17)
			vals := make([]float64, 900)
			bits := []*bitmap.Bitmap{bitmap.New(900), bitmap.New(900), bitmap.New(900)}
			for row := range vals {
				vals[row] = r.Float64() * 100
				bits[r.Intn(3)].Set(row)
			}
			fetch := func(row int) float64 { return vals[row] }
			groups := make([]Group, len(bits))
			for i, b := range bits {
				groups[i] = NewBitmapGroup(fmt.Sprint(i), b, fetch, func() float64 { return 0 })
			}
			return NewUniverse(100, groups...)
		}},
	)
}

// FuzzDrawRound modes, one bit each.
const (
	drWithout = 1 << iota // draw without replacement
	drMoments             // keep moments
	drWorkers             // Workers 4 rather than 1
	drPick                // a NOINDEX-like scatter: one unit picks the group, the landing reads its value
	drUnits               // a scatter with one unit per group, each drawing its own tuples
)

// drawRoundSeed is one seed of FuzzDrawRound's corpus, the file
// testdata/fuzz/FuzzDrawRound/<name> (fixture, mode, seed 0x5eed,
// drawRoundPhases phases), and the behaviours its run must reach.
type drawRoundSeed struct {
	name    string
	fixture string
	mode    uint8
	covers  []string
}

// drawRoundSeeds is the corpus plain go test runs. For every fixture a
// without-replacement seed must cross a group's exhaustion inside a block,
// stage a step targeting its own slot and two steps sharing a slot, and
// draw every population past its end; a with-replacement seed at Workers 4
// must fan a phase out; and a pick seed reads every backing with
// replacement through the landing. Wherever groups stage one-sample draws,
// a block take must straddle a partly handed-out staged block; on the
// smallest populations a without-replacement seed must also stage a block
// the population cuts short (TestStagedDrawsStayInvisible does on all).
func drawRoundSeeds(fixtures []kernelCase) []drawRoundSeed {
	var seeds []drawRoundSeed
	for _, fx := range fixtures {
		without := []string{"self", "shared", "crossing", "exhausted", "straddle"}
		wr := []string{"parallel", "straddle"}
		if strings.HasSuffix(fx.name, "-index") {
			without = append(without, "short-stage")
		}
		switch fx.name {
		case "mixed-virtual":
			without = []string{"fallback", "exhausted", "straddle", "short-stage"}
		case "wide":
			without = []string{"fallback", "exhausted", "short-stage"}
		case "bitmap-reader":
			without = []string{"self", "shared", "crossing", "exhausted", "fallback"}
			wr = []string{"parallel", "fallback"}
		}
		seeds = append(seeds,
			drawRoundSeed{fx.name + "-without", fx.name, drWithout | drMoments, without},
			drawRoundSeed{fx.name + "-with", fx.name, drWorkers, wr},
			drawRoundSeed{fx.name + "-pick", fx.name, drPick | drMoments, []string{"inactive"}},
		)
	}
	return append(seeds,
		drawRoundSeed{"table-units", "table", drUnits | drMoments | drWorkers, []string{"parallel", "inactive"}},
		drawRoundSeed{"sparse-without-workers", "sparse", drWithout | drWorkers, []string{"parallel", "crossing", "exhausted"}},
		drawRoundSeed{"wide-without-workers", "wide", drWithout | drMoments | drWorkers, []string{"short-stage", "exhausted"}},
	)
}

// drawRoundPhases is how many phases a seed runs: enough for every group
// of every fixture to run out of rows.
const drawRoundPhases = 64

// FuzzDrawRound holds every draw path to one-at-a-time draws: random
// phases — all single draws, mixed block sizes that cross exhaustion, or a
// group's draws through the Draw and DrawBatch wrappers — drawn through
// DrawRound, with and without replacement, at Workers 1 and 4, and through
// both scatter layouts, must give exactly what Group.Draw and a
// Fisher–Yates permutation of the group's rows give on a copy of every
// stream: each take's sum (its values in draw order), every value a
// wrapper or a landing returns, counts, total, exhaustion flags, moments
// and every stream's RNG state, advanced past the values a group has staged
// and not yet handed out.
//
// The arguments pick a fixture, the mode bits, the plan's seed and the
// number of phases.
func FuzzDrawRound(f *testing.F) {
	fixtures := drawRoundFixtures(f)
	universes := make([]*Universe, len(fixtures))
	seeds := map[[2]uint8]drawRoundSeed{}
	for i, fx := range fixtures {
		universes[i] = fx.build(f)
		for _, sd := range drawRoundSeeds(fixtures) {
			if sd.fixture == fx.name {
				seeds[[2]uint8{uint8(i), sd.mode}] = sd
				if _, err := os.Stat(filepath.Join("testdata/fuzz/FuzzDrawRound", sd.name)); err != nil {
					f.Fatalf("seed %s (fixture %d, mode %d) has no corpus file: %v", sd.name, i, sd.mode, err)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, fixture, mode uint8, seed uint64, phases uint8) {
		fi := int(fixture) % len(universes)
		got := checkDrawRound(t, fixtures[fi].name, universes[fi], mode, seed, int(phases))
		sd, ok := seeds[[2]uint8{uint8(fi), mode}]
		if !ok || seed != 0x5eed || phases != drawRoundPhases {
			return
		}
		for _, want := range sd.covers {
			if want == "parallel" && runtime.GOMAXPROCS(0) < 2 {
				continue // one CPU never fans out
			}
			if !got[want] {
				t.Errorf("seed %s never reached %q (reached %v)", sd.name, want, got)
			}
		}
	})
}

// drawRef is one group's reference state: its own copy of the stream, and
// its rows in rank order for the Fisher–Yates permutation (nil for groups
// without a pipeline, which always draw with replacement).
type drawRef struct {
	r         xrand.RNG
	g         Group
	pop       []float64
	perm      []int32
	next      int
	count     int64
	mom       conc.Moments
	exhausted bool
}

// draw is one-at-a-time sampling: the next Fisher–Yates step while the
// population lasts, Group.Draw on the same stream otherwise.
func (d *drawRef) draw(without bool) float64 {
	if without && d.pop != nil {
		if d.next < len(d.pop) {
			j := d.next + d.r.Intn(len(d.pop)-d.next)
			d.perm[d.next], d.perm[j] = d.perm[j], d.perm[d.next]
			d.next++
			return d.pop[d.perm[d.next-1]]
		}
		d.exhausted = true
	}
	return d.g.Draw(&d.r)
}

// newDrawRefs returns the reference state of every group of u, on the
// streams a sampler seeded with seed gives them; name is the fixture's, whose
// "-index" suffix says which selection representation its groups must have.
func newDrawRefs(t testing.TB, name string, u *Universe, seed uint64) []drawRef {
	t.Helper()
	refs := make([]drawRef, u.K())
	for i, g := range u.Groups {
		refs[i] = drawRef{r: xrand.Stream(seed, uint64(i)), g: g}
		if bd, ok := g.(blockDrawer); ok {
			if sel := bd.core().sel; sel != nil && (sel.idx != nil) != strings.HasSuffix(name, "-index") {
				t.Fatalf("group %d: selection representation is not the one %s names", i, name)
			}
			if sg, ok := g.(Scannable); ok {
				sg.Scan(func(v float64) { refs[i].pop = append(refs[i].pop, v) })
			} else { // a BitmapGroup: its rows, in rank order, through its reader
				c := bd.core()
				c.sel.bits.ForEach(func(row int) bool {
					refs[i].pop = append(refs[i].pop, c.fetch(row))
					return true
				})
			}
			refs[i].perm = make([]int32, len(refs[i].pop))
			for j := range refs[i].perm {
				refs[i].perm[j] = int32(j)
			}
		}
	}
	return refs
}

// checkDrawRound runs one input and returns the behaviours it reached.
func checkDrawRound(t *testing.T, name string, u *Universe, mode uint8, seed uint64, phases int) map[string]bool {
	without := mode&drWithout != 0 && mode&(drPick|drUnits) == 0
	k := u.K()
	reached := map[string]bool{}
	refs := newDrawRefs(t, name, u, seed)

	// Scatter layouts: Fold records each group's landed values, and a group
	// estimates while (group + phase) % 3 != 0.
	var sc *Scatter
	units, phase := 0, 0
	landed := make([][]float64, k)
	estimating := func(i int) bool { return (i+phase)%3 != 0 }
	land := func(i int, count int64, v float64) bool {
		if want := refs[i].count + int64(len(landed[i])) + 1; count != want {
			t.Errorf("phase %d: group %d landed at count %d, want %d", phase, i, count, want)
		}
		landed[i] = append(landed[i], v)
		return estimating(i)
	}
	pick := func(_ int, r *xrand.RNG) int { return r.Intn(k) }
	unitDraw := func(un int, r *xrand.RNG) (int, float64) { return un, u.Groups[un].Draw(r) }
	switch {
	case mode&drPick != 0:
		units, sc = 1, &Scatter{Units: 1, Pick: pick, Fold: land}
	case mode&drUnits != 0:
		units, sc = k, &Scatter{Units: k, Draw: unitDraw, Fold: land}
	}
	workers := 1
	if mode&drWorkers != 0 {
		workers = 4
	}
	s := NewRoundSampler(u, seed, without, workers, sc)
	defer s.Release()
	if mode&drMoments != 0 {
		s.EnableMoments(true)
	}

	sizes := []int{1, 2, 63, 64, 4096}
	if k > 8 {
		sizes = []int{1, 2, 3, 17, 64}
	}
	// mark records what drawing n from group i is about to exercise: a
	// block straddling a partly handed-out staged block, the Fisher–Yates
	// hazards of the fresh block that follows it or of the block a
	// one-sample draw stages, a staged block its population cuts short, and
	// a one-sample draw that stages nothing.
	mark := func(i, n int) {
		c := &s.cursors[i]
		if c.drawCore == nil {
			reached["fallback"] = reached["fallback"] || n == 1
			return
		}
		p := c.pending()
		reached["straddle"] = reached["straddle"] || p > 0 && n > p
		switch {
		case n <= p:
		case n == 1 && (c.fetch != nil || without && c.next >= c.total):
			reached["fallback"] = true
		case !without:
		case n == 1:
			left := c.total - c.next
			reached["short-stage"] = reached["short-stage"] || left < stageLen
			markHazards(reached, s.streams[i], c.next, c.total, min(left, stageLen))
		default:
			markHazards(reached, s.streams[i], c.next, c.total, n-p)
		}
	}
	planRNG := xrand.New(seed ^ uint64(mode)<<32)
	var plan []Take
	buf := make([]float64, 4096)
	for ; phase < phases && s.Total() < 1<<18; phase++ {
		kind := planRNG.Intn(3)
		plan = plan[:0]
		if sc != nil {
			for un := 0; un < units; un++ {
				if planRNG.Intn(3) != 0 {
					plan = append(plan, Take{I: un, N: sizes[planRNG.Intn(len(sizes))]})
				}
			}
			for i := range landed {
				landed[i] = landed[i][:0]
			}
			s.DrawRound(plan)
			want := make([][]float64, k)
			draws := 0
			for _, tk := range plan {
				draws += tk.N
				r := &refs[tk.I*(k/units)].r
				for n := 0; n < tk.N; n++ {
					var i int
					var v float64
					if sc.Pick != nil {
						i = pick(tk.I, r)
						v = u.Groups[i].Draw(r)
					} else {
						i, v = unitDraw(tk.I, r)
					}
					refs[i].count++
					want[i] = append(want[i], v)
					if estimating(i) {
						refs[i].mom.Add(v)
					} else {
						reached["inactive"] = true
					}
				}
			}
			for i := range want {
				if fmt.Sprint(landed[i]) != fmt.Sprint(want[i]) {
					t.Fatalf("phase %d group %d: landed %v, one at a time %v", phase, i, landed[i], want[i])
				}
			}
			reached["parallel"] = reached["parallel"] || s.workers > 1 && len(plan) > 1 && draws >= minParallelRoundDraws
		} else if kind == 2 {
			// One group through the bench-facing wrappers, value by value.
			i, n := planRNG.Intn(k), sizes[planRNG.Intn(len(sizes))]
			mark(i, n)
			if n == 1 {
				buf[0] = s.Draw(i)
			} else {
				s.DrawBatch(i, buf[:n])
			}
			for j, v := range buf[:n] {
				want := refs[i].draw(without)
				refs[i].count++
				refs[i].mom.Add(want)
				if math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("phase %d group %d (n=%d) draw %d: %v, one at a time %v", phase, i, n, j, v, want)
				}
			}
		} else {
			draws := 0
			for i := 0; i < k; i++ {
				if planRNG.Intn(3) == 0 {
					continue
				}
				n := 1
				if kind == 1 {
					n = sizes[planRNG.Intn(len(sizes))]
				}
				plan = append(plan, Take{I: i, N: n})
				draws += n
			}
			reached["parallel"] = reached["parallel"] || s.workers > 1 && len(plan) > 1 && draws >= minParallelRoundDraws
			for _, tk := range plan {
				mark(tk.I, tk.N)
			}
			s.DrawRound(plan)
			for _, tk := range plan {
				d := &refs[tk.I]
				sum := 0.0
				for n := 0; n < tk.N; n++ {
					v := d.draw(without)
					d.mom.Add(v)
					sum += v
				}
				d.count += int64(tk.N)
				if math.Float64bits(tk.Sum) != math.Float64bits(sum) {
					t.Fatalf("phase %d group %d (n=%d): sum %v, one at a time %v", phase, tk.I, tk.N, tk.Sum, sum)
				}
			}
		}
		checkRefs(t, s, refs, phase)
	}
	reached["exhausted"] = without
	for i := range refs {
		if d := &refs[i]; d.pop != nil && d.count <= int64(len(d.pop)) {
			reached["exhausted"] = false
		}
	}
	return reached
}

// checkRefs fails t unless s's counts, exhaustion flags, moments and
// total, after phase, are the references' — so no staged value is in them
// — and each group's stream is the reference's advanced past the draws its
// cursor has staged and not handed out: one Intn per staged step, and,
// without replacement, a permutation position that many steps ahead.
func checkRefs(t testing.TB, s *Sampler, refs []drawRef, phase int) {
	t.Helper()
	var total int64
	for i := range refs {
		d := &refs[i]
		total += d.count
		if s.Count(i) != d.count || s.Exhausted(i) != d.exhausted {
			t.Fatalf("phase %d group %d: count %d/%d, exhausted %v/%v", phase, i, s.Count(i), d.count, s.Exhausted(i), d.exhausted)
		}
		r := d.r
		if c := &s.cursors[i]; c.drawCore != nil {
			p := c.pending()
			if c.total != len(d.pop) || s.without && c.next != d.next+p {
				t.Fatalf("phase %d group %d: cursor at %d of %d with %d staged, reference at %d of %d", phase, i, c.next, c.total, p, d.next, len(d.pop))
			}
			for step := 0; step < p; step++ {
				if s.without {
					r.Intn(c.total - d.next - step)
				} else {
					r.Intn(c.total)
				}
			}
		}
		if s.streams[i] != r {
			t.Fatalf("phase %d group %d: RNG streams diverge", phase, i)
		}
		if m := s.MomentsFor(i); m != nil && *m != d.mom {
			t.Fatalf("phase %d group %d: moments %+v, one at a time %+v", phase, i, *m, d.mom)
		}
	}
	if s.Total() != total {
		t.Fatalf("phase %d: total %d, want %d", phase, s.Total(), total)
	}
}

// markHazards recomputes the Fisher–Yates targets a without-replacement
// block of n is about to stage (r is a copy of the group's stream) and
// marks the orderings the swap loop must respect — a step whose target is
// its own slot, two steps sharing one target — and a block that runs past
// the end of the population.
func markHazards(reached map[string]bool, r xrand.RNG, next, total, n int) {
	seen := make(map[int]bool)
	for t := 0; t < n && next+t < total; t++ {
		j := next + t + r.Intn(total-next-t)
		reached["self"] = reached["self"] || j == next+t
		reached["shared"] = reached["shared"] || seen[j]
		seen[j] = true
	}
	reached["crossing"] = reached["crossing"] || next < total && next+n > total
}

// TestKernelMatchesGenericPath holds the block pipeline to one-at-a-time
// draws: a random schedule of blocks (n ∈ {1, 2, 63, 64, 4096}, through
// DrawBlockSum or DrawBatch at random) must produce exactly what Group.Draw
// and a Fisher–Yates permutation of the group's rows produce on a copy of
// its stream — the same values (bit for bit, or their draw-order sum),
// moments, counts, exhaustion flags and RNG state — with and without
// replacement, across blocks in which a step targets its own slot, two
// steps share a slot, and the population runs out mid-block and is topped
// up with replacement.
func TestKernelMatchesGenericPath(t *testing.T) {
	sizes := []int{1, 2, 63, 64, 4096}
	for _, tc := range kernelCases(t) {
		for _, without := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/without=%v", tc.name, without), func(t *testing.T) {
				u := tc.build(t)
				s := NewStreamSampler(u, 0x5eed, without)
				defer s.Release()
				s.EnableMoments(true)
				refs := newDrawRefs(t, tc.name, u, 0x5eed)

				plan := xrand.New(0x9e37)
				buf := make([]float64, 4096)
				reached := map[string]bool{}
				for gi, g := range u.Groups {
					d := &refs[gi]
					if d.pop == nil {
						t.Fatalf("group %d: no block pipeline", gi)
					}
					for step := 0; s.Count(gi) < 3*g.Size(); step++ {
						n := sizes[plan.Intn(len(sizes))]
						if without {
							markHazards(reached, d.r, d.next, len(d.pop), n)
						}
						want := func() float64 {
							v := d.draw(without)
							d.count++
							d.mom.Add(v)
							return v
						}
						if plan.Intn(2) == 0 {
							sum, ok := s.DrawBlockSum(gi, n)
							if !ok {
								t.Fatalf("group %d: no block pipeline", gi)
							}
							w := 0.0
							for j := 0; j < n; j++ {
								w += want()
							}
							if math.Float64bits(sum) != math.Float64bits(w) {
								t.Fatalf("group %d step %d (n=%d): block sum %v, one at a time %v", gi, step, n, sum, w)
							}
						} else {
							s.DrawBatch(gi, buf[:n])
							for j, v := range buf[:n] {
								if w := want(); math.Float64bits(v) != math.Float64bits(w) {
									t.Fatalf("group %d step %d (n=%d) draw %d: block %v, one at a time %v", gi, step, n, j, v, w)
								}
							}
						}
						checkRefs(t, s, refs, step)
					}
				}
				if without && !(reached["self"] && reached["shared"] && reached["crossing"]) {
					t.Fatalf("schedule missed a case: own-slot target, shared target or mid-block exhaustion (reached %v)", reached)
				}
			})
		}
	}
}

// TestDrawEachMatchesDraw holds DrawRound's phases of single draws, each
// handed a value its group staged, to one-at-a-time draws: one sample from
// each of a random subset of groups per phase must give exactly what
// Group.Draw and a Fisher–Yates permutation give on a copy of every stream
// — the same values bit for bit, counts, total, exhaustion flags, moments
// and RNG state — on every backing × selection, with and without
// replacement, moments on and off, until every group has run out of its
// population and fallen back to with-replacement draws. Beside the kernel
// cases, a mixed universe puts virtual groups (no pipeline) among slice
// groups, and a wide one stages whole populations at once.
func TestDrawEachMatchesDraw(t *testing.T) {
	for _, tc := range drawRoundFixtures(t) {
		for _, without := range []bool{true, false} {
			for _, moments := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/without=%v/moments=%v", tc.name, without, moments), func(t *testing.T) {
					u := tc.build(t)
					s := NewStreamSampler(u, 0x5eed, without)
					defer s.Release()
					if moments {
						s.EnableMoments(true)
					}
					refs := newDrawRefs(t, tc.name, u, 0x5eed)
					k := u.K()
					choose := xrand.New(0x7a11)
					plan := make([]Take, 0, k)
					past := func() bool {
						for i, g := range u.Groups {
							if s.Count(i) <= g.Size()+4 {
								return false
							}
						}
						return true
					}
					for step := 0; !past(); step++ {
						plan = plan[:0]
						for i := 0; i < k; i++ {
							if choose.Intn(3) != 0 {
								plan = append(plan, Take{I: i, N: 1})
							}
						}
						s.DrawRound(plan)
						for _, tk := range plan {
							d := &refs[tk.I]
							w := d.draw(without)
							d.count++
							if moments {
								d.mom.Add(w)
							}
							if math.Float64bits(tk.Sum) != math.Float64bits(w) {
								t.Fatalf("step %d group %d: DrawRound %v, one at a time %v", step, tk.I, tk.Sum, w)
							}
						}
						checkRefs(t, s, refs, step)
					}
				})
			}
		}
	}
}

// TestStagedDrawsStayInvisible holds one-sample staging to its invariant on
// every backing and selection, with and without replacement: single draws,
// blocks (DrawBatch or DrawBlockSum) that straddle or fall inside a staged
// block, and single draws again, on past the population's end and through
// a staged block the population cuts short, give exactly the one-at-a-time
// values, and Count, Total, Exhausted and the moments never include a value
// a cursor has staged but not handed out (checkRefs). Groups that read
// through a function never stage. Three runs share one group set: the
// first draws once from each group and is released with the rest of the
// block staged, and the two after it must each match the reference, so a
// released scratch carries nothing over.
func TestStagedDrawsStayInvisible(t *testing.T) {
	for _, tc := range drawRoundFixtures(t) {
		for _, without := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/without=%v", tc.name, without), func(t *testing.T) {
				u := tc.build(t)
				buf := make([]float64, 4096)
				for run := 0; run < 3; run++ {
					s := NewStreamSampler(u, 0x5eed, without)
					s.EnableMoments(true)
					refs := newDrawRefs(t, tc.name, u, 0x5eed)
					ops := xrand.New(0x57a6)
					reached := map[string]bool{}
					for gi, g := range u.Groups {
						c, d := &s.cursors[gi], &refs[gi]
						stages := c.drawCore != nil && c.fetch == nil
						want := func() float64 {
							v := d.draw(without)
							d.count++
							d.mom.Add(v)
							return v
						}
						for step := 0; s.Count(gi) < g.Size()+2*stageLen; step++ {
							if run == 0 && step == 1 {
								break // one single draw, its block left staged
							}
							p := c.pending()
							if ops.Intn(3) != 0 || run == 0 {
								left := 0
								if stages {
									left = c.total - c.next
								}
								if v, w := s.Draw(gi), want(); math.Float64bits(v) != math.Float64bits(w) {
									t.Fatalf("run %d group %d step %d: Draw %v, one at a time %v", run, gi, step, v, w)
								}
								wantPending := max(p-1, 0)
								if p == 0 && stages && (!without || left > 0) {
									wantPending = min(left, stageLen) - 1
									if !without {
										wantPending = stageLen - 1
									}
									reached["short"] = reached["short"] || without && left < stageLen
								}
								if c.pending() != wantPending {
									t.Fatalf("run %d group %d step %d: %d staged after a single draw, want %d", run, gi, step, c.pending(), wantPending)
								}
							} else {
								n := 1 + ops.Intn(p+9)
								reached["straddle"] = reached["straddle"] || p > 0 && n > p
								reached["inside"] = reached["inside"] || n < p
								if ops.Intn(2) == 0 {
									sum, _ := s.DrawBlockSum(gi, n)
									w := 0.0
									for j := 0; j < n; j++ {
										w += want()
									}
									if math.Float64bits(sum) != math.Float64bits(w) {
										t.Fatalf("run %d group %d step %d (n=%d): block sum %v, one at a time %v", run, gi, step, n, sum, w)
									}
								} else {
									s.DrawBatch(gi, buf[:n])
									for j, v := range buf[:n] {
										if w := want(); math.Float64bits(v) != math.Float64bits(w) {
											t.Fatalf("run %d group %d step %d (n=%d) draw %d: %v, one at a time %v", run, gi, step, n, j, v, w)
										}
									}
								}
								if c.pending() != max(p-n, 0) {
									t.Fatalf("run %d group %d step %d: %d staged after a block of %d, want %d", run, gi, step, c.pending(), n, max(p-n, 0))
								}
							}
							checkRefs(t, s, refs, step)
						}
						reached["staged"] = reached["staged"] || c.pending() > 0
						reached["exhausted"] = reached["exhausted"] || d.exhausted
					}
					switch {
					case run == 0:
						if staging := reached["staged"]; staging != (tc.name != "bitmap-reader") {
							t.Fatalf("values staged at release: %v", staging)
						}
					case reached["staged"] && !(reached["straddle"] && reached["inside"] && reached["short"] == without):
						t.Fatalf("run %d missed a case: straddling, inside or short staged blocks (reached %v)", run, reached)
					case without && !reached["exhausted"]:
						t.Fatalf("run %d never exhausted a population (reached %v)", run, reached)
					}
					s.Release()
				}
			})
		}
	}
}

// TestDrawUsingMatchesGroupDraw: a scatter landing's read — the one a
// NOINDEX run makes once Pick has chosen a tuple's group — returns bit for
// bit what Group.Draw returns on the same stream, on every backing and
// selection, consumes the stream identically, and counts each tuple for
// the group it lands in.
func TestDrawUsingMatchesGroupDraw(t *testing.T) {
	const draws = 2000
	for _, tc := range kernelCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			u := tc.build(t)
			k := u.K()
			picked := 0
			var landed []float64
			s := NewRoundSampler(u, 1, false, 1, &Scatter{
				Units: 1,
				Pick: func(int, *xrand.RNG) int {
					picked++
					return (picked - 1) % k
				},
				Fold: func(i int, count int64, v float64) bool {
					if n := len(landed); i != n%k || count != int64(n/k+1) {
						t.Fatalf("tuple %d landed in group %d at count %d, want group %d at count %d", n, i, count, n%k, n/k+1)
					}
					landed = append(landed, v)
					return true
				},
			})
			defer s.Release()
			s.DrawRound([]Take{{I: 0, N: draws}})
			if len(landed) != draws {
				t.Fatalf("landed %d tuples, want %d", len(landed), draws)
			}
			r := xrand.Stream(1, 0)
			for n, v := range landed {
				if want := u.Groups[n%k].Draw(&r); math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("draw %d from group %d: landed %v, Group.Draw %v", n, n%k, v, want)
				}
			}
			if s.streams[0] != r {
				t.Fatal("RNG streams diverge")
			}
			if s.Total() != draws {
				t.Fatalf("total %d, want %d", s.Total(), draws)
			}
		})
	}
}
