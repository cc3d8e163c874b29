package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/conc"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// algoRunner names one round-based entry point for the batch tests.
type algoRunner struct {
	name string
	run  func(u *dataset.Universe, rng *xrand.RNG, opts Options) (*Result, error)
}

func batchRunners() []algoRunner {
	return []algoRunner{
		{"ifocus", IFocus},
		{"roundrobin", RoundRobin},
		{"trend", Trend},
		{"values", func(u *dataset.Universe, rng *xrand.RNG, opts Options) (*Result, error) {
			return WithValues(u, rng, 8, opts)
		}},
		{"mistakes", func(u *dataset.Universe, rng *xrand.RNG, opts Options) (*Result, error) {
			return WithMistakes(u, rng, 0.8, opts)
		}},
		{"chloropleth", func(u *dataset.Universe, rng *xrand.RNG, opts Options) (*Result, error) {
			return Chloropleth(u, rng, GridAdjacency(2, 3), opts)
		}},
		{"topt", func(u *dataset.Universe, rng *xrand.RNG, opts Options) (*Result, error) {
			res, err := TopT(u, rng, 2, opts)
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		}},
		{"sum-known", SumKnownSizes},
		{"sum-unknown", func(u *dataset.Universe, rng *xrand.RNG, opts Options) (*Result, error) {
			return SumUnknownSizes(u, dataset.NewMembershipFractionEstimator(u), rng, opts)
		}},
	}
}

// TestBatchSizeOneMatchesDefault pins the scalar contract on every
// algorithm: BatchSize 0 (the default) and BatchSize 1 take the same code
// path and must produce identical results — together with TestGoldenPins
// (which pins the default to the pre-driver scalar implementations), this
// certifies BatchSize=1 is seed-for-seed identical to the paper-faithful
// originals.
func TestBatchSizeOneMatchesDefault(t *testing.T) {
	for _, ar := range batchRunners() {
		t.Run(ar.name, func(t *testing.T) {
			base, err := ar.run(pinUniverse(), xrand.New(77), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.BatchSize = 1
			one, err := ar.run(pinUniverse(), xrand.New(77), opts)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(base, nil) != fingerprint(one, nil) {
				t.Fatalf("BatchSize=1 diverged from default:\n%s\n%s",
					fingerprint(one, nil), fingerprint(base, nil))
			}
		})
	}
}

// TestBatchedRunsOrderCorrectly checks that block rounds preserve the
// ordering guarantee machinery: estimates order like the true aggregates,
// totals reconcile, and every group draws at least one block.
func TestBatchedRunsOrderCorrectly(t *testing.T) {
	for _, batch := range []int{4, 64} {
		for _, ar := range batchRunners() {
			t.Run(fmt.Sprintf("%s/batch=%d", ar.name, batch), func(t *testing.T) {
				u := pinUniverse()
				if ar.name == "sum-known" || ar.name == "sum-unknown" {
					u = pinSumUniverse()
				}
				opts := DefaultOptions()
				opts.BatchSize = batch
				res, err := ar.run(u, xrand.New(101), opts)
				if err != nil {
					t.Fatal(err)
				}
				var sum int64
				for i, c := range res.SampleCounts {
					if c < int64(batch) && c < u.Groups[i].Size() {
						t.Errorf("group %d drew %d samples, want at least one full block", i, c)
					}
					sum += c
				}
				if sum != res.TotalSamples {
					t.Fatalf("sample counts sum to %d, TotalSamples %d", sum, res.TotalSamples)
				}
				if ar.name == "topt" || ar.name == "mistakes" {
					return // partial-ordering guarantees; checked elsewhere
				}
				truth := u.TrueMeans()
				if ar.name == "sum-known" {
					for i, g := range u.Groups {
						truth[i] *= float64(g.Size())
					}
				}
				if ar.name == "sum-unknown" {
					total := float64(u.TotalSize())
					for i, g := range u.Groups {
						truth[i] *= float64(g.Size()) / total
					}
				}
				if ar.name == "trend" || ar.name == "chloropleth" {
					// Adjacent-pair guarantees only.
					for i := 1; i < len(truth); i++ {
						if (truth[i] > truth[i-1]) != (res.Estimates[i] > res.Estimates[i-1]) {
							t.Errorf("adjacent pair (%d,%d) misordered", i-1, i)
						}
					}
					return
				}
				if !CorrectOrdering(res.Estimates, truth) {
					t.Fatalf("batched run misordered: est=%v truth=%v", res.Estimates, truth)
				}
			})
		}
	}
}

// TestBatchExhaustsTinyGroups: a block larger than the group's population
// clamps to what is left, and fully consumed groups settle at their exact
// mean.
func TestBatchExhaustsTinyGroups(t *testing.T) {
	ga := dataset.NewSliceGroup("a", []float64{48, 50, 52})
	gb := dataset.NewSliceGroup("b", []float64{58, 60, 62})
	u := dataset.NewUniverse(100, ga, gb)
	opts := DefaultOptions()
	opts.BatchSize = 64
	res, err := IFocus(u, xrand.New(5), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimates[0] != 50 || res.Estimates[1] != 60 {
		t.Fatalf("exhausted groups should report exact means, got %v", res.Estimates)
	}
	if res.SampleCounts[0] != 3 || res.SampleCounts[1] != 3 {
		t.Fatalf("counts should clamp to population, got %v", res.SampleCounts)
	}
}

// TestRoundGrowthReducesRounds: geometric blocks reach the same sampling
// depth in logarithmically many rounds.
func TestRoundGrowthReducesRounds(t *testing.T) {
	opts := DefaultOptions()
	scalar, err := IFocus(pinUniverse(), xrand.New(7), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.RoundGrowth = 1.5
	grown, err := IFocus(pinUniverse(), xrand.New(7), opts)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Rounds >= scalar.Rounds/4 {
		t.Fatalf("RoundGrowth=1.5 used %d rounds, scalar %d; want a large reduction",
			grown.Rounds, scalar.Rounds)
	}
	if !CorrectOrdering(grown.Estimates, pinUniverse().TrueMeans()) {
		t.Fatalf("grown run misordered: %v", grown.Estimates)
	}
}

// TestBatchOptionValidation rejects nonsense batching parameters at every
// entry point that validates options.
func TestBatchOptionValidation(t *testing.T) {
	u := pinUniverse()
	opts := DefaultOptions()
	opts.BatchSize = -2
	if _, err := IFocus(u, xrand.New(1), opts); err == nil {
		t.Fatal("negative BatchSize accepted")
	}
	opts = DefaultOptions()
	opts.BatchSize = BatchAuto
	if _, err := IFocus(u, xrand.New(1), opts); err != nil {
		t.Fatalf("BatchAuto rejected: %v", err)
	}
	opts = DefaultOptions()
	opts.RoundGrowth = 0.5
	if _, err := IFocus(u, xrand.New(1), opts); err == nil {
		t.Fatal("RoundGrowth in (0,1) accepted")
	}
	// NOINDEX validates its batch like every driver run: BatchAuto is its
	// block schedule too, other negative values are invalid.
	opts = DefaultOptions()
	opts.BatchSize = -2
	if _, err := NoIndex(u, xrand.New(1), opts); err == nil {
		t.Fatal("NoIndex accepted BatchSize=-2")
	}
	opts = DefaultOptions()
	opts.BatchSize = BatchAuto
	if _, err := NoIndex(u, xrand.New(1), opts); err != nil {
		t.Fatalf("NoIndex rejected BatchAuto: %v", err)
	}
}

// TestAutoBatchSchedule pins the BatchAuto block schedule itself: blocks
// start at autoBatchStart, double each round, and clamp at autoBatchMax.
// A round-capped run over never-settling equal-mean groups must draw
// exactly k·Σ_m min(64·2^(m−1), 4096) samples — the schedule is a fixed
// function of the round number, never of timing.
func TestAutoBatchSchedule(t *testing.T) {
	want := []int{64, 128, 256, 512, 1024, 2048, 4096, 4096, 4096}
	for m, w := range want {
		if got := autoBatchSize(m + 1); got != w {
			t.Fatalf("autoBatchSize(%d) = %d, want %d", m+1, got, w)
		}
	}
	const k, rounds = 3, 9
	groups := make([]dataset.Group, k)
	for i := range groups {
		groups[i] = dataset.NewDistGroup(groupNames(i),
			xrand.TruncNormal{Mu: 50, Sigma: 8, Lo: 0, Hi: 100}, 1_000_000_000)
	}
	u := dataset.NewUniverse(100, groups...)
	opts := DefaultOptions()
	opts.BatchSize = BatchAuto
	opts.MaxRounds = rounds
	res, err := IFocus(u, xrand.New(17), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Capped || res.Rounds != rounds {
		t.Fatalf("equal-mean run should hit the %d-round cap, got capped=%v rounds=%d",
			rounds, res.Capped, res.Rounds)
	}
	var total int64
	for _, w := range want {
		total += int64(k * w)
	}
	if res.TotalSamples != total {
		t.Fatalf("auto-batch draw total %d, want the exact schedule sum %d", res.TotalSamples, total)
	}
}

// TestAutoBatchGoldenPin freezes one full BatchAuto run bit-for-bit, so
// any change to the schedule or to the kernels/fan-out underneath it that
// moves results is caught immediately.
func TestAutoBatchGoldenPin(t *testing.T) {
	opts := DefaultOptions()
	opts.BatchSize = BatchAuto
	res, err := IFocus(pinUniverse(), xrand.New(77), opts)
	got := fingerprint(res, err)
	const want = "rounds=5 total=7808 capped=false eps=2.9276839962557677 est=[15.088661979672436 27.427973130465798 39.231194976654848 50.848775234152676 63.095549355683744 75.399729472743488] counts=[960 960 1984 1984 960 960] settled=[4 4 5 5 4 4]"
	if got != want {
		t.Fatalf("BatchAuto golden diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestNoIndexBatchCadence: batching a no-index run draws k blocks of
// tuples per round, so it scales the interval-check cadence without
// changing the per-draw statistics; the run still orders correctly and
// still honors MaxDraws.
func TestNoIndexBatchCadence(t *testing.T) {
	u := pinUniverse()
	opts := DefaultOptions()
	opts.BatchSize = 16
	res, err := NoIndex(u, xrand.New(43), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !CorrectOrdering(res.Estimates, u.TrueMeans()) {
		t.Fatalf("batched no-index misordered: %v", res.Estimates)
	}
	opts.MaxDraws = 100
	capped, err := NoIndex(u, xrand.New(43), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Capped || capped.TotalSamples != 100 {
		t.Fatalf("maxDraws ignored under batching: capped=%v total=%d", capped.Capped, capped.TotalSamples)
	}
}

// TestMaxDrawsCutRoundIsCapped: a draw cap that stops a round partway —
// one group's block cut short, the next one's skipped — leaves widths
// computed or halved for draws that never happened, so the run must end
// there, Capped, at exactly the cap, rather than settle the two
// well-separated groups as if the round had completed. Caps fall one draw
// short of the uncapped run, halfway, and inside the seed round. The
// shared ε a lockstep run reports is the one its least-drawn group earned.
func TestMaxDrawsCutRoundIsCapped(t *testing.T) {
	two := func() *dataset.Universe {
		lo, hi := make([]float64, 5000), make([]float64, 5000)
		for i := range lo {
			lo[i], hi[i] = float64(5+i%10), float64(85+i%10)
		}
		return dataset.NewUniverse(100, dataset.NewSliceGroup("lo", lo), dataset.NewSliceGroup("hi", hi))
	}
	irefine := func(u *dataset.Universe, rng *xrand.RNG, opts Options) (*Result, error) {
		return IRefine(u, rng, opts)
	}
	seedCut := int64(autoBatchSize(1)) * 3 / 2 // hi gets half a block
	for _, r := range []algoRunner{{"ifocus", IFocus}, {"irefine", irefine}} {
		for _, bound := range []conc.Kind{conc.KindHoeffding, conc.KindBernstein} {
			opts := DefaultOptions()
			opts.BatchSize = BatchAuto
			opts.Bound = bound
			full, err := r.run(two(), xrand.New(5), opts)
			if err != nil {
				t.Fatal(err)
			}
			need := full.TotalSamples
			for _, cap := range []int64{need - 1, need / 2, min(need-1, seedCut)} {
				opts.MaxDraws = cap
				res, err := r.run(two(), xrand.New(5), opts)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Capped || res.TotalSamples != cap {
					t.Errorf("%s/%s cap %d of %d: capped=%v after %d draws, want a capped run of exactly the cap",
						r.name, bound, cap, need, res.Capped, res.TotalSamples)
				}
				least := min(res.SampleCounts[0], res.SampleCounts[1])
				if r.name == "ifocus" && bound == conc.KindHoeffding {
					if want := newSchedule(two(), &opts).Epsilon(int(least)); res.FinalEpsilon < want {
						t.Errorf("ifocus cap %d: ε %v, narrower than the %v %d draws earn", cap, res.FinalEpsilon, want, least)
					}
				}
			}
		}
	}
}

// TestIRefineCappedWidthIsEarned: when the draw cap stops IREFINE inside a
// round, a group whose batch the cap cut reports the Hoeffding width its
// draws of the round earned at the round's δ_i, not the halved target it
// was drawing towards, and a group the cap reached before it drew keeps
// the estimate and width of the round before. Four 200 000-row groups of
// one uniform distribution never separate, so only the cap ends the run:
// at 3 000 draws, inside round 3, after group 0's full batch and part of
// group 1's.
func TestIRefineCappedWidthIsEarned(t *testing.T) {
	const k, rows = 4, 200_000
	r := xrand.New(0x1ef)
	groups := make([]dataset.Group, k)
	for g := range groups {
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = 100 * r.Float64()
		}
		groups[g] = dataset.NewSliceGroup(fmt.Sprint(g), vals)
	}
	u := dataset.NewUniverse(100, groups...)
	opts := DefaultOptions()
	opts.MaxDraws = 3000
	type event struct {
		widths, est []float64
	}
	var events []event
	opts.OnRound = func(_ int, _ float64, widths []float64, _ []bool, est []float64, _ int64) {
		events = append(events, event{append([]float64(nil), widths...), append([]float64(nil), est...)})
	}
	res, err := IRefine(u, xrand.New(5), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Capped || res.TotalSamples != opts.MaxDraws || len(events) < 2 {
		t.Fatalf("capped=%v after %d draws and %d rounds, want a capped run of exactly the cap", res.Capped, res.TotalSamples, len(events))
	}
	// Every round before the last drew each group's whole batch.
	prev, delta := 0, opts.Delta/(2*k)
	for m := 1; m < res.Rounds; m++ {
		delta /= 2
		prev += conc.HoeffdingSampleSize(u.C, u.C/math.Pow(2, float64(m+1)), delta)
	}
	delta /= 2
	last, before := events[len(events)-1], events[len(events)-2]
	var cut, skipped int
	for g := 0; g < k; g++ {
		n := int(res.SampleCounts[g]) - prev
		switch {
		case n == 0:
			skipped++
			if last.widths[g] != before.widths[g] || last.est[g] != before.est[g] {
				t.Errorf("group %d drew nothing in the capped round, yet went from %v ± %v to %v ± %v",
					g, before.est[g], before.widths[g], last.est[g], last.widths[g])
			}
		case n < conc.HoeffdingSampleSize(u.C, u.C/math.Pow(2, float64(res.Rounds+1)), delta):
			cut++
			fallthrough
		default:
			if earned := conc.HoeffdingRadius(u.C, n, delta); last.widths[g] < earned {
				t.Errorf("group %d reports width %v after %d draws in the capped round, which earn %v", g, last.widths[g], n, earned)
			}
		}
		if earned := conc.HoeffdingRadius(u.C, int(res.SampleCounts[g]), opts.Delta/(2*k)); last.widths[g] < earned {
			t.Errorf("group %d reports width %v, narrower than all its %d draws earn at δ/2k: %v", g, last.widths[g], res.SampleCounts[g], earned)
		}
	}
	if cut == 0 || skipped == 0 {
		t.Fatalf("the cap cut %d batches and skipped %d groups; the fixture must do both", cut, skipped)
	}
}

// TestRunAllocsIndependentOfRounds: a run's allocations are its set-up —
// sampler, streams, result — and never a round's. IFOCUS at BatchSize 1
// and at BatchAuto, each over a universe that settles in R rounds and one
// that takes about 4R, allocates the same per run. The slack covers the
// scratch pools refilling after a collection, never a per-round cost.
// Under -race only the round counts are checked: the race runtime's
// sync.Pool drops items at random, so the pools refill at random too.
func TestRunAllocsIndependentOfRounds(t *testing.T) {
	universe := func(gap float64) *dataset.Universe {
		r := xrand.New(3)
		groups := make([]dataset.Group, 2)
		for g := range groups {
			vals := make([]float64, 400_000)
			for i := range vals {
				vals[i] = 40 + float64(g)*gap + 20*r.Float64()
			}
			groups[g] = dataset.NewSliceGroup(fmt.Sprint(g), vals)
		}
		return dataset.NewUniverse(100, groups...)
	}
	for _, tc := range []struct {
		batch     int
		near, far float64 // the gaps settling in R and about 4R rounds
	}{{1, 16, 8}, {BatchAuto, 4, 1}} {
		opts := DefaultOptions()
		opts.BatchSize = tc.batch
		var rounds [2]int
		var allocs [2]float64
		for j, gap := range []float64{tc.near, tc.far} {
			u := universe(gap)
			run := func() {
				res, err := IFocus(u, xrand.New(1), opts)
				if err != nil {
					t.Fatal(err)
				}
				rounds[j] = res.Rounds
			}
			if raceEnabled {
				run()
			} else {
				allocs[j] = testing.AllocsPerRun(10, run)
			}
		}
		if rounds[1] < 3*rounds[0] {
			t.Fatalf("batch %s: the universes settle in %d and %d rounds; the fixture needs about 4×", batchLabel(tc.batch), rounds[0], rounds[1])
		}
		if !raceEnabled && allocs[1] > allocs[0]+2 {
			t.Errorf("batch %s: %v allocations per run over %d rounds, %v over %d", batchLabel(tc.batch), allocs[0], rounds[0], allocs[1], rounds[1])
		}
	}
}

// TestMultiAggBatched: the pair estimator accepts block rounds (the draw
// hook loops per block) and both orderings stay correct.
func TestMultiAggBatched(t *testing.T) {
	opts := DefaultOptions()
	opts.BatchSize = 32
	res, err := MultiAgg(pinPairUniverse(), xrand.New(41), opts)
	if err != nil {
		t.Fatal(err)
	}
	yOrder := Ranking(res.Estimates)
	zOrder := Ranking(res.SecondEstimates)
	wantY := []int{3, 2, 1, 0}
	wantZ := []int{0, 1, 2, 3}
	for i := range wantY {
		if yOrder[i] != wantY[i] || zOrder[i] != wantZ[i] {
			t.Fatalf("batched multi-agg misordered: y=%v z=%v", yOrder, zOrder)
		}
	}
}

// TestBatchReducesRoundsProportionally: a block of b samples advances the
// cumulative count b at a time, so round counts shrink by about b while
// totals stay within one block per group of the scalar run's depth.
func TestBatchReducesRoundsProportionally(t *testing.T) {
	scalar, err := IFocus(pinUniverse(), xrand.New(7), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.BatchSize = 64
	batched, err := IFocus(pinUniverse(), xrand.New(7), opts)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Rounds > scalar.Rounds/32 {
		t.Fatalf("batch=64 used %d rounds vs scalar %d; want ~64x fewer", batched.Rounds, scalar.Rounds)
	}
	// Settling granularity is one block, so per-group draws may exceed the
	// scalar run's by at most ~one block (plus sampling noise from the
	// different stream).
	perGroup := make([]int64, len(batched.SampleCounts))
	copy(perGroup, batched.SampleCounts)
	sort.Slice(perGroup, func(a, b int) bool { return perGroup[a] > perGroup[b] })
	maxScalar := int64(0)
	for _, c := range scalar.SampleCounts {
		if c > maxScalar {
			maxScalar = c
		}
	}
	if perGroup[0] > 4*maxScalar+64 {
		t.Fatalf("batched run drew far deeper than scalar: %d vs %d", perGroup[0], maxScalar)
	}
}
