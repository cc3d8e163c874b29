package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/conc"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// FuzzRun drives every matrix shape over small adversarial universes and
// checks the properties no seed or data may break:
//   - every estimate lies in [0, C] (SUM estimates per row of the group);
//   - a without-replacement group drawn to exhaustion, or reported at
//     width 0, carries its scan mean;
//   - without-replacement draws never exceed the group size;
//   - an AVG run that exhausts every group equals AlgoScan;
//   - a run that stops with an unsettled group reports Capped;
//   - a capped run never draws past MaxDraws, and a run MaxDraws did not
//     stop equals the uncapped run: the cap never shows in a result it
//     does not mark;
//   - every settled group's width in the last OnRound event is at least
//     the radius its own draws earn (earnedFloor), whatever settled it:
//     decide, exhaustion, MaxDraws or MaxRounds;
//   - Workers 4 reproduces Workers 1 bit for bit.
//
// The bytes decode to a fuzzCase: k ∈ [1, 8] groups of 0–300 rows on a
// nine-point grid over [0, C] (so ties, 0 and C are common), a shape of
// confShapes, a bound, a batch and a seed; odd seeds also cap a
// without-replacement run's draws (drawCap). Groups with no rows are left
// out, as a table never holds an empty group.
func FuzzRun(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 1, 0, 120, 2, 6, 0, 140, 2, 6, 0, 90, 0, 8})
	f.Add([]byte{2, 8, 1, 1, 7, 0, 100, 4, 4, 0, 80, 4, 4})
	f.Add([]byte{4, 13, 0, 2, 3, 0, 60, 0, 8, 0, 60, 0, 8, 0, 70, 3, 5, 0, 20, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		fc, ok := decodeFuzzCase(data)
		if !ok {
			t.Skip("too few bytes")
		}
		fc.check(t)
	})
}

// fuzzC is the value bound of every fuzz universe.
const fuzzC = 100

// fuzzCase is one decoded fuzz input.
type fuzzCase struct {
	shape confShape
	bound conc.Kind
	batch int
	seed  uint64
	rows  [][]float64 // non-empty groups only
}

// decodeFuzzCase reads a header (k, shape, bound, batch, seed) and four
// bytes per group: two for the row count, two for the grid span and the
// row generator.
func decodeFuzzCase(data []byte) (fuzzCase, bool) {
	if len(data) < 5 {
		return fuzzCase{}, false
	}
	shapes := confShapes()
	k := 1 + int(data[0])%8
	fc := fuzzCase{
		shape: shapes[int(data[1])%len(shapes)],
		bound: confBounds[int(data[2])%len(confBounds)],
		batch: confBatches[int(data[3])%len(confBatches)],
		seed:  uint64(data[4]),
	}
	data = data[5:]
	for g := 0; g < k && len(data) >= 4; g++ {
		n := (int(data[0])<<8 | int(data[1])) % 301
		lo, hi := int(data[2]%9), int(data[3]%9)
		if lo > hi {
			lo, hi = hi, lo
		}
		r := xrand.New(uint64(data[2])<<8 | uint64(data[3]) | uint64(g)<<16)
		data = data[4:]
		if n == 0 {
			continue
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = fuzzC / 8 * float64(lo+r.Intn(hi-lo+1))
		}
		fc.rows = append(fc.rows, vals)
	}
	return fc, true
}

// universe builds a fresh group set over the case's rows.
func (fc fuzzCase) universe() *dataset.Universe {
	groups := make([]dataset.Group, len(fc.rows))
	for g, vals := range fc.rows {
		groups[g] = dataset.NewSliceGroup(fmt.Sprint(g), vals)
	}
	return dataset.NewUniverse(fuzzC, groups...)
}

// withoutReplacement reports whether the shape samples its groups without
// replacement: NOINDEX draws table-wide with replacement, and the
// normalized aggregates force replacement.
func (fc fuzzCase) withoutReplacement() bool {
	switch fc.shape.name {
	case "noindex", "sum-unknown", "count-unknown", "scan":
		return false
	}
	return true
}

// drawCap is the case's MaxDraws: a fixed ceiling on the with-replacement
// shapes, and for odd seeds a cap between 9 and 2 041 draws that can stop
// a without-replacement run in any round, the seed round included.
func (fc fuzzCase) drawCap() int64 {
	switch {
	case !fc.withoutReplacement():
		return 20_000
	case fc.seed%2 == 1:
		return 1 + 8*int64(fc.seed)
	}
	return 0
}

// run executes the case at the given Workers count and draw cap.
func (fc fuzzCase) run(workers int, maxDraws int64) *fuzzOutcome {
	u := fc.universe()
	spec := fc.shape.spec(u.K())
	spec.Workers = workers
	spec.Opts.Bound = fc.bound
	spec.Opts.BatchSize = fc.batch
	// Without replacement every group runs out within 301 one-sample
	// rounds; the with-replacement shapes never settle tied groups, so they
	// stop at the matrix's round cap. IREFINE's halving batches reach the
	// end of any group within a few rounds.
	spec.Opts.MaxRounds = 24
	if !fc.withoutReplacement() {
		spec.Opts.MaxRounds = capRounds
	}
	spec.Opts.MaxDraws = maxDraws
	if u.K() > 0 && (spec.Aggregate == AggNormalizedSum || spec.Aggregate == AggNormalizedCount) {
		spec.Fractions = dataset.NewMembershipFractionEstimator(u)
	}
	o := &fuzzOutcome{}
	partial := o.partials.hook()
	spec.Opts.OnPartial = func(g int, est float64, round int, eps float64) {
		partial(g, est, round, eps)
		if eps == 0 {
			o.zeroWidth = append(o.zeroWidth, zeroWidthEvent{g, round, est})
		}
	}
	spec.Opts.OnRound = func(m int, eps float64, widths []float64, active []bool, est []float64, total int64) {
		o.trace.OnRound(m, eps, widths, active, est, total)
		o.widths = append(o.widths[:0], widths...)
		for g, w := range widths {
			if w == 0 {
				o.zeroWidth = append(o.zeroWidth, zeroWidthEvent{g, m, est[g]})
			}
		}
	}
	o.res, o.err = Run(context.Background(), u, xrand.New(fc.seed), spec)
	return o
}

// earnedFloor is the narrowest width n draws from group g earn under any
// of the case's bounds at δ — the largest δ_i any shape gives a group, so
// the floor holds for every shape: the Hoeffding–Serfling radius (0 once a
// without-replacement group is drawn out), and under an empirical-Bernstein
// kind also that bound's variance-free term, 3·c·ln(3/δ)/n. Both are capped
// at c, which covers the domain, so the floor never grows with n: it holds
// at a run's final counts, draws that landed in a settled group or fed an
// earlier round's estimate included. A SUM width is the mean's times the
// group's size; a COUNT runs on fractions, c = 1.
func (fc fuzzCase) earnedFloor(g int, n int64) float64 {
	spec := fc.shape.spec(len(fc.rows))
	c, size := float64(fuzzC), int64(len(fc.rows[g]))
	if spec.Aggregate == AggNormalizedCount {
		c = 1
	}
	var pop int64
	if fc.withoutReplacement() {
		pop = size
	}
	delta := spec.Opts.Delta
	floor := min(c, conc.SerflingRadius(c, int(n), pop, delta))
	if fc.bound != conc.KindHoeffding && n >= 2 {
		floor = min(floor, 3*c*math.Log(3/delta)/float64(n))
	}
	if spec.Aggregate == AggSum {
		floor *= float64(size)
	}
	return floor
}

// fuzzOutcome is an outcome plus every estimate reported at width 0 and
// the widths of the last OnRound event.
type fuzzOutcome struct {
	outcome
	zeroWidth []zeroWidthEvent
	widths    []float64
}

// zeroWidthEvent is one estimate reported at width 0, by OnPartial or
// OnRound.
type zeroWidthEvent struct {
	group, round int
	est          float64
}

// check runs the case and asserts every property.
func (fc fuzzCase) check(t *testing.T) {
	cap := fc.drawCap()
	w1, w4 := fc.run(1, cap), fc.run(4, cap)
	if got, want := w4.String(), w1.String(); got != want {
		t.Fatalf("Workers 4 diverged from Workers 1\n got: %s\nwant: %s", got, want)
	}
	if len(fc.rows) == 0 {
		if w1.err == nil {
			t.Fatal("a run over no groups succeeded")
		}
		return
	}
	if w1.err != nil {
		// Shape parameters the universe cannot carry (top-2 of one group,
		// a grid over an odd count) are rejected; that is all.
		return
	}
	res := &w1.res.Result
	exact, err := Scan(fc.universe())
	if err != nil {
		t.Fatal(err)
	}
	scan := exact.Estimates
	// perRow maps an estimate onto the mean scale: SUM estimates are
	// size × mean.
	perRow := func(g int, est float64) float64 {
		if fc.shape.name == "sum-known" {
			return est / float64(len(fc.rows[g]))
		}
		return est
	}
	const tol = 1e-9 * fuzzC
	exhaustedAll := fc.withoutReplacement()
	for g, est := range res.Estimates {
		if v := perRow(g, est); !(v >= -tol && v <= fuzzC+tol) {
			t.Errorf("group %d: estimate %v outside [0, %v]", g, est, fuzzC)
		}
		if !fc.withoutReplacement() {
			continue
		}
		size := int64(len(fc.rows[g]))
		if res.SampleCounts[g] > size {
			t.Errorf("group %d: %d draws without replacement from %d rows", g, res.SampleCounts[g], size)
		}
		if res.SampleCounts[g] < size {
			exhaustedAll = false
		} else if v := perRow(g, est); math.Abs(v-scan[g]) > tol {
			t.Errorf("group %d: exhausted at %v, scan mean %v", g, v, scan[g])
		}
	}
	for _, e := range w1.zeroWidth {
		if v := perRow(e.group, e.est); fc.withoutReplacement() && math.Abs(v-scan[e.group]) > tol {
			t.Errorf("group %d reported at width 0 in round %d with %v, scan mean %v", e.group, e.round, v, scan[e.group])
		}
	}
	avg := fc.shape.spec(len(fc.rows)).Aggregate == AggAvg
	if exhaustedAll && avg {
		for g, est := range res.Estimates {
			if math.Abs(est-scan[g]) > tol {
				t.Errorf("all groups exhausted, but group %d = %v where AlgoScan = %v", g, est, scan[g])
			}
		}
	}
	for g, w := range w1.widths {
		if floor := fc.earnedFloor(g, res.SampleCounts[g]); res.SettledRound[g] > 0 && w < floor*(1-1e-12) {
			t.Errorf("group %d settled at width %v after %d draws, which earn %v", g, w, res.SampleCounts[g], floor)
		}
	}
	if !res.Capped {
		for g, r := range res.SettledRound {
			if r == 0 {
				t.Errorf("group %d never settled, yet the run is not capped", g)
			}
		}
	}
	if cap > 0 {
		if res.TotalSamples > cap {
			t.Errorf("%d draws past the %d-draw cap", res.TotalSamples, cap)
		}
		if free := fc.run(1, 0); !res.Capped && free.String() != w1.String() {
			t.Errorf("an uncapped result differs from the uncapped run\n got: %s\nwant: %s", w1.String(), free.String())
		}
	}
}
