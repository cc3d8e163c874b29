package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/conc"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// The conformance matrix states the determinism contract once: the same
// query and seed give the same result at any Workers count, on any backing
// (heap table, mmapped v1 segments, compressed v2 segments), through a
// Where filter or on the pre-filtered rows, and on a group set that has
// already served a run or is serving another one at the same time. A cell
// is shape × bound × filter × batch × backing × Workers × fixture, run
// through Run. Its reference cell is the heap backing at Workers 1 on a
// table built from the filter's surviving rows, with the same shape,
// bound, filter, batch and fixture. Every cell runs three times on its
// backing's one shared group set — once alone, then twice at the same
// time (under the race detector only the concurrent pair) — and every run
// must equal the reference bit for bit: estimates at %.17g, counts,
// rounds, settled rounds, the OnPartial and OnRound sequences, and the
// top-t members.
//
// The committed goldens pin reference cells only (referenceGoldens, checked
// by TestGoldenPins and TestBernsteinGoldenPins), so a change to a draw
// stream re-pins those and nothing else. TestGuaranteeSlice, at the end of
// the file, checks the other contract, the probabilistic one.

var (
	confBounds   = []conc.Kind{conc.KindHoeffding, conc.KindBernstein, conc.KindBernsteinFinite}
	confFilters  = []string{"none", "dense", "sparse"}
	confBatches  = []int{1, 64, BatchAuto}
	confBackings = []string{"heap", "v1", "v2"}
	confWorkers  = []int{1, 4}
	confFixtures = []string{"pin", "tiny"}
)

// confShape is one query shape of the matrix.
type confShape struct {
	name string
	// seed is the run seed on the pin fixture (the tiny fixture runs at
	// seed 5): the seed of the shape's golden, where it has one.
	seed uint64
	// sum selects pinSumUniverse's rows (unequal group sizes, so sums and
	// fractions order differently from means) for the pin fixture.
	sum bool
	// bounded marks shapes that take a confidence bound.
	bounded bool
	// capped bounds the rounds of a shape that would otherwise sample for
	// seconds on the pin fixture.
	capped bool
	spec   func(k int) Spec
}

// confOpts is DefaultOptions at resolution r.
func confOpts(r float64) Options {
	opts := DefaultOptions()
	opts.Resolution = r
	return opts
}

func confShapes() []confShape {
	return []confShape{
		{name: "ifocus", seed: 7, bounded: true, spec: func(int) Spec { return Spec{Opts: confOpts(0)} }},
		{name: "ifocus-r", seed: 7, bounded: true, spec: func(int) Spec { return Spec{Opts: confOpts(40)} }},
		{name: "trend", seed: 9, bounded: true, spec: func(int) Spec { return Spec{Guarantee: GuarTrend, Opts: confOpts(0)} }},
		{name: "top-t", seed: 17, bounded: true, spec: func(int) Spec { return Spec{Guarantee: GuarTopT, T: 2, Opts: confOpts(0)} }},
		{name: "values", seed: 19, bounded: true, spec: func(int) Spec { return Spec{Guarantee: GuarValues, MaxError: 8, Opts: confOpts(0)} }},
		{name: "mistakes", seed: 23, bounded: true, spec: func(int) Spec {
			return Spec{Guarantee: GuarMistakes, CorrectPairs: 0.8, Opts: confOpts(0)}
		}},
		{name: "adjacency", seed: 13, bounded: true, spec: func(k int) Spec {
			return Spec{Guarantee: GuarAdjacency, Adjacency: GridAdjacency(2, k/2), Opts: confOpts(0)}
		}},
		{name: "roundrobin", seed: 7, bounded: true, spec: func(int) Spec { return Spec{Algorithm: AlgoRoundRobin, Opts: confOpts(0)} }},
		{name: "irefine", seed: 7, bounded: true, spec: func(int) Spec { return Spec{Algorithm: AlgoIRefine, Opts: confOpts(0)} }},
		{name: "sum-known", seed: 29, sum: true, bounded: true, spec: func(int) Spec { return Spec{Aggregate: AggSum, Opts: confOpts(0)} }},
		{name: "sum-unknown", seed: 31, sum: true, bounded: true, capped: true, spec: func(int) Spec {
			return Spec{Aggregate: AggNormalizedSum, Opts: confOpts(0)}
		}},
		{name: "count-unknown", seed: 37, sum: true, bounded: true, spec: func(int) Spec {
			return Spec{Aggregate: AggNormalizedCount, Opts: confOpts(0)}
		}},
		{name: "scan", seed: 1, spec: func(int) Spec { return Spec{Algorithm: AlgoScan, Opts: confOpts(0)} }},
		{name: "noindex", seed: 43, bounded: true, spec: func(int) Spec { return Spec{Algorithm: AlgoNoIndex, Opts: confOpts(0)} }},
	}
}

// capRounds bounds every run on the tiny fixture, whose near-equal means
// separate only by exhaustion (and never under with-replacement shapes),
// and the capped shapes. tinyDraws does the same for NOINDEX's draws.
const (
	capRounds = 12
	tinyDraws = 400
)

// invalidCell reports why a cell cannot run, or "" when it can. These are
// the matrix's only holes.
func invalidCell(sh confShape, bound conc.Kind) string {
	switch {
	case !sh.bounded && bound != conc.KindHoeffding:
		return "the shape takes no confidence bound"
	}
	return ""
}

// confCell names one reference group: every axis but backing and Workers.
type confCell struct {
	shape   confShape
	bound   conc.Kind
	filter  string
	batch   int
	fixture string
}

func batchLabel(b int) string {
	if b == BatchAuto {
		return "auto"
	}
	return fmt.Sprint(b)
}

func (c confCell) String() string {
	return fmt.Sprintf("%s/%s/%s/%s/%s", c.shape.name, c.bound, c.filter, batchLabel(c.batch), c.fixture)
}

// confRows is a fixture's rows: per group, the aggregated values and the
// extra filter column "k", uniform in [0, 100).
type confRows struct {
	names        []string
	values, keys [][]float64
}

// fixtureRows returns the rows a cell's fixture holds for its shape.
func fixtureRows(sh confShape, fixture string) confRows {
	if fixture == "tiny" {
		// The two three-row groups of TestGoldenPins/ifocus-exhaust; each
		// filter keeps at least one row of every group.
		k := []float64{1, 30, 80}
		return confRows{
			names:  []string{"a", "b"},
			values: [][]float64{{48, 50, 52}, {49, 51, 53}},
			keys:   [][]float64{k, k},
		}
	}
	u := pinUniverse()
	if sh.sum {
		u = pinSumUniverse()
	}
	r := xrand.New(0x6b)
	var rows confRows
	for _, g := range u.Groups {
		vals := g.(*dataset.SliceGroup).Values()
		keys := make([]float64, len(vals))
		for i := range keys {
			keys[i] = 100 * r.Float64()
		}
		rows.names = append(rows.names, g.Name())
		rows.values = append(rows.values, vals)
		rows.keys = append(rows.keys, keys)
	}
	return rows
}

// confPredicate is the filter's Where: dense keeps about half the rows (a
// bitmap selection), sparse about one in fifty (an index selection).
func confPredicate(filter string) (dataset.Predicate, func(k float64) bool) {
	c := 50.0
	if filter == "sparse" {
		c = 2
	}
	return dataset.Predicate{Column: "k", Op: dataset.OpLT, Value: c}, func(k float64) bool { return k < c }
}

// heapTable builds the rows that pass keep as a heap table.
func heapTable(t testing.TB, rows confRows, keep func(k float64) bool) *dataset.Table {
	b := dataset.NewTableBuilderColumns("value", "k")
	for g, name := range rows.names {
		for i, v := range rows.values[g] {
			if keep(rows.keys[g][i]) {
				if err := b.AddRow(name, v, rows.keys[g][i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func keepAll(float64) bool { return true }

// outcome is everything a run must reproduce.
type outcome struct {
	res      *RunResult
	err      error
	partials partialRecorder
	trace    traceRecorder
}

// String renders the whole outcome; cells compare it.
func (o *outcome) String() string {
	if o.err != nil {
		return "err:" + o.err.Error()
	}
	return o.view(viewMembers) + " partials=" + o.partials.String() + " trace=" + o.trace.String()
}

// A goldenView renders the parts of an outcome one committed golden pins,
// in that golden's own format.
type goldenView int

const (
	viewResult goldenView = iota
	viewPartials
	viewMembers
	viewTraceTail
	viewPartialsTrace
	viewNoIndex
	viewNoIndexCounts
)

func (o *outcome) view(v goldenView) string {
	if o.err != nil {
		return "err:" + o.err.Error()
	}
	res := o.res
	switch v {
	case viewPartials:
		return fingerprint(&res.Result, nil) + " partials=" + o.partials.String()
	case viewMembers:
		if res.TopMembers == nil {
			return fingerprint(&res.Result, nil)
		}
		return fingerprint(&res.Result, nil) + fmt.Sprintf(" members=%v membership=%v", res.TopMembers, res.Membership)
	case viewTraceTail:
		return fingerprint(&res.Result, nil) + " traceTail=" + o.trace.tail.String()
	case viewPartialsTrace:
		return fmt.Sprintf("total=%d partials=%s traceN=%d traceHead=%s traceTail=%s",
			res.TotalSamples, o.partials.String(), o.trace.n, o.trace.head, o.trace.tail)
	case viewNoIndex:
		var b strings.Builder
		fmt.Fprintf(&b, "total=%d capped=%v est=[", res.TotalSamples, res.Capped)
		for i, e := range res.Estimates {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.17g", e)
		}
		fmt.Fprintf(&b, "] counts=%v", res.SampleCounts)
		return b.String()
	case viewNoIndexCounts:
		return fmt.Sprintf("total=%d capped=%v counts=%v", res.TotalSamples, res.Capped, res.SampleCounts)
	}
	return fingerprint(&res.Result, nil)
}

// run executes cell c on u at the given Workers count.
func (c confCell) run(u *dataset.Universe, workers int) *outcome {
	spec := c.shape.spec(u.K())
	spec.Workers = workers
	spec.Opts.Bound = c.bound
	spec.Opts.BatchSize = c.batch
	seed := c.shape.seed
	if c.fixture == "tiny" {
		seed = 5
		if spec.Algorithm == AlgoNoIndex {
			spec.Opts.MaxDraws = tinyDraws
		}
	}
	if c.fixture == "tiny" || c.shape.capped {
		spec.Opts.MaxRounds = capRounds
	}
	if spec.Aggregate == AggNormalizedSum || spec.Aggregate == AggNormalizedCount {
		spec.Fractions = dataset.NewMembershipFractionEstimator(u)
	}
	o := new(outcome)
	spec.Opts.OnPartial = o.partials.hook()
	spec.Opts.OnRound = o.trace.OnRound
	o.res, o.err = Run(context.Background(), u, xrand.New(seed), spec)
	return o
}

// universe wraps a fresh view of groups with the fixtures' bound.
func universe(groups []dataset.Group) *dataset.Universe { return dataset.NewUniverse(100, groups...) }

// referenceTable is the heap table of c's surviving rows.
func (c confCell) referenceTable(t testing.TB) *dataset.Table {
	keep := keepAll
	if c.filter != "none" {
		_, keep = confPredicate(c.filter)
	}
	return heapTable(t, fixtureRows(c.shape, c.fixture), keep)
}

// reference runs c's reference cell on tbl, its referenceTable: the heap
// backing at Workers 1.
func (c confCell) reference(tbl *dataset.Table) *outcome {
	return c.run(universe(tbl.Groups()), 1)
}

// confBacking is one fixture's rows on every backing, with the filtered
// views of each.
type confBacking struct {
	name  string
	table *dataset.Table
	views map[string]*dataset.View
}

// groups returns the backing's one shared group set under filter: every
// pass of every cell samples these same groups, never a copy.
func (b *confBacking) groups(filter string) []dataset.Group {
	if filter == "none" {
		return b.table.Groups()
	}
	return b.views[filter].Groups()
}

// buildBackings writes rows to every backing under dir and plans the
// filtered views. The tables live for the whole matrix, so cells share
// their groups and the groups' draw-state pools.
func buildBackings(t *testing.T, rows confRows, dir string) []*confBacking {
	heap := heapTable(t, rows, keepAll)
	var out []*confBacking
	for _, name := range confBackings {
		b := &confBacking{name: name, table: heap, views: map[string]*dataset.View{}}
		if name != "heap" {
			opts := dataset.SegmentOptions{}
			if name == "v2" {
				opts = dataset.SegmentOptions{Compress: true, BlockLen: 64}
			}
			sub := fmt.Sprintf("%s/%s", dir, name)
			if err := heap.WriteSegmentsOptions(sub, opts); err != nil {
				t.Fatal(err)
			}
			st, err := dataset.OpenSegments(sub)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			b.table = st.Table
		}
		for _, f := range confFilters[1:] {
			pred, _ := confPredicate(f)
			v, err := b.table.Filter(pred)
			if err != nil {
				t.Fatal(err)
			}
			b.views[f] = v
		}
		out = append(out, b)
	}
	return out
}

// TestConformance runs every cell of the matrix against its reference.
func TestConformance(t *testing.T) {
	dir := t.TempDir()
	// Keyed by fixture rows: "pin", "pin-sum" (the sum shapes' pin rows)
	// and "tiny"; references by rows and filter.
	backings := map[string][]*confBacking{}
	references := map[string]*dataset.Table{}
	for _, fx := range []struct {
		key   string
		shape confShape
		fix   string
	}{{"pin", confShape{}, "pin"}, {"pin-sum", confShape{sum: true}, "pin"}, {"tiny", confShape{}, "tiny"}} {
		backings[fx.key] = buildBackings(t, fixtureRows(fx.shape, fx.fix), dir+"/"+fx.key)
		for _, f := range confFilters {
			references[fx.key+"/"+f] = confCell{shape: fx.shape, filter: f, fixture: fx.fix}.referenceTable(t)
		}
	}
	for _, sh := range confShapes() {
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			ran, holes := 0, map[string]int{}
			var refs strings.Builder
			for _, bound := range confBounds {
				for _, batch := range confBatches {
					if why := invalidCell(sh, bound); why != "" {
						holes[why] += len(confFilters) * len(confFixtures) * len(confBackings) * len(confWorkers)
						continue
					}
					for _, fixture := range confFixtures {
						key := fixture
						if fixture == "pin" && sh.sum {
							key = "pin-sum"
						}
						for _, filter := range confFilters {
							c := confCell{shape: sh, bound: bound, filter: filter, batch: batch, fixture: fixture}
							want := c.reference(references[key+"/"+filter]).String()
							fmt.Fprintf(&refs, "%s %s\n", c, want)
							for _, b := range backings[key] {
								for _, w := range confWorkers {
									u := universe(b.groups(filter))
									// Pass 1 runs alone, passes 2 and 3 at once
									// over the same groups: each run's draw
									// state is its own. The race detector slows
									// every run several times over, so under it
									// only the concurrent pair runs.
									got := make([]string, 3)
									first := 0
									if raceEnabled {
										first = 1
									} else {
										got[0] = c.run(u, w).String()
									}
									var wg sync.WaitGroup
									for pass := 1; pass < len(got); pass++ {
										wg.Add(1)
										go func() {
											defer wg.Done()
											got[pass] = c.run(u, w).String()
										}()
									}
									wg.Wait()
									for pass, g := range got {
										if pass >= first && g != want {
											t.Errorf("%s/%s/w%d pass %d diverged from its reference\n got: %s\nwant: %s",
												c, b.name, w, pass+1, g, want)
										}
									}
									ran++
								}
							}
						}
					}
				}
			}
			t.Logf("%d cells ran against their references; invalid by construction: %v", ran, holes)
			h := fnv.New64a()
			h.Write([]byte(refs.String()))
			if got, want := fmt.Sprintf("%016x", h.Sum64()), referenceDigests[sh.name]; got != want {
				t.Errorf("reference cells drifted: digest %s, pinned %q\n%s", got, want, refs.String())
			}
		})
	}
}

// referenceDigests pins every reference cell of each shape: the FNV-1a
// hash of the shape's reference outcomes, one "cell outcome" line each in
// enumeration order. A drift prints the lines; referenceGoldens below pin
// a few of them in full.
var referenceDigests = map[string]string{
	"ifocus":        "46131bdeddaaadb2",
	"ifocus-r":      "77747a5bf76b6e7b",
	"trend":         "22fcfcb2325d0ce6",
	"top-t":         "64373559e2ae9d72",
	"values":        "64ec96bf0dd8a759",
	"mistakes":      "6100e826a9b97ea9",
	"adjacency":     "67d3a1a4445bbdee",
	"roundrobin":    "79db4622a47c1976",
	"irefine":       "e03b204d9cef753e",
	"sum-known":     "35408be6be89cb78",
	"sum-unknown":   "b04882ac91f6de4e",
	"count-unknown": "c686dbc7c77ffb7f",
	"scan":          "492b7e5da8547ff6",
	"noindex":       "d6c6591dacfc84da",
}

// referenceGolden is a reference cell's committed fingerprint.
type referenceGolden struct {
	name string // the golden's test name
	cell confCell
	view goldenView
	want string
}

// shapeNamed returns the matrix shape called name.
func shapeNamed(name string) confShape {
	for _, sh := range confShapes() {
		if sh.name == name {
			return sh
		}
	}
	panic("no shape " + name)
}

// pinCell is the unfiltered BatchSize 1 reference cell of shape under bound
// on fixture.
func pinCell(shape string, bound conc.Kind, fixture string) confCell {
	return confCell{shape: shapeNamed(shape), bound: bound, filter: "none", batch: 1, fixture: fixture}
}

// referenceGoldens are the goldens a reference cell reproduces, byte for
// byte the strings the per-case pins held before the matrix.
var referenceGoldens = []referenceGolden{
	{
		name: "ifocus", cell: pinCell("ifocus", conc.KindHoeffding, "pin"), view: viewResult,
		want: "rounds=1001 total=5699 capped=false eps=5.725406528135057 est=[14.885397685372219 27.445416999858228 39.530414297692133 50.986818222988305 62.779736901504556 74.937832440269403] counts=[876 936 1001 1001 964 921] settled=[876 936 1001 1001 964 921]",
	},
	{
		name: "ifocus-partials-trace", cell: pinCell("ifocus", conc.KindHoeffding, "pin"), view: viewPartialsTrace,
		want: "total=5699 partials=0@876=14.885397685372219,5@921=74.937832440269403,1@936=27.445416999858228,4@964=62.779736901504556,2@1001=39.530414297692133,3@1001=50.986818222988305 traceN=1001 traceHead=1:172.89215172778574:6:6 traceTail=1001:5.725406528135057:0:5699",
	},
	{
		name: "ifocus-resolution", cell: pinCell("ifocus-r", conc.KindHoeffding, "pin"), view: viewResult,
		want: "rounds=413 total=2478 capped=false eps=9.9972306425406643 est=[14.799720751587939 27.481211869128337 39.608109963201734 50.559023300237939 62.610758804542357 75.20992728762856] counts=[413 413 413 413 413 413] settled=[413 413 413 413 413 413]",
	},
	{
		name: "ifocus-exhaust", cell: pinCell("ifocus", conc.KindHoeffding, "tiny"), view: viewResult,
		want: "rounds=4 total=6 capped=false eps=0 est=[50 51] counts=[3 3] settled=[4 4]",
	},
	{
		name: "roundrobin", cell: pinCell("roundrobin", conc.KindHoeffding, "pin"), view: viewTraceTail,
		want: "rounds=1001 total=6006 capped=false eps=5.725406528135057 est=[14.821129536215993 27.386391668186199 39.530414297692133 50.986818222988305 62.837639019349716 74.946690944749719] counts=[1001 1001 1001 1001 1001 1001] settled=[1001 1001 1001 1001 1001 1001] traceTail=1001:5.725406528135057:6:6006",
	},
	{
		// Re-pinned when IREFINE moved off the legacy shared RNG stream
		// onto the per-group stream discipline of the round driver (one
		// xrand.NewStream per group, keyed by seed and group index).
		name: "irefine", cell: pinCell("irefine", conc.KindHoeffding, "pin"), view: viewResult,
		want: "rounds=4 total=18000 capped=false eps=0 est=[15.066347863553977 27.240496922976085 39.237187831603414 51.034824541848124 62.991850098264337 75.181731292030207] counts=[3000 3000 3000 3000 3000 3000] settled=[4 4 4 4 4 4]",
	},
	{
		name: "trend", cell: pinCell("trend", conc.KindHoeffding, "pin"), view: viewPartials,
		want: "rounds=958 total=5627 capped=false eps=5.9112365565225016 est=[14.98882187147681 27.306033580766865 39.132405718614031 51.151750321062629 63.119581530719984 75.302182658046618] counts=[906 958 958 942 942 921] settled=[906 958 958 942 942 921] partials=0@906=14.98882187147681,5@921=75.302182658046618,3@942=51.151750321062629,4@942=63.119581530719984,1@958=27.306033580766865,2@958=39.132405718614031",
	},
	{
		name: "chloropleth-grid", cell: pinCell("adjacency", conc.KindHoeffding, "pin"), view: viewResult,
		want: "rounds=958 total=5607 capped=false eps=5.9112365565225016 est=[14.984002034767625 27.427932275356579 39.399712065251315 50.980711637646031 62.803914042869067 75.028368150787557] counts=[889 943 943 958 958 916] settled=[889 943 943 958 958 916]",
	},
	{
		name: "topt", cell: pinCell("top-t", conc.KindHoeffding, "pin"), view: viewMembers,
		want: "rounds=955 total=3312 capped=false eps=5.9245838577267795 est=[14.642704383266405 27.920132987304026 39.137134493607029 50.955908795951935 62.808589247053384 75.435037961539962] counts=[77 149 309 955 955 867] settled=[77 149 309 955 955 867] members=[5 4] membership=[out out out out in in]",
	},
	{
		name: "values", cell: pinCell("values", conc.KindHoeffding, "pin"), view: viewResult,
		want: "rounds=1529 total=9174 capped=false eps=3.9982341134852404 est=[15.031381386865853 27.228184910751043 39.292486434210311 50.89334030539365 62.914903083518503 75.063433175433246] counts=[1529 1529 1529 1529 1529 1529] settled=[1529 1529 1529 1529 1529 1529]",
	},
	{
		name: "mistakes", cell: pinCell("mistakes", conc.KindHoeffding, "pin"), view: viewResult,
		want: "rounds=926 total=5556 capped=false eps=6.0563531980809024 est=[15.255658839387243 27.285092890904025 38.788664180034843 50.977217026443306 63.017577074023002 75.145692751150122] counts=[926 926 926 926 926 926] settled=[926 926 926 926 926 926]",
	},
	{
		name: "sum-known", cell: pinCell("sum-known", conc.KindHoeffding, "pin"), view: viewPartials,
		want: "rounds=3091 total=8444 capped=false eps=1.9148810983631754 est=[19901.841418532815 87614.455006064483 24994.308114855405 79952.937308221633 52686.720643273205] counts=[1000 2500 500 3091 1353] settled=[1001 2501 501 3091 1353] partials=2@501=24994.308114855405,0@1001=19901.841418532815,4@1353=52686.720643273205,1@2501=87614.455006064483,3@3091=79952.937308221633",
	},
	{
		name: "count-unknown", cell: pinCell("count-unknown", conc.KindHoeffding, "pin"), view: viewResult,
		want: "rounds=8146 total=26015 capped=false eps=0.025011218108140987 est=[0.10299533513380775 0.25935653315824048 0.052909403388165917 0.4242878560719644 0.15544935616620151] counts=[8146 1523 8146 667 7533] settled=[8146 1523 8146 667 7533]",
	},
	{
		// Re-pinned when NOINDEX moved onto the round driver: tuples come
		// from one unit on the stream of group 0, not the caller's
		// generator, and each group settles on its own count.
		name: "noindex", cell: pinCell("noindex", conc.KindHoeffding, "pin"), view: viewNoIndex,
		want: "total=8592 capped=false est=[15.124085028207615 27.250654074478668 39.314956135894214 51.211395361384938 63.017793177729011 74.88351224580191] counts=[1451 1427 1429 1410 1446 1429]",
	},
	{
		name: "irefine-bernstein", cell: pinCell("irefine", conc.KindBernstein, "pin"), view: viewResult,
		want: "rounds=4 total=18000 capped=false eps=0 est=[15.066347863553977 27.240496922976085 39.237187831603414 51.034824541848124 62.991850098264337 75.181731292030207] counts=[3000 3000 3000 3000 3000 3000] settled=[4 4 4 4 4 4]",
	},
	{
		// Re-pinned with the noindex golden, for the same cause.
		name: "noindex-bernstein", cell: pinCell("noindex", conc.KindBernstein, "pin"), view: viewNoIndexCounts,
		want: "total=4362 capped=false counts=[767 717 743 721 728 686]",
	},
}

// checkReferenceGoldens runs, as subtests, the reference goldens whose
// bound satisfies pick.
func checkReferenceGoldens(t *testing.T, pick func(conc.Kind) bool) {
	for _, g := range referenceGoldens {
		if !pick(g.cell.bound) {
			continue
		}
		t.Run(g.name, func(t *testing.T) {
			if got := g.cell.reference(g.cell.referenceTable(t)).view(g.view); got != g.want {
				t.Errorf("reference cell %s drifted\n got: %s\nwant: %s", g.cell, got, g.want)
			}
		})
	}
}

// closeUniverse is the guarantee slice's adversarial fixture: four groups
// of 2 000 rows in {0, 100} — the largest variance the domain allows —
// with means 49, 49.5, 50 and 50.5, a hundredth of a standard deviation
// apart. Runs mostly end by exhausting the groups, so every round until
// then is a chance for an interval to miss.
func closeUniverse() *dataset.Universe {
	r := xrand.New(0xc105e)
	groups := make([]dataset.Group, 4)
	for g := range groups {
		vals := make([]float64, 2000)
		for i := 0; i < 980+10*g; i++ {
			vals[i] = 100
		}
		r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		groups[g] = dataset.NewSliceGroup(fmt.Sprint(g), vals)
	}
	return universe(groups)
}

// TestGuaranteeSlice checks the guarantee itself: over 400 seeds per cell
// on closeUniverse, a run fails when it is capped, when its answer breaks
// the shape's ordering property, or when at any round some group's
// interval (the width OnRound reports, around the estimate) misses the
// group's true mean — the event every bound's δ budget covers, and the
// earliest sign of a radius that is too narrow. Per cell, failures must
// stay within a binomial tolerance of δ·n.
func TestGuaranteeSlice(t *testing.T) {
	const seeds = 400
	type sliceCell struct {
		shape string
		bound conc.Kind
	}
	var cells []sliceCell
	for _, shape := range []string{"ifocus", "ifocus-r", "trend", "top-t"} {
		for _, bound := range confBounds {
			cells = append(cells, sliceCell{shape, bound})
		}
	}
	cells = append(cells, sliceCell{"roundrobin", conc.KindHoeffding})
	// IREFINE-R at r = 40 settles long before any group runs out; at r = 1
	// its batches reach the ends of the groups, the case that must answer
	// with the exact mean at width zero. NOINDEX-R at r = 40 settles each
	// group on its own count through the driver's per-group resolution
	// exit.
	for _, shape := range []string{"irefine-r", "irefine-r1", "noindex-r"} {
		cells = append(cells, sliceCell{shape, conc.KindHoeffding}, sliceCell{shape, conc.KindBernstein})
	}
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s/%s", c.shape, c.bound), func(t *testing.T) {
			t.Parallel()
			u := closeUniverse()
			truth := u.TrueMeans()
			var spec Spec
			switch c.shape {
			case "irefine-r":
				spec = Spec{Algorithm: AlgoIRefine, Opts: confOpts(40)}
			case "irefine-r1":
				spec = Spec{Algorithm: AlgoIRefine, Opts: confOpts(1)}
			case "noindex-r":
				spec = Spec{Algorithm: AlgoNoIndex, Opts: confOpts(40)}
			default:
				spec = shapeNamed(c.shape).spec(u.K())
			}
			spec.Opts.Bound = c.bound
			correct := func(res *RunResult) bool {
				switch spec.Guarantee {
				case GuarTrend:
					return AdjacentCorrect(res.Estimates, truth, 0)
				case GuarTopT:
					return TopTCorrect(res.Estimates, truth, spec.T, 0)
				}
				return ResolutionCorrect(res.Estimates, truth, spec.Opts.Resolution)
			}
			var missed bool
			spec.Opts.OnRound = func(_ int, _ float64, widths []float64, _ []bool, est []float64, _ int64) {
				for i, w := range widths {
					// The slack absorbs the rounding of an exhausted group's
					// running mean, which settles at width zero.
					if math.Abs(est[i]-truth[i]) > w+1e-9 {
						missed = true
					}
				}
			}
			fails := 0
			for seed := uint64(1); seed <= seeds; seed++ {
				missed = false
				res, err := Run(context.Background(), u, xrand.New(seed), spec)
				if err != nil {
					t.Fatal(err)
				}
				if res.Capped || missed || !correct(res) {
					fails++
				}
			}
			delta := spec.Opts.Delta
			limit := delta*seeds + 3*math.Sqrt(seeds*delta*(1-delta))
			t.Logf("%d of %d runs failed", fails, seeds)
			if float64(fails) > limit {
				t.Errorf("%d of %d runs failed; δ = %v allows %.1f", fails, seeds, delta, limit)
			}
		})
	}
}
