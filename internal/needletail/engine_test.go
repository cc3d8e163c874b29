package needletail

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/needletail/disksim"
	"repro/internal/xrand"
)

func buildEngineTable(t *testing.T, rows int) *MaterializedTable {
	t.Helper()
	schema := Schema{GroupColumn: "g", ValueColumns: []string{"v"}}
	b := NewTableBuilder(schema, testDevice())
	r := xrand.New(21)
	means := map[string]float64{"a": 20, "b": 50, "c": 80}
	for i := 0; i < rows; i++ {
		name := []string{"a", "b", "c"}[r.Intn(3)]
		d := xrand.TruncNormal{Mu: means[name], Sigma: 8, Lo: 0, Hi: 100}
		if err := b.Append(name, d.Sample(r)); err != nil {
			t.Fatal(err)
		}
	}
	table, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func TestEngineValidation(t *testing.T) {
	table := buildEngineTable(t, 1000)
	if _, err := NewEngine(table, "nope", 100); err == nil {
		t.Fatal("bad column accepted")
	}
	if _, err := NewEngine(table, "v", 0); err == nil {
		t.Fatal("zero bound accepted")
	}
}

func TestEngineIFocusEndToEnd(t *testing.T) {
	table := buildEngineTable(t, 60_000)
	eng, err := NewEngine(table, "v", 100)
	if err != nil {
		t.Fatal(err)
	}
	u := eng.Universe()
	truth := u.TrueMeans()
	table.Device().Reset()
	res, err := core.IFocus(u, xrand.New(22), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !core.CorrectOrdering(res.Estimates, truth) {
		t.Fatalf("ordering wrong: %v vs %v", res.Estimates, truth)
	}
	st := table.Device().Stats()
	if st.RandBlockMisses == 0 || st.CPUSeconds == 0 {
		t.Fatalf("engine run charged nothing: %+v", st)
	}
}

func TestEngineScanMatchesOracle(t *testing.T) {
	table := buildEngineTable(t, 20_000)
	eng, err := NewEngine(table, "v", 100)
	if err != nil {
		t.Fatal(err)
	}
	scan := eng.Scan()
	for i, g := range eng.Universe().Groups {
		if math.Abs(scan[i]-g.TrueMean()) > 1e-9 {
			t.Fatalf("scan mean %v != oracle %v", scan[i], g.TrueMean())
		}
	}
}

func TestEngineWithoutReplacementExact(t *testing.T) {
	// Consuming a group's full permutation through the engine reproduces
	// the exact group mean — the property Table 3 relies on to order
	// near-tied airlines.
	table := buildEngineTable(t, 3000)
	eng, err := NewEngine(table, "v", 100)
	if err != nil {
		t.Fatal(err)
	}
	drainExact(t, eng.Universe(), 23)
}

// drainExact draws group 0 of u without replacement through a sampler:
// its Size() draws give the exact mean, the next one marks it exhausted,
// and a fresh sampler on the same seed repeats the first draw.
func drainExact(t *testing.T, u *dataset.Universe, seed uint64) {
	t.Helper()
	g := u.Groups[0]
	s := dataset.NewStreamSampler(u, seed, true)
	first := s.Draw(0)
	sum := first
	for n := int64(1); n < g.Size(); n++ {
		sum += s.Draw(0)
	}
	if s.Exhausted(0) {
		t.Fatalf("exhausted after %d of %d draws", g.Size(), g.Size())
	}
	if got, want := sum/float64(g.Size()), g.TrueMean(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("permutation mean %v != oracle %v", got, want)
	}
	s.Draw(0)
	if !s.Exhausted(0) {
		t.Fatal("draw past the population did not set Exhausted")
	}
	if again := dataset.NewStreamSampler(u, seed, true).Draw(0); again != first {
		t.Fatalf("fresh sampler drew %v first, want %v", again, first)
	}
}

func TestEngineFractionEstimator(t *testing.T) {
	table := buildEngineTable(t, 30_000)
	eng, err := NewEngine(table, "v", 100)
	if err != nil {
		t.Fatal(err)
	}
	est := eng.FractionEstimator()
	r := xrand.New(24)
	const n = 100_000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += est.DrawFractionEstimate(1, r)
	}
	want := float64(table.GroupSize(1)) / float64(table.NumRows())
	if got := sum / n; math.Abs(got-want) > 0.01 {
		t.Fatalf("fraction %v, want %v", got, want)
	}
}

func TestEngineFractionEstimatorVirtual(t *testing.T) {
	schema := Schema{GroupColumn: "g", ValueColumns: []string{"v"}}
	vt, err := NewVirtualTable(schema, testDevice(), []VirtualGroupSpec{
		{Name: "a", N: 3000, Dists: []xrand.Dist{xrand.Point(1)}},
		{Name: "b", N: 7000, Dists: []xrand.Dist{xrand.Point(2)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(vt, "v", 100)
	if err != nil {
		t.Fatal(err)
	}
	est := eng.FractionEstimator()
	r := xrand.New(25)
	const n = 100_000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += est.DrawFractionEstimate(1, r)
	}
	if got := sum / n; math.Abs(got-0.7) > 0.01 {
		t.Fatalf("virtual fraction %v, want 0.7", got)
	}
}

func TestDisksimModelValidation(t *testing.T) {
	bad := disksim.DefaultCostModel()
	bad.BlockSize = 0
	if _, err := disksim.New(bad); err == nil {
		t.Fatal("zero block size accepted")
	}
	bad = disksim.DefaultCostModel()
	bad.RandBlockTime = -1
	if _, err := disksim.New(bad); err == nil {
		t.Fatal("negative cost accepted")
	}
}

func TestDisksimAccounting(t *testing.T) {
	d := disksim.MustNew(disksim.DefaultCostModel())
	d.ChargeSeqBlocks(10)
	d.ChargeBlockRead(5)
	d.ChargeBlockRead(5) // cached
	d.ChargeHashUpdates(1000)
	d.ChargeSampleCPU(1000)
	st := d.Stats()
	if st.SeqBlocks != 10 || st.RandBlockMisses != 1 || st.RandBlockHits != 1 {
		t.Fatalf("stats %+v", st)
	}
	m := d.Model()
	wantIO := 10*m.SeqBlockTime + m.RandBlockTime
	if math.Abs(st.IOSeconds-wantIO) > 1e-12 {
		t.Fatalf("io %v, want %v", st.IOSeconds, wantIO)
	}
	wantCPU := 1000*m.HashUpdateTime + 1000*m.SampleCPUTime
	if math.Abs(st.CPUSeconds-wantCPU) > 1e-12 {
		t.Fatalf("cpu %v, want %v", st.CPUSeconds, wantCPU)
	}
	if math.Abs(st.TotalSeconds()-(wantIO+wantCPU)) > 1e-12 {
		t.Fatal("total != io + cpu")
	}
	d.Reset()
	if d.Stats().TotalSeconds() != 0 {
		t.Fatal("reset failed")
	}
	d.ChargeBlockRead(5)
	if d.Stats().RandBlockMisses != 1 {
		t.Fatal("reset did not clear the cache")
	}
}

func TestBlocksForRows(t *testing.T) {
	d := disksim.MustNew(disksim.DefaultCostModel())
	if got := d.BlocksForRows(0, 8); got != 0 {
		t.Fatalf("zero rows: %d", got)
	}
	perBlock := int64((1 << 20) / 8)
	if got := d.BlocksForRows(perBlock, 8); got != 1 {
		t.Fatalf("exactly one block: %d", got)
	}
	if got := d.BlocksForRows(perBlock+1, 8); got != 2 {
		t.Fatalf("one block plus a row: %d", got)
	}
}

func TestUniverseWhereEndToEnd(t *testing.T) {
	// Build a table where a predicate on a second column flips the group
	// ordering: within v2 > 50, group means differ from the unfiltered ones.
	schema := Schema{GroupColumn: "g", ValueColumns: []string{"v", "flag"}}
	b := NewTableBuilder(schema, testDevice())
	r := xrand.New(31)
	for i := 0; i < 40_000; i++ {
		name := []string{"a", "b"}[r.Intn(2)]
		flag := float64(r.Intn(2) * 100)
		var mean float64
		switch {
		case name == "a" && flag > 50:
			mean = 80 // filtered: a > b
		case name == "a":
			mean = 10 // unfiltered: a ≈ 45 < b ≈ 50
		case flag > 50:
			mean = 40
		default:
			mean = 60
		}
		d := xrand.TruncNormal{Mu: mean, Sigma: 5, Lo: 0, Hi: 100}
		if err := b.Append(name, d.Sample(r), flag); err != nil {
			t.Fatal(err)
		}
	}
	table, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(table, "v", 100)
	if err != nil {
		t.Fatal(err)
	}
	pred := table.PredicateBitmap(1, func(v float64) bool { return v > 50 })
	u, err := eng.UniverseWhere(pred)
	if err != nil {
		t.Fatal(err)
	}
	if u.K() != 2 {
		t.Fatalf("predicate universe has %d groups", u.K())
	}
	truth := u.TrueMeans()
	res, err := core.IFocus(u, xrand.New(32), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !core.CorrectOrdering(res.Estimates, truth) {
		t.Fatalf("filtered ordering wrong: %v vs %v", res.Estimates, truth)
	}
	// The filtered ordering differs from the unfiltered one (a's filtered
	// mean is high, unfiltered low) — the point of predicate support.
	full := eng.Universe().TrueMeans()
	if (full[0] < full[1]) == (truth[0] < truth[1]) {
		t.Fatal("test setup: predicate did not flip the ordering")
	}
	// Empty predicate rejected.
	if _, err := eng.UniverseWhere(bitmap.New(int(table.NumRows()))); err == nil {
		t.Fatal("empty predicate accepted")
	}
}

func TestPredicateGroupWithoutReplacement(t *testing.T) {
	schema := Schema{GroupColumn: "g", ValueColumns: []string{"v", "flag"}}
	b := NewTableBuilder(schema, testDevice())
	r := xrand.New(33)
	for i := 0; i < 2000; i++ {
		if err := b.Append("only", r.Float64()*100, float64(i%2*100)); err != nil {
			t.Fatal(err)
		}
	}
	table, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(table, "v", 100)
	if err != nil {
		t.Fatal(err)
	}
	pred := table.PredicateBitmap(1, func(v float64) bool { return v > 50 })
	u, err := eng.UniverseWhere(pred)
	if err != nil {
		t.Fatal(err)
	}
	drainExact(t, u, 33)
}

func TestConcurrentQueriesOverOneStore(t *testing.T) {
	// Two runs at once over one universe's groups each match the serial
	// run: the groups hold no draw state, so neither run consumes the
	// other's permutation, and the bitmaps they select through are
	// indexed before the groups are published.
	table := buildEngineTable(t, 30_000)
	eng, err := NewEngine(table, "v", 100)
	if err != nil {
		t.Fatal(err)
	}
	where, err := eng.UniverseWhere(table.PredicateBitmap(0, func(v float64) bool { return v > 40 }))
	if err != nil {
		t.Fatal(err)
	}
	for ui, u := range []*dataset.Universe{eng.Universe(), where} {
		for _, batch := range []int{1, core.BatchAuto} {
			opts := core.DefaultOptions()
			opts.BatchSize = batch
			want, err := core.IFocus(u, xrand.New(5), opts)
			if err != nil {
				t.Fatal(err)
			}
			var got [2]*core.Result
			var errs [2]error
			var wg sync.WaitGroup
			for j := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[j], errs[j] = core.IFocus(u, xrand.New(5), opts)
				}()
			}
			wg.Wait()
			for j, res := range got {
				if errs[j] != nil {
					t.Fatal(errs[j])
				}
				if !slices.Equal(res.Estimates, want.Estimates) || !slices.Equal(res.SampleCounts, want.SampleCounts) {
					t.Fatalf("universe %d batch=%d run %d: estimates %v counts %v, serial %v %v",
						ui, batch, j, res.Estimates, res.SampleCounts, want.Estimates, want.SampleCounts)
				}
			}
		}
	}
}
