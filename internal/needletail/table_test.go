package needletail

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/needletail/disksim"
	"repro/internal/xrand"
)

func testDevice() *disksim.Device {
	m := disksim.DefaultCostModel()
	m.BlockSize = 4096 // small blocks so tests exercise page boundaries
	return disksim.MustNew(m)
}

func buildTestTable(t *testing.T, rows int) *MaterializedTable {
	t.Helper()
	schema := Schema{GroupColumn: "g", ValueColumns: []string{"x", "y"}}
	b := NewTableBuilder(schema, testDevice())
	r := xrand.New(7)
	groups := []string{"red", "green", "blue"}
	for i := 0; i < rows; i++ {
		g := groups[r.Intn(len(groups))]
		base := float64(10 * (1 + indexOf(groups, g)))
		if err := b.Append(g, base+r.Float64(), 100-base); err != nil {
			t.Fatal(err)
		}
	}
	table, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func indexOf(xs []string, s string) int {
	for i, x := range xs {
		if x == s {
			return i
		}
	}
	return -1
}

func TestTableBuildAndScan(t *testing.T) {
	table := buildTestTable(t, 10_000)
	if table.NumRows() != 10_000 {
		t.Fatalf("rows %d", table.NumRows())
	}
	if len(table.GroupNames()) != 3 {
		t.Fatalf("groups %v", table.GroupNames())
	}
	var total int64
	for c := range table.GroupNames() {
		total += table.GroupSize(c)
	}
	if total != 10_000 {
		t.Fatalf("group sizes sum to %d", total)
	}
	// Scan aggregates column x: group means must be near 10/20/30 + 0.5.
	sums, counts := table.ScanAggregate(0)
	for c, name := range table.GroupNames() {
		mean := sums[c] / float64(counts[c])
		want := 10*float64(1+indexOf([]string{"red", "green", "blue"}, name)) + 0.5
		if math.Abs(mean-want) > 0.1 {
			t.Fatalf("group %s mean %v, want ~%v", name, mean, want)
		}
	}
	// Scan charges sequential blocks plus hash updates.
	st := table.Device().Stats()
	if st.SeqBlocks == 0 || st.CPUSeconds == 0 {
		t.Fatalf("scan not charged: %+v", st)
	}
}

func TestTableAppendValidation(t *testing.T) {
	schema := Schema{GroupColumn: "g", ValueColumns: []string{"x"}}
	b := NewTableBuilder(schema, testDevice())
	if err := b.Append("g1", 1, 2); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("empty table built")
	}
}

func TestTableSampleRowUniform(t *testing.T) {
	table := buildTestTable(t, 5_000)
	r := xrand.New(9)
	red := indexOf(table.GroupNames(), "red")
	// Sampling column x from group "red" must stay within red's value
	// range [10, 11) and approximate the group mean.
	sum := 0.0
	const n = 20_000
	for i := 0; i < n; i++ {
		v := table.SampleRow(red, 0, r)
		if v < 10 || v >= 11 {
			t.Fatalf("sample %v outside red's range", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-10.5) > 0.05 {
		t.Fatalf("sample mean %v, want ~10.5", mean)
	}
}

func TestTableBlockCache(t *testing.T) {
	table := buildTestTable(t, 50_000)
	dev := table.Device()
	dev.Reset()
	r := xrand.New(10)
	for i := 0; i < 10_000; i++ {
		table.SampleRow(1, 0, r)
	}
	st := dev.Stats()
	if st.RandBlockMisses == 0 {
		t.Fatal("no block reads charged")
	}
	if st.RandBlockHits == 0 {
		t.Fatal("no cache hits despite heavy resampling")
	}
	// Misses are bounded by the table's page count.
	maxPages := int64(len(table.pages))
	if st.RandBlockMisses > maxPages {
		t.Fatalf("%d misses exceed %d pages", st.RandBlockMisses, maxPages)
	}
}

func TestPredicateBitmapAndSampleWhere(t *testing.T) {
	table := buildTestTable(t, 20_000)
	// Predicate on column y: y > 75 selects exactly the red rows (y=90)
	// and green rows (y=80), not blue (y=70).
	pred := table.PredicateBitmap(1, func(v float64) bool { return v > 75 })
	// Dictionary codes follow first-appearance order; resolve by name.
	code := map[string]int{}
	for c, name := range table.GroupNames() {
		code[name] = c
	}
	want := int(table.GroupSize(code["red"]) + table.GroupSize(code["green"]))
	if pred.Count() != want {
		t.Fatalf("predicate selected %d rows, want %d", pred.Count(), want)
	}
	// Restricted to the predicate, blue has no rows left and is dropped.
	eng, err := NewEngine(table, "x", 50)
	if err != nil {
		t.Fatal(err)
	}
	u, err := eng.UniverseWhere(pred)
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]dataset.Group{}
	for _, g := range u.Groups {
		groups[g.Name()] = g
	}
	if _, ok := groups["blue"]; ok {
		t.Fatal("blue row satisfied an unsatisfiable predicate")
	}
	// Drawing red under the predicate yields red x-values.
	red, ok := groups["red"]
	if !ok {
		t.Fatal("red has no rows under the predicate")
	}
	if v := red.Draw(xrand.New(11)); v < 10 || v >= 11 {
		t.Fatalf("red predicate sample %v", v)
	}
}

func TestCompressedIndexReporting(t *testing.T) {
	table := buildTestTable(t, 30_000)
	compressed, plain := table.CompressedIndexWords()
	if compressed <= 0 || plain <= 0 {
		t.Fatalf("sizes %d/%d", compressed, plain)
	}
	// Random group assignment compresses poorly; just verify the plain
	// size is 3 bitmaps over 30k rows.
	wantPlain := 3 * ((30_000 + 63) / 64)
	if plain != wantPlain {
		t.Fatalf("plain words %d, want %d", plain, wantPlain)
	}
}

func TestVirtualTable(t *testing.T) {
	schema := Schema{GroupColumn: "g", ValueColumns: []string{"v"}}
	dev := testDevice()
	specs := []VirtualGroupSpec{
		{Name: "a", N: 1 << 30, Dists: []xrand.Dist{xrand.Point(10)}},
		{Name: "b", N: 1 << 31, Dists: []xrand.Dist{xrand.Point(20)}},
	}
	vt, err := NewVirtualTable(schema, dev, specs)
	if err != nil {
		t.Fatal(err)
	}
	if vt.NumRows() != (1<<30)+(1<<31) {
		t.Fatalf("rows %d", vt.NumRows())
	}
	r := xrand.New(12)
	if v := vt.SampleRow(0, 0, r); v != 10 {
		t.Fatalf("sample %v", v)
	}
	sums, counts := vt.ScanAggregate(0)
	if sums[1]/float64(counts[1]) != 20 {
		t.Fatal("virtual scan mean wrong")
	}
	st := dev.Stats()
	if st.SeqBlocks == 0 {
		t.Fatal("virtual scan charged no blocks")
	}
}

func TestVirtualTableValidation(t *testing.T) {
	schema := Schema{GroupColumn: "g", ValueColumns: []string{"v"}}
	dev := testDevice()
	if _, err := NewVirtualTable(schema, dev, nil); err == nil {
		t.Fatal("empty specs accepted")
	}
	if _, err := NewVirtualTable(schema, dev, []VirtualGroupSpec{{Name: "a", N: 0, Dists: []xrand.Dist{xrand.Point(1)}}}); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := NewVirtualTable(schema, dev, []VirtualGroupSpec{{Name: "a", N: 5, Dists: nil}}); err == nil {
		t.Fatal("missing dists accepted")
	}
}
