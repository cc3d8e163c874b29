package dataset

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// filterTestTable builds a small table with one extra column: values count
// 0..n-1 per group, dist = 10*value.
func filterTestTable(t *testing.T, sizes map[string]int) *Table {
	t.Helper()
	b := NewTableBuilderColumns("delay", "dist")
	for _, name := range []string{"a", "b", "c"} {
		n, ok := sizes[name]
		if !ok {
			continue
		}
		for i := 0; i < n; i++ {
			if err := b.AddRow(name, float64(i), float64(10*i)); err != nil {
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

func TestPredicateOps(t *testing.T) {
	cases := []struct {
		op   PredicateOp
		v, c float64
		want bool
	}{
		{OpLT, 1, 2, true}, {OpLT, 2, 2, false},
		{OpLE, 2, 2, true}, {OpLE, 3, 2, false},
		{OpGT, 3, 2, true}, {OpGT, 2, 2, false},
		{OpGE, 2, 2, true}, {OpGE, 1, 2, false},
		{OpEQ, 2, 2, true}, {OpEQ, 1, 2, false},
		{OpNE, 1, 2, true}, {OpNE, 2, 2, false},
	}
	for _, c := range cases {
		if got := c.op.codec().Eval(c.v, c.c); got != c.want {
			t.Errorf("%v.eval(%v, %v) = %v, want %v", c.op, c.v, c.c, got, c.want)
		}
	}
}

func TestFilterMatchesBruteForce(t *testing.T) {
	tab := filterTestTable(t, map[string]int{"a": 200, "b": 50, "c": 120})
	preds := []Predicate{
		{Column: "delay", Op: OpGE, Value: 10},
		{Column: "dist", Op: OpLT, Value: 900},
	}
	v, err := tab.Filter(preds...)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force per group: values i with i >= 10 && 10i < 900 → 10..89,
	// clamped to the group size.
	wantCount := func(n int) int {
		c := 0
		for i := 0; i < n; i++ {
			if i >= 10 && 10*i < 900 {
				c++
			}
		}
		return c
	}
	sizes := []int{200, 50, 120}
	names := []string{"a", "b", "c"}
	if v.K() != 3 {
		t.Fatalf("view has %d groups, want 3: %v", v.K(), v.Names())
	}
	for i, g := range v.Groups() {
		if g.Name() != names[i] {
			t.Fatalf("group %d is %q, want %q", i, g.Name(), names[i])
		}
		want := wantCount(sizes[i])
		if int(g.Size()) != want {
			t.Fatalf("group %q selected %d rows, want %d", g.Name(), g.Size(), want)
		}
		// TrueMean over selection: mean of the surviving integers.
		sum, n := 0.0, 0
		for j := 0; j < sizes[i]; j++ {
			if j >= 10 && 10*j < 900 {
				sum += float64(j)
				n++
			}
		}
		if got := g.TrueMean(); got != sum/float64(n) {
			t.Fatalf("group %q mean %v, want %v", g.Name(), got, sum/float64(n))
		}
	}
	if v.NumRows() != int64(wantCount(200)+wantCount(50)+wantCount(120)) {
		t.Fatalf("view rows %d", v.NumRows())
	}
	if v.MaxValue() != 89 {
		t.Fatalf("view max %v, want 89", v.MaxValue())
	}
}

func TestFilterGroupInclusionUsesIndexPath(t *testing.T) {
	tab := filterTestTable(t, map[string]int{"a": 30, "b": 30, "c": 30})
	v, err := tab.Filter(Predicate{Groups: []string{"c", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Names(); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("names %v, want [a c] in table order", got)
	}
	// Pure inclusion keeps whole groups as zero-copy table views.
	for _, g := range v.Groups() {
		tg, ok := g.(*TableGroup)
		if !ok {
			t.Fatalf("inclusion-only group is %T, want *TableGroup (no selection vector)", g)
		}
		if tg.Size() != 30 {
			t.Fatalf("group %q size %d", tg.Name(), tg.Size())
		}
	}
	// Intersecting inclusion lists.
	v2, err := tab.Filter(Predicate{Groups: []string{"c", "a"}}, Predicate{Groups: []string{"c", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := v2.Names(); len(got) != 1 || got[0] != "c" {
		t.Fatalf("intersection %v, want [c]", got)
	}
}

func TestFilterDenseVsSparseRepresentation(t *testing.T) {
	b := NewTableBuilder()
	for i := 0; i < 10_000; i++ {
		b.Add("g", float64(i%100))
	}
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Half the rows survive: dense → bitmap.
	dense, err := tab.Filter(Predicate{Op: OpLT, Value: 50})
	if err != nil {
		t.Fatal(err)
	}
	fg := dense.Groups()[0].(*FilteredGroup)
	if fg.sel.bits == nil || fg.sel.idx != nil {
		t.Fatalf("dense selection (density 0.5) should be bitmap-backed")
	}
	if fg.sel.count != 5000 {
		t.Fatalf("dense count %d", fg.sel.count)
	}
	// One row in a hundred: sparse → index slice.
	sparse, err := tab.Filter(Predicate{Op: OpEQ, Value: 7})
	if err != nil {
		t.Fatal(err)
	}
	fg = sparse.Groups()[0].(*FilteredGroup)
	if fg.sel.idx == nil || fg.sel.bits != nil {
		t.Fatalf("sparse selection (density 0.01) should be index-slice-backed")
	}
	if fg.sel.count != 100 {
		t.Fatalf("sparse count %d", fg.sel.count)
	}
}

// TestFilteredViewExhaustion: a selection that shrinks a group below the
// draw budget must exhaust cleanly through the sampler — falling back to
// with-replacement draws and flagging Exhausted — exactly like a small
// materialized group.
func TestFilteredViewExhaustion(t *testing.T) {
	tab := filterTestTable(t, map[string]int{"a": 1000})
	v, err := tab.Filter(Predicate{Op: OpLT, Value: 7}) // 7 survivors of 1000
	if err != nil {
		t.Fatal(err)
	}
	u, err := v.Universe(0)
	if err != nil {
		t.Fatal(err)
	}
	if u.Groups[0].Size() != 7 {
		t.Fatalf("filtered size %d, want 7", u.Groups[0].Size())
	}
	s := NewStreamSampler(u, 3, true)
	seen := map[float64]int{}
	for i := 0; i < 7; i++ {
		seen[s.Draw(0)]++
	}
	if len(seen) != 7 {
		t.Fatalf("first 7 without-replacement draws hit %d distinct values, want 7", len(seen))
	}
	if s.Exhausted(0) {
		t.Fatal("exhausted before the population ran out")
	}
	// The 8th draw falls back to with-replacement and flags exhaustion.
	v8 := s.Draw(0)
	if !s.Exhausted(0) {
		t.Fatal("over-budget draw did not flag exhaustion")
	}
	if seen[v8] == 0 {
		t.Fatalf("fallback draw %v is outside the selection", v8)
	}
	if s.Count(0) != 8 {
		t.Fatalf("accounting %d, want 8", s.Count(0))
	}
	// Batch path across the exhaustion boundary, in a second run.
	s2 := NewStreamSampler(&Universe{Groups: v.Groups(), C: u.C}, 4, true)
	buf := make([]float64, 20)
	s2.DrawBatch(0, buf)
	if !s2.Exhausted(0) {
		t.Fatal("batch over-budget draw did not flag exhaustion")
	}
	for i, x := range buf {
		if x >= 7 || x < 0 {
			t.Fatalf("batch draw %d = %v outside the selection", i, x)
		}
	}
}

func TestFilterAllPassKeepsZeroCopyViews(t *testing.T) {
	tab := filterTestTable(t, map[string]int{"a": 40, "b": 40})
	v, err := tab.Filter(Predicate{Op: OpGE, Value: 0}) // all rows pass
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range v.Groups() {
		tg, ok := g.(*TableGroup)
		if !ok {
			t.Fatalf("all-pass group is %T, want *TableGroup", g)
		}
		if &tg.Values()[0] != &tab.groupColumn(i)[0] {
			t.Fatal("all-pass group copied the column")
		}
	}
}

func TestFilterErrors(t *testing.T) {
	tab := filterTestTable(t, map[string]int{"a": 10})
	if _, err := tab.Filter(Predicate{Column: "nosuch", Op: OpGT, Value: 1}); err == nil ||
		!strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("unknown column: %v", err)
	}
	if _, err := tab.Filter(Predicate{Groups: []string{"zz"}}); err == nil ||
		!strings.Contains(err.Error(), "unknown group") {
		t.Fatalf("unknown group: %v", err)
	}
	if _, err := tab.Filter(Predicate{Op: OpGT, Value: 1e9}); err == nil ||
		!strings.Contains(err.Error(), "matches no rows") {
		t.Fatalf("empty filter: %v", err)
	}
	if _, err := tab.Filter(Predicate{Op: PredicateOp(99), Value: 1}); err == nil ||
		!strings.Contains(err.Error(), "unknown operator") {
		t.Fatalf("bad op: %v", err)
	}
}

func TestFilterDropsEmptiedGroups(t *testing.T) {
	tab := filterTestTable(t, map[string]int{"a": 5, "b": 100}) // a holds 0..4
	v, err := tab.Filter(Predicate{Op: OpGE, Value: 50})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Names(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("names %v, want [b] (a emptied)", got)
	}
}

func TestFingerprintCanonical(t *testing.T) {
	a := []Predicate{{Column: "dist", Op: OpGE, Value: 5}, {Groups: []string{"x", "y"}}}
	b := []Predicate{{Groups: []string{"y", "x"}}, {Column: "dist", Op: OpGE, Value: 5}}
	if FingerprintPredicates(a) != FingerprintPredicates(b) {
		t.Fatal("fingerprint should be order-insensitive over conjuncts and group lists")
	}
	c := []Predicate{{Column: "dist", Op: OpGT, Value: 5}, {Groups: []string{"x", "y"}}}
	if FingerprintPredicates(a) == FingerprintPredicates(c) {
		t.Fatal("fingerprint must distinguish operators")
	}
	d := []Predicate{{Column: "dist", Op: OpGE, Value: 5.0000001}, {Groups: []string{"x", "y"}}}
	if FingerprintPredicates(a) == FingerprintPredicates(d) {
		t.Fatal("fingerprint must distinguish constants")
	}
}

func TestTableExtraColumnsIngestion(t *testing.T) {
	b := NewTableBuilderColumns("delay", "dist", "hops")
	if err := b.AddRow("a", 1, 100, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddRow("b", 2, 200, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.AddRow("a", 3, 300, 4); err != nil {
		t.Fatal(err)
	}
	if err := b.AddRow("a", 4, 400); err == nil {
		t.Fatal("short extras accepted")
	}
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tab.ValueColumnName() != "delay" {
		t.Fatalf("value name %q", tab.ValueColumnName())
	}
	if names := tab.ExtraColumnNames(); len(names) != 2 || names[0] != "dist" || names[1] != "hops" {
		t.Fatalf("extra names %v", names)
	}
	// Extras pack row-aligned with the value column: group a = rows 0,1
	// (values 1,3), group b = row 2 (value 2).
	dist, ok := tab.extraColumn("dist")
	if !ok {
		t.Fatal("dist column missing")
	}
	if dist[0] != 100 || dist[1] != 300 || dist[2] != 200 {
		t.Fatalf("dist packing %v, want [100 300 200]", dist)
	}
	if _, ok := tab.extraColumn("nosuch"); ok {
		t.Fatal("phantom extra column")
	}
	// The value column may be addressed by its ingested name.
	v, err := tab.Filter(Predicate{Column: "delay", Op: OpGE, Value: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v.NumRows() != 2 {
		t.Fatalf("filter by value name selected %d rows", v.NumRows())
	}
}

func TestReadCSVExtraColumns(t *testing.T) {
	const csv = `airline,delay,dist
AA,12.5,2475
JB, 3, 1069
AA,7.5,733
DL,0,2182
`
	tab, err := ReadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if tab.ValueColumnName() != "delay" {
		t.Fatalf("value name %q", tab.ValueColumnName())
	}
	if names := tab.ExtraColumnNames(); len(names) != 1 || names[0] != "dist" {
		t.Fatalf("extra names %v", names)
	}
	v, err := tab.Filter(Predicate{Column: "dist", Op: OpGE, Value: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if v.NumRows() != 2 {
		t.Fatalf("long-haul filter selected %d rows, want 2", v.NumRows())
	}
	if got := v.Names(); len(got) != 2 || got[0] != "AA" || got[1] != "DL" {
		t.Fatalf("long-haul groups %v", got)
	}
	// A declared extra that fails to parse is an error.
	if _, err := ReadCSV(strings.NewReader("airline,delay,dist\nAA,1,far\n")); err == nil {
		t.Fatal("bad extra value accepted")
	}
	// A record missing a declared extra field is an error.
	if _, err := ReadCSV(strings.NewReader("airline,delay,dist\nAA,1\n")); err == nil {
		t.Fatal("missing extra field accepted")
	}
	// Headerless extra fields keep the legacy behavior: ignored.
	plain, err := ReadCSV(strings.NewReader("AA,1,junk\nJB,2,alsojunk\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.ExtraColumnNames()) != 0 || plain.NumRows() != 2 {
		t.Fatalf("headerless extras should be ignored: %v, %d rows", plain.ExtraColumnNames(), plain.NumRows())
	}
}

func TestReadCSVExtraColumnsShardedIdentical(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("airline,delay,dist\n")
	r := xrand.New(11)
	names := []string{"AA", "JB", "DL", "WN", "UA"}
	for i := 0; i < 4000; i++ {
		name := names[r.Intn(len(names))]
		sb.WriteString(name)
		sb.WriteString(",")
		sb.WriteString(formatFloat(r.Float64() * 100))
		sb.WriteString(",")
		sb.WriteString(formatFloat(r.Float64() * 3000))
		sb.WriteString("\n")
	}
	payload := sb.String()
	// The sharded parser must serve this input itself: a fallback to the
	// sequential parser would pass every check below.
	if _, ok := readCSVSharded([]byte(payload), 4); !ok {
		t.Fatal("sharded parser fell back on the extra-column input")
	}
	seq, err := ReadCSVWorkers(strings.NewReader(payload), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		par, err := ReadCSVWorkers(strings.NewReader(payload), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !equalStrings(par.ExtraColumnNames(), seq.ExtraColumnNames()) {
			t.Fatalf("workers=%d: extra names %v vs %v", workers, par.ExtraColumnNames(), seq.ExtraColumnNames())
		}
		for e := range seq.extraNames {
			if len(par.column(1+e)) != len(seq.column(1+e)) {
				t.Fatalf("workers=%d: extra %d length differs", workers, e)
			}
			for i := range seq.column(1 + e) {
				if par.column(1 + e)[i] != seq.column(1 + e)[i] {
					t.Fatalf("workers=%d: extra %d row %d differs", workers, e, i)
				}
			}
		}
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', 4, 64)
}
