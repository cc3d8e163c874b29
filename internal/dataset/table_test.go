package dataset

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/xrand"
)

func TestTableBuilderGroupsByFirstSeen(t *testing.T) {
	b := NewTableBuilder()
	b.Add("east", 3)
	b.Add("west", 5)
	b.Add("east", 7)
	b.Add("north", 1)
	b.Add("west", 9)
	if b.Len() != 5 {
		t.Fatalf("builder holds %d rows, want 5", b.Len())
	}
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Names(); got[0] != "east" || got[1] != "west" || got[2] != "north" {
		t.Fatalf("group order %v, want first-seen [east west north]", got)
	}
	if tab.K() != 3 || tab.NumRows() != 5 {
		t.Fatalf("k=%d rows=%d, want 3/5", tab.K(), tab.NumRows())
	}
	east := tab.groupColumn(0)
	if len(east) != 2 || east[0] != 3 || east[1] != 7 {
		t.Fatalf("east column %v, want [3 7]", east)
	}
	if tab.MinValue() != 1 || tab.MaxValue() != 9 {
		t.Fatalf("range [%v, %v], want [1, 9]", tab.MinValue(), tab.MaxValue())
	}
}

func TestTableGroupsAreColumnViews(t *testing.T) {
	tab, err := BuildTable([]Row{{"a", 1}, {"b", 10}, {"a", 3}, {"b", 20}})
	if err != nil {
		t.Fatal(err)
	}
	groups := tab.Groups()
	if len(groups) != 2 {
		t.Fatalf("got %d groups", len(groups))
	}
	sg, ok := groups[0].(*TableGroup)
	if !ok {
		t.Fatalf("table group is %T, want *TableGroup", groups[0])
	}
	if sg.TrueMean() != 2 {
		t.Fatalf("group a mean %v, want 2", sg.TrueMean())
	}
	// Zero copy: the group's backing storage is the table column.
	if &sg.Values()[0] != &tab.groupColumn(0)[0] {
		t.Fatal("group values are a copy, want a view over the table column")
	}
	// The groups draw through the staged pipeline.
	if _, ok := groups[0].(blockDrawer); !ok {
		t.Fatal("table groups should draw through the block pipeline")
	}
}

// TestBuildAllocatesLittleOverItsColumns: staging rows with AddRow and
// building the table allocates at most 2.5 times the table's column bytes —
// one staged copy and the packed columns, with a little slack — rather
// than paying for every step of append growth.
func TestBuildAllocatesLittleOverItsColumns(t *testing.T) {
	const rows, groups = 300_000, 10
	names := make([]string, groups)
	for g := range names {
		names[g] = fmt.Sprint("g", g)
	}
	best := uint64(math.MaxUint64)
	for trial := 0; trial < 3; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b := NewTableBuilderColumns("v", "x", "y")
		for i := 0; i < rows; i++ {
			if err := b.AddRow(names[i%groups], float64(i%1000), float64(i), float64(i%7)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := b.Build(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	cols := uint64(rows * 3 * 8)
	if limit := cols * 5 / 2; best > limit {
		t.Fatalf("building %d rows × 3 columns allocated %d B, %.2f× the %d B of columns; want at most 2.5×",
			rows, best, float64(best)/float64(cols), cols)
	}
	t.Logf("allocated %.2f× the column bytes", float64(best)/float64(cols))
}

func TestTableUniverse(t *testing.T) {
	tab, err := BuildTable([]Row{{"a", 2}, {"b", 8}})
	if err != nil {
		t.Fatal(err)
	}
	u, err := tab.Universe(0)
	if err != nil {
		t.Fatal(err)
	}
	if u.C != 8 {
		t.Fatalf("inferred bound %v, want 8 (max value)", u.C)
	}
	if _, err := tab.Universe(5); err == nil {
		t.Fatal("bound below the data accepted")
	}
	u, err = tab.Universe(100)
	if err != nil || u.C != 100 {
		t.Fatalf("explicit bound: %v c=%v", err, u.C)
	}
}

func TestTableRejectsBadInput(t *testing.T) {
	if _, err := BuildTable(nil); err == nil {
		t.Fatal("empty table accepted")
	}
	if _, err := BuildTable([]Row{{"a", -1}}); err == nil {
		t.Fatal("negative value accepted")
	}
}

func TestReadCSV(t *testing.T) {
	const csv = `airline,delay
AA, 12.5
JB,3
AA,7.5
DL,0
JB,5
`
	tab, err := ReadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if tab.K() != 3 || tab.NumRows() != 5 {
		t.Fatalf("k=%d rows=%d, want 3/5", tab.K(), tab.NumRows())
	}
	if names := tab.Names(); names[0] != "AA" || names[1] != "JB" || names[2] != "DL" {
		t.Fatalf("names %v", names)
	}
	if aa := tab.groupColumn(0); aa[0] != 12.5 || aa[1] != 7.5 {
		t.Fatalf("AA column %v", aa)
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	tab, err := ReadCSV(strings.NewReader("x,1\ny,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Fatalf("rows=%d, want 2 (no header to skip)", tab.NumRows())
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("x,1\ny,notanumber\n")); err == nil {
		t.Fatal("bad value row accepted")
	}
	if _, err := ReadCSV(strings.NewReader("justonefield\n")); err == nil {
		t.Fatal("short record accepted")
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestTableSamplingEndToEnd(t *testing.T) {
	// A table-backed universe behaves like any slice universe under the
	// sampler, block draws included.
	b := NewTableBuilder()
	r := xrand.New(5)
	for i := 0; i < 3000; i++ {
		b.Add("lo", 10+r.Float64())
		b.Add("hi", 60+r.Float64())
	}
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	u, err := tab.Universe(0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStreamSampler(u, 6, true)
	buf := make([]float64, 128)
	s.DrawBatch(0, buf)
	for _, v := range buf {
		if v < 10 || v >= 11 {
			t.Fatalf("lo draw %v outside population range", v)
		}
	}
	if s.Count(0) != 128 {
		t.Fatalf("count %d, want 128", s.Count(0))
	}
}
