package rapidviz_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// segTestTable builds a table with extras and modestly separated means —
// enough draws to exercise batching, WOR exhaustion on the small groups,
// and Where filtering.
func segTestTable(t testing.TB) *rapidviz.Table {
	t.Helper()
	b := rapidviz.NewTableBuilderColumns("delay", "elapsed")
	rng := xrand.New(404)
	for gi, name := range []string{"AA", "UA", "DL", "WN", "B6"} {
		n := 400 + 300*gi
		for i := 0; i < n; i++ {
			v := float64(3*gi) + 30*rng.Float64()
			if err := b.AddRow(name, v, 60+240*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// assertIdenticalResults compares two results bit for bit.
func assertIdenticalResults(t *testing.T, inmem, seg *rapidviz.Result) {
	t.Helper()
	if len(inmem.Estimates) != len(seg.Estimates) {
		t.Fatalf("estimate lengths differ: %d vs %d", len(inmem.Estimates), len(seg.Estimates))
	}
	for i := range inmem.Estimates {
		if math.Float64bits(inmem.Estimates[i]) != math.Float64bits(seg.Estimates[i]) {
			t.Fatalf("estimate %d diverged: %v (in-memory) vs %v (segments)", i, inmem.Estimates[i], seg.Estimates[i])
		}
	}
	for i := range inmem.SampleCounts {
		if inmem.SampleCounts[i] != seg.SampleCounts[i] {
			t.Fatalf("sample count %d diverged: %d vs %d", i, inmem.SampleCounts[i], seg.SampleCounts[i])
		}
	}
	if inmem.TotalSamples != seg.TotalSamples {
		t.Fatalf("total samples diverged: %d vs %d", inmem.TotalSamples, seg.TotalSamples)
	}
}

// segFormats are the two on-disk formats every restart-contract test runs
// against: raw v1 columns and block-compressed v2 columns with a block
// length small enough that the test groups span many blocks.
var segFormats = []struct {
	name string
	opts rapidviz.SegmentOptions
}{
	{"raw", rapidviz.SegmentOptions{}},
	{"compressed", rapidviz.SegmentOptions{Compress: true, BlockLen: 512}},
}

// TestSegmentRestartDeterminism is the restart contract: ingest, write
// segments (raw and compressed), reopen from disk in a fresh table, and
// every algorithm at every batch cadence must reproduce the in-memory run
// bit for bit for the same Query and Seed.
func TestSegmentRestartDeterminism(t *testing.T) {
	for _, format := range segFormats {
		t.Run(format.name, func(t *testing.T) {
			testSegmentRestartDeterminism(t, format.opts)
		})
	}
}

func testSegmentRestartDeterminism(t *testing.T, opts rapidviz.SegmentOptions) {
	tbl := segTestTable(t)
	dir := t.TempDir()
	if err := tbl.WriteSegmentsOptions(dir, opts); err != nil {
		t.Fatal(err)
	}

	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for _, algo := range []struct {
		name string
		a    rapidviz.Algorithm
	}{
		{"ifocus", rapidviz.AlgoIFocus},
		{"irefine", rapidviz.AlgoIRefine},
		{"roundrobin", rapidviz.AlgoRoundRobin},
		{"scan", rapidviz.AlgoScan},
		{"noindex", rapidviz.AlgoNoIndex},
	} {
		for _, batch := range []int{1, 64, 0} {
			t.Run(fmt.Sprintf("%s/batch=%d", algo.name, batch), func(t *testing.T) {
				q := rapidviz.Query{
					Algorithm: algo.a,
					Bound:     tbl.MaxValue(),
					Seed:      77,
					BatchSize: batch,
					MaxDraws:  500_000,
				}
				inmem, err := eng.Run(ctx, q, tbl.Groups())
				if err != nil {
					t.Fatal(err)
				}
				// A fresh open per run is the restart being tested.
				st, err := rapidviz.OpenSegments(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				seg, err := eng.Run(ctx, q, st.Groups())
				if err != nil {
					t.Fatal(err)
				}
				assertIdenticalResults(t, inmem, seg)
			})
		}
	}
}

// TestSegmentWhereDeterminism: predicate-filtered queries plan views over
// the on-disk columns (value and extras; zone-map pushdown on the
// compressed format) and must match the in-memory filtered runs bit for
// bit.
func TestSegmentWhereDeterminism(t *testing.T) {
	for _, format := range segFormats {
		t.Run(format.name, func(t *testing.T) {
			testSegmentWhereDeterminism(t, format.opts)
		})
	}
}

func testSegmentWhereDeterminism(t *testing.T, opts rapidviz.SegmentOptions) {
	tbl := segTestTable(t)
	dir := t.TempDir()
	if err := tbl.WriteSegmentsOptions(dir, opts); err != nil {
		t.Fatal(err)
	}
	st, err := rapidviz.OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	wheres := [][]rapidviz.Predicate{
		{rapidviz.Where("elapsed", rapidviz.OpGE, 150)},
		{rapidviz.Where("delay", rapidviz.OpLT, 20), rapidviz.Where("elapsed", rapidviz.OpLT, 280)},
		{rapidviz.WhereGroups("AA", "DL", "B6")},
	}
	for wi, preds := range wheres {
		for _, batch := range []int{1, 64} {
			t.Run(fmt.Sprintf("where%d/batch=%d", wi, batch), func(t *testing.T) {
				q := rapidviz.Query{
					Bound:     tbl.MaxValue(),
					Seed:      13,
					BatchSize: batch,
					Where:     preds,
				}
				inmem, err := eng.Run(ctx, q, tbl.Groups())
				if err != nil {
					t.Fatal(err)
				}
				seg, err := eng.Run(ctx, q, st.Groups())
				if err != nil {
					t.Fatal(err)
				}
				assertIdenticalResults(t, inmem, seg)
			})
		}
	}
}

// vmRSSKB reads the process resident set from /proc (linux only).
func vmRSSKB(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(f, "kB")), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb
		}
	}
	t.Fatal("no VmRSS in /proc/self/status")
	return 0
}

// TestSegmentBoundedResidency is the out-of-core promise in miniature: a
// 128 MB table (2 groups x 8M rows, written by the streaming writer, so
// the test itself never holds the rows) is opened and sampled ~1000 draws
// per group. Sampling must not fault the table in: the Go heap may not
// grow with table size (sparse permutations replace the dense 64 MB one)
// and the process RSS may grow only by the touched pages — megabytes,
// not the 128 MB a full materialization would add.
func TestSegmentBoundedResidency(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/status")
	}
	if testing.Short() {
		t.Skip("writes a 128 MB segment table")
	}
	const rows = 8_000_000
	dir := t.TempDir()
	sw, err := dataset.CreateSegments(dir, "value")
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(4242)
	for _, name := range []string{"G0", "G1"} {
		if err := sw.StartGroup(name); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := sw.Append(100 * rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := dataset.OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Mapped() {
		// Start from a cold mapping so RSS growth measures what sampling
		// faults in, not what writing left in the page cache — and disable
		// readahead, else each fault drags in a cluster of pages and the
		// measurement reflects kernel prefetch policy, not the draws.
		if err := st.DropPageCache(); err != nil {
			t.Logf("drop page cache: %v (continuing)", err)
		}
		if err := st.AdviseRandom(); err != nil {
			t.Logf("advise random: %v (continuing)", err)
		}
	}

	u, err := st.Universe(0)
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	rssBefore := vmRSSKB(t)

	s := dataset.NewStreamSampler(u, 99, true)
	buf := make([]float64, 64)
	for gi := 0; gi < u.K(); gi++ {
		for r := 0; r < 16; r++ { // 16 x 64 = 1024 draws per group
			s.DrawBatch(gi, buf)
		}
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	rssAfter := vmRSSKB(t)

	heapGrowth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if heapGrowth > 8<<20 {
		t.Fatalf("heap grew %d bytes sampling a mapped table; want < 8 MB (dense state would be ~64 MB)", heapGrowth)
	}
	rssGrowthKB := rssAfter - rssBefore
	if rssGrowthKB > 48<<10 {
		t.Fatalf("RSS grew %d kB sampling ~2k rows; want < 48 MB (the table is 128 MB)", rssGrowthKB)
	}
	t.Logf("heap growth %d bytes, RSS growth %d kB over a %d-row mapped table", heapGrowth, rssGrowthKB, 2*rows)
}

// TestWhereAfterCorruptDrawFails: once a draw has hit a damaged value
// block, the table has recorded the failure, and the next Where query
// returns it instead of planning a view over known-corrupt data — and the
// engine caches no view for it, so asking again fails again.
func TestWhereAfterCorruptDrawFails(t *testing.T) {
	tbl := segTestTable(t)
	dir := t.TempDir()
	if err := tbl.WriteSegmentsOptions(dir, rapidviz.SegmentOptions{Compress: true, BlockLen: 512}); err != nil {
		t.Fatal(err)
	}
	path := dataset.SegmentValuePath(dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[dataset.SegmentDataOffset+20] ^= 0x40 // inside the first value block's payload
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := rapidviz.OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := rapidviz.Query{Bound: tbl.MaxValue(), Seed: 5, BatchSize: 64}
	eng.Run(ctx, q, st.Groups()) // draws from the damaged block; its result is not the point
	if st.Err() == nil {
		t.Fatal("the draw did not reach the damaged block")
	}
	q.Where = []rapidviz.Predicate{rapidviz.Where("elapsed", rapidviz.OpGE, 150)}
	for i := 0; i < 2; i++ {
		if _, err := eng.Run(ctx, q, st.Groups()); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("Where query %d after the corrupt draw: %v", i, err)
		}
	}
	if s := eng.ViewCacheStats(); s.Entries != 0 || s.Hits != 0 {
		t.Fatalf("engine cached a view over the corrupt table: %+v", s)
	}
}
