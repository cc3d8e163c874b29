package dataset

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// segBench lazily builds one shared benchmark fixture: a 4-group x 2M-row
// table (64 MB value column) both in memory and as a segment directory.
// Built once per test-binary run; the directory lives under the OS temp
// root (benchmarks share it, so it outlives any one of them).
var segBench struct {
	once sync.Once
	dir  string
	tbl  *Table
	err  error
}

func segBenchFixture(b *testing.B) (*Table, string) {
	b.Helper()
	segBench.once.Do(func() {
		const groups, rows = 4, 2_000_000
		builder := NewTableBuilder()
		rng := xrand.New(31)
		for gi := 0; gi < groups; gi++ {
			name := string(rune('A' + gi))
			for i := 0; i < rows; i++ {
				builder.Add(name, 100*rng.Float64())
			}
		}
		segBench.tbl, segBench.err = builder.Build()
		if segBench.err != nil {
			return
		}
		segBench.dir, segBench.err = os.MkdirTemp("", "segbench")
		if segBench.err != nil {
			return
		}
		segBench.err = segBench.tbl.WriteSegments(segBench.dir)
	})
	if segBench.err != nil {
		b.Fatal(segBench.err)
	}
	return segBench.tbl, segBench.dir
}

// benchSegDraws runs the fixed draw workload — per group, 64-row
// without-replacement blocks until 16384 draws — against the given groups
// and reports draws/sec.
func benchSegDraws(b *testing.B, groups []Group) {
	const perGroup = 16384
	const block = 64
	buf := make([]float64, block)
	total := 0
	u := NewUniverse(1, groups...)
	for i := 0; i < b.N; i++ {
		s := NewStreamSampler(u, 7, true)
		for gi := range groups {
			for d := 0; d < perGroup; d += block {
				s.DrawBatch(gi, buf)
				total += block
			}
		}
		s.Release()
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "draws/sec")
}

// BenchmarkSegmentDraw compares the block-draw hot path across backings:
// the in-memory SliceGroup baseline, a warm mmap-backed segment table
// (pages resident — the steady state of a served table), and a cold one
// (page cache dropped before every iteration, readahead disabled — each
// draw block pays real faults). The out-of-core acceptance is warm
// staying within 2x of in-memory at batch=64.
func BenchmarkSegmentDraw(b *testing.B) {
	tbl, dir := segBenchFixture(b)

	b.Run("inmem", func(b *testing.B) {
		b.ReportAllocs()
		groups := tbl.Groups()
		b.ResetTimer()
		benchSegDraws(b, groups)
	})

	b.Run("warm-mmap", func(b *testing.B) {
		st, err := OpenSegments(dir)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		// Touch every page up front: the steady state of a long-lived
		// served table (and a full integrity check at the same time).
		if err := st.VerifyChecksums(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		groups := st.Groups()
		b.ResetTimer()
		benchSegDraws(b, groups)
	})

	b.Run("cold-mmap", func(b *testing.B) {
		st, err := OpenSegments(dir)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		if !st.Mapped() {
			b.Skip("nommap fallback: no cold path to measure")
		}
		if err := st.AdviseRandom(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		groups := st.Groups()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := st.DropPageCache(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			benchSegDrawsOnce(b, groups)
		}
		b.ReportMetric(float64(b.N*4*16384)/b.Elapsed().Seconds(), "draws/sec")
	})
}

// benchSegDrawsOnce is one iteration of the fixed workload, for callers
// managing the timer themselves.
func benchSegDrawsOnce(b *testing.B, groups []Group) {
	const perGroup = 16384
	const block = 64
	buf := make([]float64, block)
	s := NewStreamSampler(NewUniverse(1, groups...), 7, true)
	for gi := range groups {
		for d := 0; d < perGroup; d += block {
			s.DrawBatch(gi, buf)
		}
	}
	s.Release()
}

// segBenchCompressed lazily writes the shared fixture as a v2 directory.
var segBenchCompressed struct {
	once sync.Once
	dir  string
	err  error
}

func segBenchCompressedFixture(b *testing.B) string {
	b.Helper()
	tbl, _ := segBenchFixture(b)
	segBenchCompressed.once.Do(func() {
		segBenchCompressed.dir, segBenchCompressed.err = os.MkdirTemp("", "segbenchc")
		if segBenchCompressed.err != nil {
			return
		}
		segBenchCompressed.err = tbl.WriteSegmentsOptions(segBenchCompressed.dir, SegmentOptions{Compress: true})
	})
	if segBenchCompressed.err != nil {
		b.Fatal(segBenchCompressed.err)
	}
	return segBenchCompressed.dir
}

// BenchmarkSegmentDrawCompressed is BenchmarkSegmentDraw over the same
// fixture written as block-compressed (v2) columns: warm measures draws
// against a populated decoded-block cache (the steady state; the
// acceptance is staying within 1.5x of the uncompressed warm mmap at
// batch=64), cold re-opens the table and drops the page cache every
// iteration, so each run pays both the faults and the decodes.
func BenchmarkSegmentDrawCompressed(b *testing.B) {
	dir := segBenchCompressedFixture(b)

	b.Run("warm", func(b *testing.B) {
		// Warm means the decoded working set stays resident: budget the
		// block cache for the whole 64 MB fixture (the default 32 MiB would
		// evict cyclically and re-decode every block each pass).
		old := blockCacheBytes
		blockCacheBytes = 128 << 20
		defer func() { blockCacheBytes = old }()
		st, err := OpenSegments(dir)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		groups := st.Groups()
		benchSegDrawsOnce(b, groups) // populate the block cache
		b.ReportAllocs()
		b.ResetTimer()
		benchSegDraws(b, groups)
		if err := st.Err(); err != nil {
			b.Fatal(err)
		}
	})

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := OpenSegments(dir) // fresh open: empty block cache
			if err != nil {
				b.Fatal(err)
			}
			if st.Mapped() {
				if err := st.DropPageCache(); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			benchSegDrawsOnce(b, st.Groups())
			b.StopTimer()
			if err := st.Err(); err != nil {
				b.Fatal(err)
			}
			st.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(b.N*4*16384)/b.Elapsed().Seconds(), "draws/sec")
	})
}

// BenchmarkSegmentDrawCodec pins the warm draw cost per block codec: one
// table per codec family (raw float64 noise, scaled-decimal FoR,
// monotone delta, low-cardinality dictionary), each written compressed and
// drawn through a warm cache, with the compression ratio reported
// alongside draws/sec.
func BenchmarkSegmentDrawCodec(b *testing.B) {
	const groups, rows = 4, 1 << 19
	codecs := []struct {
		name string
		gen  func(r *xrand.RNG, i int) float64
	}{
		{"raw", func(r *xrand.RNG, i int) float64 { return 100 * r.Float64() }},
		{"for", func(r *xrand.RNG, i int) float64 { return float64(r.Intn(10000)) / 100 }},
		{"delta", func(r *xrand.RNG, i int) float64 { return float64(i) }},
		{"dict", func(r *xrand.RNG, i int) float64 { return 1.5 * float64(r.Intn(16)) }},
	}
	for _, c := range codecs {
		b.Run(c.name, func(b *testing.B) {
			builder := NewTableBuilder()
			rng := xrand.New(17)
			for gi := 0; gi < groups; gi++ {
				name := string(rune('A' + gi))
				for i := 0; i < rows; i++ {
					builder.Add(name, c.gen(rng, i))
				}
			}
			tbl, err := builder.Build()
			if err != nil {
				b.Fatal(err)
			}
			dir := b.TempDir()
			if err := tbl.WriteSegmentsOptions(dir, SegmentOptions{Compress: true}); err != nil {
				b.Fatal(err)
			}
			var encoded int64
			for _, name := range []string{segValueName} {
				fi, err := os.Stat(filepath.Join(dir, name))
				if err != nil {
					b.Fatal(err)
				}
				encoded += fi.Size() - SegmentDataOffset
			}
			st, err := OpenSegments(dir)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			grps := st.Groups()
			benchSegDrawsOnce(b, grps) // warm the cache
			b.ReportAllocs()
			b.ResetTimer()
			benchSegDraws(b, grps)
			if err := st.Err(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(groups*rows*8)/float64(encoded), "ratio")
		})
	}
}

// BenchmarkFilterPlan measures predicate planning over a clustered
// (near-sorted within each group) value column: full-scan is the raw (v1)
// mmap path that evaluates every row, zonemap-skip is the compressed (v2)
// path whose block zone maps prove most blocks cannot match a selective
// range predicate and skips them undecoded. The acceptance is a measured
// speedup for the skip plan.
func BenchmarkFilterPlan(b *testing.B) {
	const groups, rows = 4, 1 << 21
	builder := NewTableBuilder()
	rng := xrand.New(23)
	for gi := 0; gi < groups; gi++ {
		name := string(rune('A' + gi))
		for i := 0; i < rows; i++ {
			builder.Add(name, 100*float64(i)/rows+rng.Float64())
		}
	}
	tbl, err := builder.Build()
	if err != nil {
		b.Fatal(err)
	}
	pred := Predicate{Op: OpGE, Value: 99} // top ~2% of each group's rows

	rawDir, compDir := b.TempDir(), b.TempDir()
	if err := tbl.WriteSegments(rawDir); err != nil {
		b.Fatal(err)
	}
	if err := tbl.WriteSegmentsOptions(compDir, SegmentOptions{Compress: true}); err != nil {
		b.Fatal(err)
	}

	var wantRows int64
	b.Run("full-scan", func(b *testing.B) {
		st, err := OpenSegments(rawDir)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := st.Filter(pred)
			if err != nil {
				b.Fatal(err)
			}
			wantRows = v.NumRows()
		}
	})

	b.Run("zonemap-skip", func(b *testing.B) {
		st, err := OpenSegments(compDir)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		b.ReportAllocs()
		b.ResetTimer()
		var got int64
		for i := 0; i < b.N; i++ {
			v, err := st.Filter(pred)
			if err != nil {
				b.Fatal(err)
			}
			got = v.NumRows()
		}
		b.StopTimer()
		if wantRows != 0 && got != wantRows {
			b.Fatalf("plans disagree: full scan selected %d rows, zone skip %d", wantRows, got)
		}
	})
}
