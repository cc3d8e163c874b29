package dataset

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/colcodec"
	"repro/internal/xrand"
)

// ingestRows is the row count of the write and verify fixtures: the size
// of the CSV file one ingest cycle of the benchmark parses.
const ingestRows = 300_000

// ingestTable builds a 10-group value,x,t table of rows rows shaped like
// the benchmark's ingest input: values rounded to 0.01, x a uniform
// integer below 1000, t the row's ordinal within its group.
func ingestTable(tb testing.TB, rows int) *Table {
	tb.Helper()
	const groups = 10
	b := NewTableBuilderColumns("value", "x", "t")
	rng := xrand.New(5)
	for g := 0; g < groups; g++ {
		name := fmt.Sprintf("g%02d", g)
		mu := 10 + 5*float64(g)
		for j := 0; j < rows/groups; j++ {
			v := math.Round(mu*(0.5+rng.Float64())*100) / 100
			if err := b.AddRow(name, v, float64(rng.Intn(1000)), float64(j)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	tab, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return tab
}

// segFormats are the two on-disk formats the write and verify benchmarks
// run.
var segFormats = []struct {
	name string
	opts SegmentOptions
}{
	{"v1", SegmentOptions{}},
	{"v2", SegmentOptions{Compress: true}},
}

// BenchmarkWriteSegments writes a 300 000-row value,x,t table as a segment
// directory, v1 and v2: the write stage of an ingest cycle.
func BenchmarkWriteSegments(b *testing.B) {
	tab := ingestTable(b, ingestRows)
	for _, f := range segFormats {
		b.Run(f.name, func(b *testing.B) {
			dir := b.TempDir()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tab.WriteSegmentsOptions(filepath.Join(dir, fmt.Sprint(i)), f.opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ingestRows), "ns/row")
		})
	}
}

// BenchmarkVerifyChecksums verifies a 300 000-row value,x,t segment
// directory, v1 and v2: the verify stage of an ingest cycle.
func BenchmarkVerifyChecksums(b *testing.B) {
	tab := ingestTable(b, ingestRows)
	for _, f := range segFormats {
		b.Run(f.name, func(b *testing.B) {
			dir := b.TempDir()
			if err := tab.WriteSegmentsOptions(dir, f.opts); err != nil {
				b.Fatal(err)
			}
			st, err := OpenSegments(dir)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.VerifyChecksums(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ingestRows), "ns/row")
		})
	}
}

// pinnedFormats are the formats TestIngestFilesPinned writes the pinned
// CSV in, with the segment file CRC-32Cs it pins for each.
var pinnedFormats = []struct {
	name string
	opts SegmentOptions
	want map[string]uint32
}{
	{"v1", SegmentOptions{}, map[string]uint32{
		"extra.0.seg": 0x32a015d6, "extra.1.seg": 0x9342e4a1, "manifest.json": 0xb55e66db, "value.seg": 0x7d68b9a0,
	}},
	{"v2", SegmentOptions{Compress: true}, map[string]uint32{
		"extra.0.seg": 0x66b36093, "extra.1.seg": 0xedea744e, "manifest.json": 0x0e1d784c, "value.seg": 0x02bf882d,
	}},
	{"v2-block1000", SegmentOptions{Compress: true, BlockLen: 1000}, map[string]uint32{
		"extra.0.seg": 0x6d03f5f2, "extra.1.seg": 0x7b59aaa6, "manifest.json": 0x3d549004, "value.seg": 0xe1cb33c5,
	}},
}

// appendRows writes tab through the streaming writer, a row at a time:
// the path cmd/datagen takes.
func appendRows(tab *Table, dir string, opts SegmentOptions) error {
	w, err := CreateSegmentsOptions(dir, opts, tab.valueName, tab.extraNames...)
	if err != nil {
		return err
	}
	extras := make([]float64, len(tab.extraNames))
	for gi, name := range tab.names {
		if err := w.StartGroup(name); err != nil {
			return err
		}
		for row := tab.offsets[gi]; row < tab.offsets[gi+1]; row++ {
			for e := range extras {
				extras[e] = tab.column(1 + e)[row]
			}
			if err := w.Append(tab.column(0)[row], extras...); err != nil {
				return err
			}
		}
	}
	return w.Close()
}

// TestSegmentFeedersAgree: every way of feeding the block writer — an
// in-memory table's columns, StartGroup/Append rows, a reopened v1 table's
// mapped columns, and a reopened v2 table's decoded blocks (recompression,
// across block lengths) — writes the pinned CSV's rows to the bytes
// TestIngestFilesPinned pins, in every format and however many workers
// write the columns.
func TestSegmentFeedersAgree(t *testing.T) {
	tab, err := ReadCSVWorkers(strings.NewReader(pinnedCSV()), 1)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "src")
	if err := tab.WriteSegmentsOptions(src, SegmentOptions{Compress: true}); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenSegments(src)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	srcV1 := filepath.Join(t.TempDir(), "src-v1")
	if err := tab.WriteSegments(srcV1); err != nil {
		t.Fatal(err)
	}
	reopenedV1, err := OpenSegments(srcV1)
	if err != nil {
		t.Fatal(err)
	}
	defer reopenedV1.Close()
	feeders := []struct {
		name  string
		write func(dir string, opts SegmentOptions) error
	}{
		{"in-memory", tab.WriteSegmentsOptions},
		{"append", func(dir string, opts SegmentOptions) error { return appendRows(tab, dir, opts) }},
		{"rewrite-v1", reopenedV1.WriteSegmentsOptions},
		{"recompress", reopened.WriteSegmentsOptions},
	}
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, f := range pinnedFormats {
			for _, fd := range feeders {
				dir := filepath.Join(t.TempDir(), f.name)
				if err := fd.write(dir, f.opts); err != nil {
					t.Fatalf("GOMAXPROCS=%d %s %s: %v", procs, fd.name, f.name, err)
				}
				if got := segmentFileCRCs(t, dir); formatCRCs(got) != formatCRCs(f.want) {
					t.Errorf("GOMAXPROCS=%d %s %s: files\n got  %s\n want %s", procs, fd.name, f.name, formatCRCs(got), formatCRCs(f.want))
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// corruptColumn damages column c of a segment directory so that only
// VerifyChecksums can tell: in v1 it flips a bit of the first or the last
// row, in v2 a payload bit of the first or the last block, resealing the
// block's own CRC so that the block decodes to wrong values.
func corruptColumn(t *testing.T, dir string, c int, last bool) {
	man, err := readSegManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := SegmentValuePath(dir)
	if c > 0 {
		path = segExtraPath(dir, c-1)
	}
	corruptFile(t, path, func(b []byte) []byte {
		data := b[SegmentDataOffset:]
		if man.Version == segVersion {
			i := 3
			if last {
				i = len(data) - 5
			}
			data[i] ^= 0x10
			return b
		}
		blocks := man.Columns[c].Blocks
		blk := data[blocks[0].Off:]
		if last {
			blk = data[blocks[len(blocks)-1].Off:]
		}
		n := int(binary.LittleEndian.Uint32(blk[8:12]))
		payload := blk[colcodec.HeaderSize : colcodec.HeaderSize+n]
		payload[n/2] ^= 0x10
		binary.LittleEndian.PutUint32(blk[12:16], crc32.Checksum(payload, castagnoli))
		return b
	})
}

// TestVerifyErrorIgnoresSchedule: VerifyChecksums reports the first
// damaged column in column order, whichever worker finishes first — the
// value column is damaged at its end and extra 1 at its start, so at
// GOMAXPROCS 4 extra 1's worker fails first; a damaged zone map in the
// last column alone is still reported; a clean table passes.
func TestVerifyErrorIgnoresSchedule(t *testing.T) {
	tab := ingestTable(t, ingestRows)
	for _, f := range pinnedFormats {
		clean := filepath.Join(t.TempDir(), f.name)
		if err := tab.WriteSegmentsOptions(clean, f.opts); err != nil {
			t.Fatal(err)
		}
		write := func(damage func(dir string)) string {
			dir := filepath.Join(t.TempDir(), f.name)
			if err := os.CopyFS(dir, os.DirFS(clean)); err != nil {
				t.Fatal(err)
			}
			damage(dir)
			return dir
		}
		cases := []struct {
			name, dir, errHas string
		}{
			{"clean", clean, ""},
			{"extra.1 only", write(func(dir string) { corruptColumn(t, dir, 2, false) }), `column "t"`},
			{"value and extra.1", write(func(dir string) {
				corruptColumn(t, dir, 2, false)
				corruptColumn(t, dir, 0, true)
			}), `column "value"`},
		}
		if f.opts.Compress {
			cases = append(cases, struct{ name, dir, errHas string }{"last zone map", write(func(dir string) {
				editManifestV2(t, dir, func(man *segManifest) {
					blocks := man.Columns[len(man.Columns)-1].Blocks
					blocks[len(blocks)-1].Min--
				})
			}), `column "t" block`})
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			for _, tc := range cases {
				st, err := OpenSegments(tc.dir)
				if err != nil {
					t.Fatalf("%s %s: open: %v", f.name, tc.name, err)
				}
				err = st.VerifyChecksums()
				st.Close()
				switch {
				case tc.errHas == "" && err != nil:
					t.Errorf("GOMAXPROCS=%d %s %s: %v", procs, f.name, tc.name, err)
				case tc.errHas != "" && (err == nil || !strings.Contains(err.Error(), tc.errHas) || !strings.Contains(err.Error(), "mismatch")):
					t.Errorf("GOMAXPROCS=%d %s %s: error %v, want a mismatch naming %s", procs, f.name, tc.name, err, tc.errHas)
				}
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// TestSegmentWriteVerifyAllocs bounds what writing and verifying a
// 300 000-row value,x,t table allocate at two workers: an in-memory column
// is written without staging, and each worker, not each column, owns one
// encode buffer and one decode scratch. A raw v2 block is 512 KiB.
func TestSegmentWriteVerifyAllocs(t *testing.T) {
	tab := ingestTable(t, ingestRows)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	measure := func(fn func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := fn()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	const block = 8 * DefaultBlockLen
	for _, f := range []struct {
		opts                SegmentOptions
		writeMax, verifyMax uint64
	}{
		{SegmentOptions{}, 64 << 10, 64 << 10},
		{SegmentOptions{Compress: true}, 2 * block, 2*block + 64<<10},
	} {
		dir := t.TempDir()
		write := measure(func() error { return tab.WriteSegmentsOptions(dir, f.opts) })
		st, err := OpenSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		verify := measure(st.VerifyChecksums)
		st.Close()
		if write > f.writeMax || verify > f.verifyMax {
			t.Errorf("compress=%v: write allocated %d bytes (bound %d), verify %d (bound %d)",
				f.opts.Compress, write, f.writeMax, verify, f.verifyMax)
		}
		t.Logf("compress=%v: write %d B, verify %d B", f.opts.Compress, write, verify)
	}
}
