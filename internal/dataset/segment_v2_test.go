package dataset

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colcodec"
)

// writeCompressed writes tab as a v2 segment directory with a small block
// length, so even the test tables span many blocks per column.
func writeCompressed(t *testing.T, tab *Table, dir string, blockLen int) {
	t.Helper()
	if err := tab.WriteSegmentsOptions(dir, SegmentOptions{Compress: true, BlockLen: blockLen}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedSegmentRoundTrip(t *testing.T) {
	tab := buildTestTable(t)
	dir := t.TempDir()
	writeCompressed(t, tab, dir, 64)

	st, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Compressed() || st.cols[0].blockLen != 64 {
		t.Fatalf("opened table: Compressed=%v BlockLen=%d, want true/64", st.Compressed(), st.cols[0].blockLen)
	}
	if err := st.VerifyChecksums(); err != nil {
		t.Fatalf("VerifyChecksums on a clean compressed write: %v", err)
	}
	if st.K() != tab.K() || st.NumRows() != tab.NumRows() {
		t.Fatalf("shape mismatch: got %d groups/%d rows, want %d/%d", st.K(), st.NumRows(), tab.K(), tab.NumRows())
	}
	if st.MinValue() != tab.MinValue() || st.MaxValue() != tab.MaxValue() {
		t.Fatalf("range [%v,%v] != [%v,%v]", st.MinValue(), st.MaxValue(), tab.MinValue(), tab.MaxValue())
	}
	for gi := range tab.Names() {
		got, want := st.groupColumn(gi), tab.groupColumn(gi)
		if len(got) != len(want) {
			t.Fatalf("group %d has %d rows, want %d", gi, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("group %d row %d: %v != %v", gi, i, got[i], want[i])
			}
		}
		sg := st.Groups()[gi].(*TableGroup)
		mg := tab.Groups()[gi].(*TableGroup)
		if math.Float64bits(sg.TrueMean()) != math.Float64bits(mg.TrueMean()) ||
			math.Float64bits(sg.MaxValue()) != math.Float64bits(mg.MaxValue()) {
			t.Fatalf("group %d stats mismatch", gi)
		}
		if sg.Values() != nil {
			t.Fatalf("group %d: Values() on a compressed group must be nil", gi)
		}
	}
	for _, name := range tab.ExtraColumnNames() {
		got, _ := st.extraColumn(name)
		want, _ := tab.extraColumn(name)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("extra %q row %d: %v != %v", name, i, got[i], want[i])
			}
		}
	}
	if err := st.Err(); err != nil {
		t.Fatalf("Err() after clean reads: %v", err)
	}

	// The directory on disk must be smaller than the raw encoding would be:
	// the delta-friendly "distance" extra alone guarantees real savings.
	var onDisk int64
	for _, name := range []string{"value.seg", "extra.0.seg", "extra.1.seg"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size() - SegmentDataOffset
	}
	raw := int64(tab.NumRows()) * 8 * 3
	if onDisk >= raw {
		t.Fatalf("compressed columns are %d bytes, raw would be %d", onDisk, raw)
	}
}

// drawModesV2 exercises every draw mode a sampler offers a group,
// returning the produced count.
var drawModesV2 = []struct {
	name string
	run  func(g Group, seed uint64, out []float64) int
}{
	{"scalar-wr", func(g Group, seed uint64, out []float64) int {
		s := NewStreamSampler(NewUniverse(1, g), seed, false)
		for i := range out {
			out[i] = s.Draw(0)
		}
		return len(out)
	}},
	{"batch-wr", func(g Group, seed uint64, out []float64) int {
		NewStreamSampler(NewUniverse(1, g), seed, false).DrawBatch(0, out)
		return len(out)
	}},
	{"scalar-wor", func(g Group, seed uint64, out []float64) int {
		s := soloSampler(g, seed)
		n := 0
		for n < len(out) {
			v, ok := drawWithout(s, 0)
			if !ok {
				break
			}
			out[n] = v
			n++
		}
		return n
	}},
	{"batch-wor", func(g Group, seed uint64, out []float64) int {
		s := soloSampler(g, seed)
		n := 0
		for n < len(out) {
			lim := n + 64
			if lim > len(out) {
				lim = len(out)
			}
			took := drawBatchWithout(s, 0, out[n:lim])
			if took == 0 {
				break
			}
			n += took
		}
		return n
	}},
}

// assertSameDraws runs every draw mode on paired group sets with identical
// RNG seeds and requires bit-identical streams.
func assertSameDraws(t *testing.T, label string, want, got []Group, draws int) {
	t.Helper()
	for _, mode := range drawModesV2 {
		for gi := range want {
			a := make([]float64, draws)
			b := make([]float64, draws)
			na := mode.run(want[gi], uint64(11+gi), a)
			nb := mode.run(got[gi], uint64(11+gi), b)
			if na != nb {
				t.Fatalf("%s/%s group %d: %d vs %d values", label, mode.name, gi, na, nb)
			}
			for i := 0; i < na; i++ {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("%s/%s group %d draw %d: %v != %v", label, mode.name, gi, i, a[i], b[i])
				}
			}
		}
	}
}

// TestCompressedCacheEviction shrinks the decoded-block budget to its
// 4-block floor and re-pins draw equivalence: evicted blocks re-decode to
// identical values, and bounded residency never changes a stream.
func TestCompressedCacheEviction(t *testing.T) {
	old := blockCacheBytes
	blockCacheBytes = 1 // limit clamps to 4 blocks
	defer func() { blockCacheBytes = old }()

	tab := buildTestTable(t)
	dir := t.TempDir()
	writeCompressed(t, tab, dir, 32)
	st, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.cols[0].cache.limit != 4 {
		t.Fatalf("cache limit %d, want the 4-block floor", st.cols[0].cache.limit)
	}
	assertSameDraws(t, "evicting", tab.Groups(), st.Groups(), 300)
	if got := len(st.cols[0].cache.entries); got > 4 {
		t.Fatalf("cache holds %d blocks, budget is 4", got)
	}
}

// TestCompressedFilterMatchesInMemory pins zone-map pushdown correctness:
// for a spread of predicates (ordering, equality, extras, conjunctions),
// the filtered view over compressed blocks must have the same surviving
// groups, cardinalities, means, bound, and draw streams as the in-memory
// filter — pruned blocks and all.
func TestCompressedFilterMatchesInMemory(t *testing.T) {
	tab := buildTestTable(t)
	dir := t.TempDir()
	writeCompressed(t, tab, dir, 32)
	st, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	filters := [][]Predicate{
		{{Column: "delay", Op: OpLT, Value: 20}},
		{{Column: "", Op: OpGE, Value: 90}}, // sparse survivors
		{{Column: "distance", Op: OpLT, Value: 10}},
		{{Column: "distance", Op: OpGE, Value: 100}},
		{{Column: "distance", Op: OpEQ, Value: 5}},
		{{Column: "distance", Op: OpNE, Value: 5}},
		{{Column: "elapsed", Op: OpGT, Value: 50}, {Column: "distance", Op: OpLE, Value: 150}},
		{{Column: "delay", Op: OpLE, Value: 100}}, // all rows survive
	}
	for fi, preds := range filters {
		mv, merr := tab.Filter(preds...)
		sv, serr := st.Filter(preds...)
		if (merr == nil) != (serr == nil) {
			t.Fatalf("filter %d: in-memory err %v, compressed err %v", fi, merr, serr)
		}
		if merr != nil {
			continue
		}
		if mv.NumRows() != sv.NumRows() || mv.K() != sv.K() {
			t.Fatalf("filter %d: %d rows/%d groups vs %d/%d", fi, mv.NumRows(), mv.K(), sv.NumRows(), sv.K())
		}
		if math.Float64bits(mv.MaxValue()) != math.Float64bits(sv.MaxValue()) {
			t.Fatalf("filter %d: bound %v vs %v", fi, mv.MaxValue(), sv.MaxValue())
		}
		mg, sg := mv.Groups(), sv.Groups()
		for gi := range mg {
			if mg[gi].Name() != sg[gi].Name() || mg[gi].Size() != sg[gi].Size() {
				t.Fatalf("filter %d group %d: %s/%d vs %s/%d", fi,
					gi, mg[gi].Name(), mg[gi].Size(), sg[gi].Name(), sg[gi].Size())
			}
			if math.Float64bits(mg[gi].TrueMean()) != math.Float64bits(sg[gi].TrueMean()) {
				t.Fatalf("filter %d group %d: mean %v vs %v", fi, gi, mg[gi].TrueMean(), sg[gi].TrueMean())
			}
		}
		assertSameDraws(t, "filtered", mg, sg, 200)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCompressedFilterSkipsBlocks proves the pushdown actually skips: a
// block whose zone rules a predicate out is never read, so damage inside
// it cannot fail the filter, while a predicate the zone cannot settle
// opens the block and reports the damage. Neither plan decodes anything
// into the cache.
func TestCompressedFilterSkipsBlocks(t *testing.T) {
	tab := buildTestTable(t)
	dir := t.TempDir()
	writeCompressed(t, tab, dir, 32)
	// Block 6 holds rows 192..223, inside group DL (rows 135..293), whose
	// "distance" counts 57..88 there.
	man, err := readSegManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	off := man.Columns[2].Blocks[6].Off
	corruptFile(t, filepath.Join(dir, "extra.1.seg"), func(b []byte) []byte {
		b[SegmentDataOffset+off+colcodec.HeaderSize+1] ^= 0x40
		return b
	})
	st, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// distance counts 0..rows-1 within each group, so "distance < 5" is
	// provably false for every block past each group's first.
	if _, err := st.Filter(Predicate{Column: "distance", Op: OpLT, Value: 5}); err != nil {
		t.Fatalf("zone-skipped damage failed the filter: %v", err)
	}
	_, err = st.Filter(Predicate{Column: "distance", Op: OpEQ, Value: 70})
	if err == nil || !strings.Contains(err.Error(), `column "distance" block 6: `) {
		t.Fatalf("filter reading the damaged block: %v", err)
	}
	st.cols[0].cache.mu.Lock()
	decoded := len(st.cols[0].cache.entries)
	st.cols[0].cache.mu.Unlock()
	if decoded != 0 {
		t.Fatalf("filters decoded %d blocks into the cache; planning compares in place", decoded)
	}
}

// TestCompressedRecompression round-trips a compressed table back through
// both writers: the block-windowed source path of WriteSegmentsOptions.
func TestCompressedRecompression(t *testing.T) {
	tab := buildTestTable(t)
	src := t.TempDir()
	writeCompressed(t, tab, src, 64)
	st, err := OpenSegments(src)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	for _, opts := range []SegmentOptions{{}, {Compress: true, BlockLen: 32}} {
		dst := t.TempDir()
		if err := st.WriteSegmentsOptions(dst, opts); err != nil {
			t.Fatal(err)
		}
		st2, err := OpenSegments(dst)
		if err != nil {
			t.Fatal(err)
		}
		if err := st2.VerifyChecksums(); err != nil {
			t.Fatalf("rewritten (compress=%v) fails verify: %v", opts.Compress, err)
		}
		for gi := range tab.Names() {
			got, want := st2.groupColumn(gi), tab.groupColumn(gi)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("rewrite compress=%v group %d row %d: %v != %v", opts.Compress, gi, i, got[i], want[i])
				}
			}
		}
		st2.Close()
	}
}

// TestOpenSegmentsCorruptionV2 extends the corruption matrix to the
// compressed format: damaged blocks, forged zone maps, and future versions
// must all produce descriptive errors, never panics or silent bad data.
func TestOpenSegmentsCorruptionV2(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		errHas  string
		// verify=true means the damage is only detectable by the full
		// decode-and-checksum pass, not the structural open.
		verify bool
	}{
		{
			name: "block-payload-flip",
			corrupt: func(t *testing.T, dir string) {
				corruptFile(t, filepath.Join(dir, "value.seg"), func(b []byte) []byte {
					b[SegmentDataOffset+20] ^= 0x40 // inside the first block's payload
					return b
				})
			},
			errHas: "checksum mismatch",
			verify: true,
		},
		{
			name: "block-unknown-codec",
			corrupt: func(t *testing.T, dir string) {
				corruptFile(t, filepath.Join(dir, "value.seg"), func(b []byte) []byte {
					b[SegmentDataOffset] = 200 // first block's codec id
					return b
				})
			},
			errHas: "unknown codec",
			verify: true,
		},
		{
			name: "block-truncated",
			corrupt: func(t *testing.T, dir string) {
				corruptFile(t, filepath.Join(dir, "value.seg"), func(b []byte) []byte {
					return b[:len(b)-16]
				})
			},
			errHas: "truncated",
		},
		{
			name: "zone-map-forged",
			corrupt: func(t *testing.T, dir string) {
				editManifestV2(t, dir, func(man *segManifest) {
					man.Columns[0].Blocks[1].Min -= 1
				})
			},
			errHas: "zone map",
			verify: true,
		},
		{
			name: "manifest-future-version",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(s string) string {
					return strings.Replace(s, `"version": 2`, `"version": 3`, 1)
				})
			},
			errHas: "unsupported format version",
		},
		{
			name: "block-offsets-overlap",
			corrupt: func(t *testing.T, dir string) {
				editManifestV2(t, dir, func(man *segManifest) {
					man.Columns[0].Blocks[2].Off = man.Columns[0].Blocks[1].Off
				})
			},
			errHas: "overlaps",
		},
		{
			name: "block-count-wrong",
			corrupt: func(t *testing.T, dir string) {
				editManifestV2(t, dir, func(man *segManifest) {
					man.Columns[0].Blocks = man.Columns[0].Blocks[:3]
				})
			},
			errHas: "blocks",
		},
		{
			name: "zone-inverted",
			corrupt: func(t *testing.T, dir string) {
				editManifestV2(t, dir, func(man *segManifest) {
					b := &man.Columns[0].Blocks[0]
					b.Min, b.Max = b.Max+1, b.Min
				})
			},
			errHas: "inverted",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := buildTestTable(t)
			dir := t.TempDir()
			writeCompressed(t, tab, dir, 64)
			tc.corrupt(t, dir)
			st, err := OpenSegments(dir)
			if tc.verify {
				if err != nil {
					t.Fatalf("structural open should pass for %s: %v", tc.name, err)
				}
				defer st.Close()
				err = st.VerifyChecksums()
			}
			if err == nil {
				t.Fatalf("expected an error for %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.errHas) {
				t.Fatalf("error %q does not mention %q", err, tc.errHas)
			}
		})
	}

	// A v1 manifest smuggling v2 block metadata is rejected too.
	t.Run("v1-with-block-metadata", func(t *testing.T) {
		tab := buildTestTable(t)
		dir := t.TempDir()
		if err := tab.WriteSegments(dir); err != nil {
			t.Fatal(err)
		}
		rewriteManifest(t, dir, func(s string) string {
			return strings.Replace(s, `"version": 1`, `"version": 1, "block_len": 64`, 1)
		})
		if _, err := OpenSegments(dir); err == nil || !strings.Contains(err.Error(), "compressed-column metadata") {
			t.Fatalf("v1 manifest with block metadata: %v", err)
		}
	})

	// Corruption hit mid-draw (after a clean open, cache path) degrades to
	// zeros and surfaces through Err rather than panicking.
	t.Run("draw-after-corruption-sets-err", func(t *testing.T) {
		tab := buildTestTable(t)
		dir := t.TempDir()
		writeCompressed(t, tab, dir, 64)
		corruptFile(t, filepath.Join(dir, "value.seg"), func(b []byte) []byte {
			b[SegmentDataOffset+20] ^= 0x40
			return b
		})
		st, err := OpenSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var buf [128]float64
		NewStreamSampler(NewUniverse(1, st.Groups()[0]), 1, false).DrawBatch(0, buf[:])
		if err := st.Err(); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("Err after drawing corrupt block: %v", err)
		}
	})
}

// editManifestV2 round-trips manifest.json through the struct form for
// field-level edits (Go's JSON encoding of float64 is exact, so untouched
// zones survive the rewrite bit-for-bit).
func editManifestV2(t *testing.T, dir string, edit func(man *segManifest)) {
	t.Helper()
	man, err := readSegManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	edit(man)
	blob, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segManifestName), blob, 0o644); err != nil {
		t.Fatal(err)
	}
}
