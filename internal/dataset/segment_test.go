package dataset

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// buildTestTable returns a small table with two extra columns and uneven
// group sizes, exercising offsets, extras alignment, and statistics.
func buildTestTable(t *testing.T) *Table {
	t.Helper()
	b := NewTableBuilderColumns("delay", "elapsed", "distance")
	rng := xrand.New(7)
	groups := []string{"AA", "UA", "DL", "WN"}
	for gi, g := range groups {
		rows := 37 + 61*gi
		for i := 0; i < rows; i++ {
			v := 100 * rng.Float64()
			if err := b.AddRow(g, v, v*2+1, float64(i)); err != nil {
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

func TestSegmentRoundTrip(t *testing.T) {
	tab := buildTestTable(t)
	dir := t.TempDir()
	if err := tab.WriteSegments(dir); err != nil {
		t.Fatal(err)
	}
	st, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if err := st.VerifyChecksums(); err != nil {
		t.Fatalf("VerifyChecksums on a clean write: %v", err)
	}
	if st.K() != tab.K() || st.NumRows() != tab.NumRows() {
		t.Fatalf("shape mismatch: got %d groups/%d rows, want %d/%d", st.K(), st.NumRows(), tab.K(), tab.NumRows())
	}
	if st.ValueColumnName() != tab.ValueColumnName() {
		t.Fatalf("value name %q != %q", st.ValueColumnName(), tab.ValueColumnName())
	}
	if got, want := st.ExtraColumnNames(), tab.ExtraColumnNames(); len(got) != len(want) {
		t.Fatalf("extra names %v != %v", got, want)
	}
	if st.MinValue() != tab.MinValue() || st.MaxValue() != tab.MaxValue() {
		t.Fatalf("range [%v,%v] != [%v,%v]", st.MinValue(), st.MaxValue(), tab.MinValue(), tab.MaxValue())
	}
	for gi := range tab.Names() {
		if st.Names()[gi] != tab.Names()[gi] {
			t.Fatalf("group %d name %q != %q", gi, st.Names()[gi], tab.Names()[gi])
		}
		got, want := st.Column(gi), tab.Column(gi)
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
		if math.Float64bits(sg.TrueMean()) != math.Float64bits(mg.TrueMean()) {
			t.Fatalf("group %d mean %v != %v", gi, sg.TrueMean(), mg.TrueMean())
		}
		if math.Float64bits(sg.MaxValue()) != math.Float64bits(mg.MaxValue()) {
			t.Fatalf("group %d max %v != %v", gi, sg.MaxValue(), mg.MaxValue())
		}
	}
	for _, name := range tab.ExtraColumnNames() {
		got, _ := st.ExtraColumn(name)
		want, _ := tab.ExtraColumn(name)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("extra %q row %d: %v != %v", name, i, got[i], want[i])
			}
		}
	}
	if info, err := ReadSegmentManifest(dir); err != nil {
		t.Fatal(err)
	} else if info.Rows != int64(tab.NumRows()) || len(info.GroupNames) != tab.K() {
		t.Fatalf("manifest info %+v does not match table", info)
	}
}

// TestSparseMatchesDense forces the sparse permutation on small groups and
// pins that it draws the identical stream, including across ResetDraws.
func TestSparseMatchesDense(t *testing.T) {
	old := sparsePermGate
	defer func() { sparsePermGate = old }()

	tab := buildTestTable(t)
	dir := t.TempDir()
	if err := tab.WriteSegments(dir); err != nil {
		t.Fatal(err)
	}

	sparsePermGate = 1 // every segment group goes sparse
	stSparse, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer stSparse.Close()
	sparsePermGate = 1 << 30 // every segment group stays dense
	stDense, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer stDense.Close()

	for gi := range tab.Names() {
		sg := stSparse.Groups()[gi].(*TableGroup)
		dg := stDense.Groups()[gi].(*TableGroup)
		if !sg.sparse {
			t.Fatalf("group %d: expected sparse permutation", gi)
		}
		if dg.sparse {
			t.Fatalf("group %d: expected dense permutation", gi)
		}
		rs, rd := xrand.New(uint64(31+gi)), xrand.New(uint64(31+gi))
		// Interleave scalar and batch WOR draws, exhaust, reset, redraw:
		// the sparse map must stay a valid permutation throughout.
		for round := 0; round < 3; round++ {
			var a, b [17]float64
			na := sg.DrawBatchWithoutReplacement(rs, a[:])
			nb := dg.DrawBatchWithoutReplacement(rd, b[:])
			if na != nb {
				t.Fatalf("group %d round %d: sparse took %d, dense %d", gi, round, na, nb)
			}
			for i := 0; i < na; i++ {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("group %d round %d draw %d: sparse %v, dense %v", gi, round, i, a[i], b[i])
				}
			}
			vs, oks := sg.DrawWithoutReplacement(rs)
			vd, okd := dg.DrawWithoutReplacement(rd)
			if oks != okd || math.Float64bits(vs) != math.Float64bits(vd) {
				t.Fatalf("group %d round %d scalar: sparse (%v,%v), dense (%v,%v)", gi, round, vs, oks, vd, okd)
			}
		}
		// Exhaust both fully; the consumed multiset must equal the column.
		for {
			vs, oks := sg.DrawWithoutReplacement(rs)
			vd, okd := dg.DrawWithoutReplacement(rd)
			if oks != okd {
				t.Fatalf("group %d exhaustion disagreement", gi)
			}
			if !oks {
				break
			}
			if math.Float64bits(vs) != math.Float64bits(vd) {
				t.Fatalf("group %d post-reset draw: sparse %v, dense %v", gi, vs, vd)
			}
		}
		// Reset and redraw: the retained sparse arrangement must still be a
		// valid permutation (every row drawn exactly once).
		sg.ResetDraws()
		seen := make(map[int32]int)
		n := int(sg.Size())
		for i := 0; i < n; i++ {
			row := sg.permStep(rs)
			seen[row]++
		}
		if len(seen) != n {
			t.Fatalf("group %d: post-reset permutation visited %d distinct rows, want %d", gi, len(seen), n)
		}
	}
}

// corruptFile flips, truncates, or rewrites part of a file in place.
func corruptFile(t *testing.T, path string, mutate func([]byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenSegmentsCorruption is the table-driven corruption matrix: every
// damaged input must produce a descriptive error (and never a panic).
func TestOpenSegmentsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		errHas  string
		// verify=true means the damage is only detectable by the full
		// checksum pass, not the structural open.
		verify bool
	}{
		{
			name:    "missing-manifest",
			corrupt: func(t *testing.T, dir string) { os.Remove(filepath.Join(dir, "manifest.json")) },
			errHas:  "manifest.json",
		},
		{
			name: "manifest-garbage",
			corrupt: func(t *testing.T, dir string) {
				os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{not json"), 0o644)
			},
			errHas: "malformed manifest",
		},
		{
			name: "manifest-bad-magic",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(s string) string { return strings.Replace(s, "RVSEGTBL", "NOTMAGIC", 1) })
			},
			errHas: "bad manifest magic",
		},
		{
			name: "manifest-bad-version",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(s string) string { return strings.Replace(s, `"version": 1`, `"version": 99`, 1) })
			},
			errHas: "unsupported format version",
		},
		{
			name: "manifest-row-mismatch",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(s string) string {
					// The top-level row count is the first "rows" field.
					return strings.Replace(s, `"rows": 514`, `"rows": 518`, 1)
				})
			},
			errHas: "sum to",
		},
		{
			name:    "value-missing",
			corrupt: func(t *testing.T, dir string) { os.Remove(filepath.Join(dir, "value.seg")) },
			errHas:  "value.seg",
		},
		{
			name: "value-truncated-header",
			corrupt: func(t *testing.T, dir string) {
				corruptFile(t, filepath.Join(dir, "value.seg"), func(b []byte) []byte { return b[:40] })
			},
			errHas: "shorter than",
		},
		{
			name: "value-truncated-data",
			corrupt: func(t *testing.T, dir string) {
				corruptFile(t, filepath.Join(dir, "value.seg"), func(b []byte) []byte { return b[:len(b)-128] })
			},
			errHas: "truncated",
		},
		{
			name: "value-bad-magic",
			corrupt: func(t *testing.T, dir string) {
				corruptFile(t, filepath.Join(dir, "value.seg"), func(b []byte) []byte {
					copy(b[0:8], "XXSEGCOL")
					return b
				})
			},
			errHas: "bad magic",
		},
		{
			name: "value-bad-endian-marker",
			corrupt: func(t *testing.T, dir string) {
				corruptFile(t, filepath.Join(dir, "value.seg"), func(b []byte) []byte {
					// Byte-swap the marker and re-seal the header CRC so the
					// marker check itself is what fires.
					binary.LittleEndian.PutUint32(b[12:16], 0x04030201)
					resealHeader(b)
					return b
				})
			},
			errHas: "endianness marker",
		},
		{
			name: "value-header-crc",
			corrupt: func(t *testing.T, dir string) {
				corruptFile(t, filepath.Join(dir, "value.seg"), func(b []byte) []byte {
					b[16] ^= 0xFF // row count byte; CRC no longer matches
					return b
				})
			},
			errHas: "header checksum mismatch",
		},
		{
			name: "value-rowcount-mismatch",
			corrupt: func(t *testing.T, dir string) {
				corruptFile(t, filepath.Join(dir, "value.seg"), func(b []byte) []byte {
					rows := binary.LittleEndian.Uint64(b[16:24])
					binary.LittleEndian.PutUint64(b[16:24], rows+1)
					binary.LittleEndian.PutUint64(b[24:32], (rows+1)*8)
					resealHeader(b)
					return b
				})
			},
			errHas: "manifest declares",
		},
		{
			name:    "extra-missing",
			corrupt: func(t *testing.T, dir string) { os.Remove(filepath.Join(dir, "extra.1.seg")) },
			errHas:  "extra.1.seg",
		},
		{
			name: "value-data-flip",
			corrupt: func(t *testing.T, dir string) {
				corruptFile(t, filepath.Join(dir, "value.seg"), func(b []byte) []byte {
					b[64+100] ^= 0x01
					return b
				})
			},
			errHas: "checksum mismatch",
			verify: true,
		},
		{
			name: "extra-data-flip",
			corrupt: func(t *testing.T, dir string) {
				corruptFile(t, filepath.Join(dir, "extra.0.seg"), func(b []byte) []byte {
					b[len(b)-1] ^= 0x80
					return b
				})
			},
			errHas: "checksum mismatch",
			verify: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := buildTestTable(t)
			dir := t.TempDir()
			if err := tab.WriteSegments(dir); err != nil {
				t.Fatal(err)
			}
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
}

// resealHeader recomputes the header CRC after a deliberate header edit,
// so the test isolates the field check it is aiming at.
func resealHeader(b []byte) {
	binary.LittleEndian.PutUint32(b[32:36], crc32.Checksum(b[:32], castagnoli))
}

// rewriteManifest applies a textual edit to manifest.json.
func rewriteManifest(t *testing.T, dir string, edit func(string) string) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(edit(string(b))), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentWriterErrors pins the writer's own validation.
func TestSegmentWriterErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := CreateSegments(filepath.Join(dir, "sub", "x"), "v"); err != nil {
		t.Fatalf("nested dir create: %v", err)
	}

	w, err := CreateSegments(filepath.Join(dir, "a"), "v", "e")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1); err == nil || !strings.Contains(err.Error(), "before StartGroup") {
		t.Fatalf("append before StartGroup: %v", err)
	}

	w, _ = CreateSegments(filepath.Join(dir, "b"), "v")
	if err := w.StartGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(-1); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative value: %v", err)
	}

	w, _ = CreateSegments(filepath.Join(dir, "c"), "v")
	w.StartGroup("g")
	w.Append(1)
	if err := w.StartGroup("g"); err == nil || !strings.Contains(err.Error(), "duplicate group") {
		t.Fatalf("duplicate group: %v", err)
	}

	w, _ = CreateSegments(filepath.Join(dir, "d"), "v")
	w.StartGroup("g")
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "no rows") {
		t.Fatalf("empty group at close: %v", err)
	}
	if _, err := OpenSegments(filepath.Join(dir, "d")); err == nil {
		t.Fatal("aborted directory must not open")
	}

	w, _ = CreateSegments(filepath.Join(dir, "e"), "v")
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "no rows") {
		t.Fatalf("zero-row close: %v", err)
	}
}
