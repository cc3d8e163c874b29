package dataset

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// pinnedCSV renders a fixed group,value,x,t input with a header, large
// enough (about 690 KB) that workers 0 shards it. Values mix one-decimal
// readings, small integers, a rising timestamp and a few full-precision
// doubles, so the v2 blocks exercise every codec; every third row carries
// a leading space.
func pinnedCSV() string {
	var b strings.Builder
	b.WriteString("group,value,x,t\n")
	for i := 0; i < 24_000; i++ {
		if i%3 == 2 {
			b.WriteByte(' ')
		}
		g := fmt.Sprintf("g%02d", (i*7+i/1000)%13)
		if i >= 20_000 && i%50 == 0 {
			g = "late" // a group first seen in the last shard
		}
		v := fmt.Sprintf("%d.%d", (i*37)%1000, i%10)
		if i%401 == 0 {
			v = fmt.Sprint(float64(i) / 3)
		}
		fmt.Fprintf(&b, "%s,%s,%d,%d\n", g, v, i%97, 1_600_000_000+i*3)
	}
	return b.String()
}

// segmentFileCRCs returns the CRC-32C of every file in a segment directory,
// manifest included, keyed by file name.
func segmentFileCRCs(t *testing.T, dir string) map[string]uint32 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	crcs := map[string]uint32{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		crcs[e.Name()] = crc32.Checksum(b, castagnoli)
	}
	return crcs
}

func formatCRCs(m map[string]uint32) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%q: %#08x, ", n, m[n])
	}
	return b.String()
}

// TestIngestFilesPinned pins the bytes ingestion produces: the same CSV,
// parsed at every worker count, must write segment files (v1, v2, v2 at
// BlockLen 1000, manifest included) whose CRC-32Cs match the constants
// below. A parser or encoder change that moves one byte fails here.
func TestIngestFilesPinned(t *testing.T) {
	payload := pinnedCSV()
	if len(payload) < autoShardMinBytes {
		t.Fatalf("payload is %d bytes, under the %d that workers 0 shards", len(payload), autoShardMinBytes)
	}
	formats := []struct {
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
	// The sharded parser must serve this input itself: a fallback to the
	// sequential parser would pass every check below.
	if _, ok := readCSVSharded([]byte(payload), 4); !ok {
		t.Fatal("sharded parser fell back on the pinned input")
	}
	for _, workers := range []int{0, 1, 2, 4} {
		tab, err := ReadCSVWorkers(strings.NewReader(payload), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, f := range formats {
			dir := filepath.Join(t.TempDir(), f.name)
			if err := tab.WriteSegmentsOptions(dir, f.opts); err != nil {
				t.Fatalf("workers=%d %s: %v", workers, f.name, err)
			}
			if got := segmentFileCRCs(t, dir); formatCRCs(got) != formatCRCs(f.want) {
				t.Errorf("workers=%d %s: files\n got  %s\n want %s", workers, f.name, formatCRCs(got), formatCRCs(f.want))
			}
		}
	}
}

// TestIngestRejectsInvalidValues: a NaN, an infinity or a negative value
// in the value column fails every ingest boundary — the row builder
// (AddRow at once, Add when the builder builds), BuildTable, the
// sequential and the sharded CSV parser, and the segment writer — with the
// one error checkValue words.
func TestIngestRejectsInvalidValues(t *testing.T) {
	// Enough valid rows that the sharded parse has work on every shard.
	var valid strings.Builder
	for i := 0; i < 2_000; i++ {
		fmt.Fprintf(&valid, "g%d,%d\n", i%7, i)
	}
	for _, tc := range []struct {
		text string
		v    float64
	}{
		{"NaN", math.NaN()},
		{"nan", math.NaN()},
		{"Inf", math.Inf(1)},
		{"+Infinity", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
		{"-1", -1},
		{"-0.5", -0.5},
	} {
		want := checkValue(tc.v)
		if want == nil {
			t.Fatalf("checkValue(%v) accepted it", tc.v)
		}
		paths := map[string]func() error{
			"AddRow": func() error {
				return NewTableBuilderColumns("v", "x").AddRow("a", tc.v, 1)
			},
			"Add, then Build": func() error {
				b := NewTableBuilder()
				b.Add("a", 1)
				b.Add("b", tc.v)
				b.Add("a", 2)
				_, err := b.Build()
				return err
			},
			"BuildTable": func() error {
				_, err := BuildTableWorkers([]Row{{"a", 1}, {"b", tc.v}, {"a", 2}}, 1)
				return err
			},
			"BuildTable sharded": func() error {
				_, err := BuildTableWorkers([]Row{{"a", 1}, {"b", 2}, {"c", tc.v}, {"a", 2}}, 3)
				return err
			},
			"SegmentWriter.Append": func() error {
				w, err := CreateSegments(t.TempDir(), "v")
				if err != nil {
					return err
				}
				defer w.abort()
				if err := w.StartGroup("a"); err != nil {
					return err
				}
				return w.Append(tc.v)
			},
		}
		for _, workers := range []int{1, 2, 4} {
			csv := valid.String() + "bad, " + tc.text + "\n" + valid.String()
			paths[fmt.Sprintf("ReadCSV workers=%d", workers)] = func() error {
				_, err := ReadCSVWorkers(strings.NewReader(csv), workers)
				return err
			}
		}
		for name, run := range paths {
			if err := run(); err == nil || err.Error() != want.Error() {
				t.Errorf("%s with value %s: error %v, want %q", name, tc.text, err, want)
			}
		}
	}
}

// TestAddPanicsOnExtraColumns: Add carries no extras, so on a builder with
// extra columns it panics with the error AddRow returns for the same row.
func TestAddPanicsOnExtraColumns(t *testing.T) {
	want := NewTableBuilderColumns("v", "x").AddRow("a", 1)
	defer func() {
		if got := recover(); want == nil || got != want.Error() {
			t.Errorf("Add panicked with %v, want %v", got, want)
		}
	}()
	NewTableBuilderColumns("v", "x").Add("a", 1)
}

// TestReadCSVSmallSizedInput: in auto mode a reader that reports a size
// under the sharding threshold goes straight to the sequential parser,
// without allocating the threshold-sized peek buffer.
func TestReadCSVSmallSizedInput(t *testing.T) {
	const text = "group,value,x\na,1,2\nb,2,3\na,3,4\n"
	want, err := readCSVSequential(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReadCSVWorkers(strings.NewReader(text), 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := tableFingerprint(got), tableFingerprint(want); g != w {
		t.Errorf("table %s, want %s", g, w)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= autoShardMinBytes {
		t.Errorf("reading %d bytes allocated %d bytes, not under the %d-byte peek", len(text), n, autoShardMinBytes)
	}
}

// FuzzReadCSV: the sharded parser must read any input exactly as the
// sequential reference does — the same table, extra columns included, or
// the same error.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"group,value\na,1\nb,2.5\na,3\n",
		"a,1\nb,2\na,3,extra,fields\n",
		"g,v,x,t\na,1,2,3\nb,4,5,6\na,7,8,9\n",
		"g,v,x,t\na,1,2\n",
		"g,v,x\na,1,2,\nb,3,,4\n",
		"\"a\",1\nb,2\n",
		"\"multi\nline\",1\nb,2\n",
		"a,1\r\nb,2\r\na,3\r\n",
		"a,1\rb,2\n",
		"a,1\r\r\nb,2\n",
		"\n\na,1\n\n\nb,2\n\n",
		"\r\n\r\na,1\r\n",
		"  a , 1 \n\tb,\t2\t\n c ,3",
		"group , value , x \n a , 1 , 2 \n",
		"a,NaN\nb,1\n",
		"a,1\nb,Inf\n",
		"a,-Inf\n",
		"a,-1\nb,2\n",
		"g,v,x\na,1,NaN\nb,2,-Inf\n",
		"u0,1\nu1,2\nu2,3\nu3,4\nu4,5\nu5,6\nu6,7\nu7,8\n",
		"a\n", "a,\n", ",1\n", "", "\n", "group,value\n", "a,1,\n",
		"a,0x1p-2\nb,1_0\nc,1e3\n",
		"a,-0\nb,0\n",
		// parseDecimal's edges: what it reads, and what it leaves to
		// strconv.
		"g,v,x\na,1,-0\nb,+1.5,.5\nc,5.,+0.0\n",
		"a,.\n", "a,1,.\n", "g,v,x\na,1,.\n", "a,-\n", "a,1..2\n",
		"g,v,x\na,9007199254740992,9007199254740993\nb,900719925474099.3,-9007199254740993\n",
		"g,v,x\na,0.000000000000000001,1234567890123456789\nb,12345678901234567890,0.0000000000000000001\n",
		"g,v,x\na,1,0.0000000000000000000001\nb,1,0.00000000000000000000001\n",
		"g,v,x\na, 1,2 \nb,1\t,3\r\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		ref, refErr := readCSVSequential(strings.NewReader(in))
		for _, workers := range []int{2, 3, 8} {
			got, err := ReadCSVWorkers(strings.NewReader(in), workers)
			switch {
			case refErr != nil:
				if err == nil || err.Error() != refErr.Error() {
					t.Fatalf("workers=%d: error %v, sequential %q", workers, err, refErr)
				}
			case err != nil:
				t.Fatalf("workers=%d: error %v, sequential parse succeeded", workers, err)
			default:
				if g, w := tableFingerprint(got), tableFingerprint(ref); g != w {
					t.Fatalf("workers=%d: table\n%s\nsequential\n%s", workers, g, w)
				}
			}
		}
	})
}

// FuzzParseDecimal: whatever parseDecimal accepts is one field up to the
// first ',' or the end, and its value has the bits strconv.ParseFloat
// gives that field.
func FuzzParseDecimal(f *testing.F) {
	for _, seed := range []string{
		"-0", "+1.5", ".5", "5.", ".", "-", "+", "", "1..2", "1,2",
		"9007199254740992", "9007199254740993", "-9007199254740993",
		"900719925474099.3", "0.9007199254740993",
		"1234567890123456789", "0.000000000000000001", "1000000000000000000",
		"12345678901234567890", "0.0000000000000000001",
		"0.0000000000000000000001", "0.00000000000000000000001",
		"1e3", "0x1p-2", "1_0", "inf", "NaN",
		" 1", "1 ", "1\r", "1\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		v, n, ok := parseDecimal(text)
		if !ok {
			return
		}
		end := bytes.IndexByte(text, ',')
		if end < 0 {
			end = len(text)
		}
		if n != end {
			t.Fatalf("parseDecimal(%q) read %d bytes, want up to the first ','", text, n)
		}
		want, err := strconv.ParseFloat(string(text[:n]), 64)
		if err != nil {
			t.Fatalf("parseDecimal(%q) = %v, strconv rejects it: %v", text[:n], v, err)
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("parseDecimal(%q) = %v (%#x), strconv %v (%#x)", text[:n], v, math.Float64bits(v), want, math.Float64bits(want))
		}
	})
}
