package dataset

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/xrand"
)

// benchCSV renders a 300 000-row group,value,x,t file with a header:
// values at two decimals in [0, 100), x an integer in [0, 1000), t the
// row's ordinal within its group. Contiguous input holds 10 groups of
// 30 000 rows one after another; interleaved input deals its rows over 50
// groups in turn (row i belongs to group i%50), so no record shares its
// predecessor's group.
func benchCSV(interleaved bool) []byte {
	const rows = 300_000
	groups := 10
	if interleaved {
		groups = 50
	}
	per := rows / groups
	rng := xrand.New(0xc5f)
	buf := make([]byte, 0, 32*rows)
	buf = append(buf, "group,value,x,t\n"...)
	for i := 0; i < rows; i++ {
		g, j := i/per, i%per
		if interleaved {
			g, j = i%groups, i/groups
		}
		buf = fmt.Appendf(buf, "g%02d,", g)
		buf = strconv.AppendFloat(buf, float64(rng.Intn(10_000))/100, 'f', 2, 64)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(rng.Intn(1000)), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(j), 10)
		buf = append(buf, '\n')
	}
	return buf
}

// TestBenchCSVIsSharded: the sharded parser serves both benchmark inputs
// itself, so BenchmarkReadCSV times it rather than a fallback to the
// sequential parser.
func TestBenchCSVIsSharded(t *testing.T) {
	for _, interleaved := range []bool{false, true} {
		if _, ok := readCSVSharded(benchCSV(interleaved), 2); !ok {
			t.Errorf("interleaved=%v: sharded parser fell back", interleaved)
		}
	}
}

// BenchmarkReadCSV measures CSV ingestion of a 300 000-row, four-column
// file with a header, group-contiguous and interleaved, sequential
// (workers=1), on two shards, and in auto mode (workers=0, every CPU).
func BenchmarkReadCSV(b *testing.B) {
	for _, layout := range []struct {
		name        string
		interleaved bool
	}{{"contiguous", false}, {"interleaved", true}} {
		payload := benchCSV(layout.interleaved)
		for _, workers := range []int{1, 2, 0} {
			b.Run(fmt.Sprintf("%s/workers=%d", layout.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(payload)))
				rows := 0
				for b.Loop() {
					tb, err := ReadCSVWorkers(bytes.NewReader(payload), workers)
					if err != nil {
						b.Fatal(err)
					}
					rows += tb.NumRows()
				}
				b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}
