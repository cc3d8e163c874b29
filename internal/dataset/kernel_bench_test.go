package dataset

import (
	"fmt"
	"testing"
)

// BenchmarkBlockDraw measures the draw pipeline alone, the way a query
// meets it: the group set per iteration, a stream sampler, up to 16384
// samples of one group (half the population on small selections, so the
// with-replacement top-up stays out of the numbers) in blocks of batch,
// then the release that recycles the draw state. Two things should be
// readable from `go test -bench BlockDraw` without the full harness:
// ns/sample falls from batch 1 to 4096 once the column exceeds the cache
// (rows=3M; at rows=32Ki every load hits L2 and there is little to
// overlap), and B/op is O(batch) — not 4 B × rows — after the first
// iteration has stocked the pool.
func BenchmarkBlockDraw(b *testing.B) {
	for _, rows := range []int{32 << 10, 3_000_000} {
		builder := NewTableBuilderColumns("v", "x")
		for i := 0; i < rows; i++ {
			if err := builder.AddRow("g", float64(i%1000), float64(i%64)); err != nil {
				b.Fatal(err)
			}
		}
		tab, err := builder.Build()
		if err != nil {
			b.Fatal(err)
		}
		filter := func(below float64) func() []Group {
			v, err := tab.Filter(Predicate{Column: "x", Op: OpLT, Value: below})
			if err != nil {
				b.Fatal(err)
			}
			return v.View
		}
		backings := []struct {
			name string
			view func() []Group
		}{
			{"slice", tab.View},
			{"filtered-bitmap", filter(32)}, // keeps 1/2
			{"filtered-index", filter(1)},   // keeps 1/64
		}
		for _, bk := range backings {
			for _, without := range []bool{true, false} {
				for _, batch := range []int{1, 64, 4096} {
					mode := "WR"
					if without {
						mode = "WOR"
					}
					name := fmt.Sprintf("rows=%d/%s/%s/batch=%d", rows, bk.name, mode, batch)
					b.Run(name, func(b *testing.B) {
						benchBlockDraw(b, bk.view, without, batch)
					})
				}
			}
		}
	}
}

func benchBlockDraw(b *testing.B, view func() []Group, without bool, batch int) {
	samples := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u := NewUniverse(1000, view()...)
		s := NewStreamSampler(u, uint64(i), without)
		draws := min(16384, int(u.Groups[0].Size())/2)
		for left := draws; left > 0; {
			n := min(batch, left)
			if n == 1 {
				s.Draw(0)
			} else if _, ok := s.DrawBlockSum(0, n); !ok {
				b.Fatal("group has no block pipeline")
			}
			left -= n
		}
		s.Release()
		samples += draws
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
}
