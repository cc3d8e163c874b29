package dataset

import (
	"testing"

	"repro/internal/xrand"
)

// BenchmarkFilteredDraw compares draw throughput over one 1M-row group:
// unfiltered (the SliceGroup baseline), a dense selection (bitmap-backed,
// O(log n) select per draw), and a sparse selection (index-slice-backed,
// O(1) per draw).
func BenchmarkFilteredDraw(b *testing.B) {
	const n = 1 << 20
	builder := NewTableBuilder()
	for i := 0; i < n; i++ {
		builder.Add("g", float64(i%1000))
	}
	tab, err := builder.Build()
	if err != nil {
		b.Fatal(err)
	}

	denseView, err := tab.Filter(Predicate{Op: OpLT, Value: 500}) // keeps 1/2
	if err != nil {
		b.Fatal(err)
	}
	sparseView, err := tab.Filter(Predicate{Op: OpLT, Value: 20}) // keeps 1/50
	if err != nil {
		b.Fatal(err)
	}

	groups := map[string]Group{
		"unfiltered":        tab.View()[0],
		"bitmap-dense":      denseView.View()[0],
		"indexslice-sparse": sparseView.View()[0],
	}
	for _, mode := range []string{"unfiltered", "bitmap-dense", "indexslice-sparse"} {
		g := groups[mode].(BatchGroup)
		b.Run(mode, func(b *testing.B) {
			r := xrand.New(1)
			buf := make([]float64, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.DrawBatch(r, buf)
			}
			b.SetBytes(int64(len(buf) * 8))
			b.ReportMetric(float64(b.N*len(buf))/b.Elapsed().Seconds(), "draws/sec")
		})
	}
}
