package dataset

import "testing"

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
		"unfiltered":        tab.Groups()[0],
		"bitmap-dense":      denseView.Groups()[0],
		"indexslice-sparse": sparseView.Groups()[0],
	}
	for _, mode := range []string{"unfiltered", "bitmap-dense", "indexslice-sparse"} {
		s := NewStreamSampler(NewUniverse(1, groups[mode]), 1, false)
		b.Run(mode, func(b *testing.B) {
			buf := make([]float64, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.DrawBatch(0, buf)
			}
			b.SetBytes(int64(len(buf) * 8))
			b.ReportMetric(float64(b.N*len(buf))/b.Elapsed().Seconds(), "draws/sec")
		})
		s.Release()
	}
}
