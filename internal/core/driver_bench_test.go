package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/conc"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// benchUniverse is a 50-group × 1M-row slice universe of identically
// distributed groups (uniform on [0, 100)). Means differ only by sampling
// noise of the populations, so no interval ever separates within the
// benchmark's round cap and every run draws exactly its per-group budget —
// the fixed-work setup the throughput comparison needs. Built once
// (~400 MB plus permutation state) and shared across sub-benchmarks.
var benchUniverse = sync.OnceValue(func() *dataset.Universe {
	const (
		k    = 50
		rows = 1_000_000
	)
	r := xrand.New(0x5ca1e)
	groups := make([]dataset.Group, k)
	for g := range groups {
		values := make([]float64, rows)
		for i := range values {
			values[i] = 100 * r.Float64()
		}
		groups[g] = dataset.NewSliceGroup(fmt.Sprintf("g%02d", g), values)
	}
	return dataset.NewUniverse(100, groups...)
})

// BenchmarkIFocus measures end-to-end sampling throughput (samples/sec) of
// the IFOCUS round loop at increasing block sizes on the 50×1M universe.
// The acceptance bar for the batching refactor is ≥2× samples/sec at
// batch=64 over batch=1.
func BenchmarkIFocus(b *testing.B) {
	const perGroup = 20_000 // samples per group per run
	for _, batch := range []int{1, 64, 256, BatchAuto} {
		name := fmt.Sprintf("batch=%d", batch)
		if batch == BatchAuto {
			name = "batch=auto"
		}
		b.Run(name, func(b *testing.B) {
			u := benchUniverse()
			opts := DefaultOptions()
			opts.BatchSize = batch
			if batch == BatchAuto {
				// The doubling schedule reaches the per-group depth in
				// however many rounds its cumulative sum needs.
				for cum := 0; cum < perGroup; {
					opts.MaxRounds++
					cum += autoBatchSize(opts.MaxRounds)
				}
			} else {
				opts.MaxRounds = (perGroup + batch - 1) / batch
			}
			var total int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := IFocus(u, xrand.New(uint64(i)+1), opts)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Capped {
					b.Fatal("benchmark run separated early; fixed-work assumption broken")
				}
				total += res.TotalSamples
			}
			b.StopTimer()
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "samples/sec")
			b.ReportMetric(float64(total)/float64(b.N), "samples/op")
		})
	}
}

// BenchmarkIFocusParallel measures the parallel round driver: the same
// fixed-work IFOCUS run at batch=256 with the per-group block draws fanned
// across increasing worker counts. Results are bit-identical at every
// worker count (TestWorkerInvariance), so samples/sec is directly
// comparable across sub-benchmarks. The acceptance bar for the parallel driver is ≥3× samples/sec at
// workers=8 over workers=1 on 8+ core hardware.
func BenchmarkIFocusParallel(b *testing.B) {
	const (
		perGroup = 20_000
		batch    = 256
	)
	cases := []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=8", 8}, {"workers=auto", 0}}
	if n := runtime.NumCPU(); n != 1 && n != 8 {
		cases = append(cases, struct {
			name    string
			workers int
		}{fmt.Sprintf("workers=ncpu(%d)", n), n})
	}
	for _, tc := range cases {
		workers := tc.workers
		b.Run(tc.name, func(b *testing.B) {
			u := benchUniverse()
			opts := DefaultOptions()
			opts.BatchSize = batch
			opts.Workers = workers
			opts.MaxRounds = (perGroup + batch - 1) / batch
			var total int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := IFocus(u, xrand.New(uint64(i)+1), opts)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Capped {
					b.Fatal("benchmark run separated early; fixed-work assumption broken")
				}
				total += res.TotalSamples
			}
			b.StopTimer()
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "samples/sec")
			b.ReportMetric(float64(total)/float64(b.N), "samples/op")
		})
	}
}

// scalarPools holds, per rows-per-group size, the groups BenchmarkScalarRound
// draws from: 200 uniform [0, 100) slice groups, built once and shared by
// every sub-benchmark (a run resets the groups' draw state).
var scalarPools = sync.OnceValue(func() map[int][]dataset.Group {
	r := xrand.New(0x5ca1a)
	pools := make(map[int][]dataset.Group)
	for _, rows := range []int{4 << 10, 50 << 10} {
		groups := make([]dataset.Group, 200)
		for g := range groups {
			values := make([]float64, rows)
			for i := range values {
				values[i] = 100 * r.Float64()
			}
			groups[g] = dataset.NewSliceGroup(fmt.Sprintf("g%03d", g), values)
		}
		pools[rows] = groups
	}
	return pools
})

// BenchmarkScalarRound measures the paper's one-sample rounds (BatchSize=1,
// Workers=1): fixed-work IFOCUS runs over k identically distributed groups,
// whose draws go through Sampler.DrawEach one round at a time and whose
// settle sweep and radii run every round. ns/draw is the whole run divided
// by its samples.
func BenchmarkScalarRound(b *testing.B) {
	const rounds = 2000 // < 4 Ki, so no group runs out of rows
	for _, k := range []int{4, 20, 200} {
		for _, rows := range []int{4 << 10, 50 << 10} {
			for _, bound := range []conc.Kind{conc.KindHoeffding, conc.KindBernstein} {
				b.Run(fmt.Sprintf("k=%d/rows=%dKi/%s", k, rows>>10, bound), func(b *testing.B) {
					u := dataset.NewUniverse(100, scalarPools()[rows][:k]...)
					opts := DefaultOptions()
					opts.BatchSize = 1
					opts.Workers = 1
					opts.Bound = bound
					opts.MaxRounds = rounds
					var total int64
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := IFocus(u, xrand.New(uint64(i)+1), opts)
						if err != nil {
							b.Fatal(err)
						}
						if !res.Capped {
							b.Fatal("benchmark run separated early; fixed-work assumption broken")
						}
						total += res.TotalSamples
					}
					b.StopTimer()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/draw")
				})
			}
		}
	}
}

// BenchmarkIngestCSV measures sharded CSV ingestion throughput (rows/sec)
// at increasing worker counts over an in-memory payload.
func BenchmarkIngestCSV(b *testing.B) {
	payload := func() []byte {
		var sb strings.Builder
		r := xrand.New(0xc5f)
		for i := 0; i < 2_000_000; i++ {
			fmt.Fprintf(&sb, "g%02d,%.4f\n", i%50, 100*r.Float64())
		}
		return []byte(sb.String())
	}()
	counts := []int{1, 8}
	if n := runtime.NumCPU(); n != 1 && n != 8 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var rows int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb, err := dataset.ReadCSVWorkers(bytes.NewReader(payload), workers)
				if err != nil {
					b.Fatal(err)
				}
				rows += tb.NumRows()
			}
			b.StopTimer()
			b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}

// BenchmarkIFocusGrowth measures the geometric-block schedule at the same
// sampling depth.
func BenchmarkIFocusGrowth(b *testing.B) {
	u := benchUniverse()
	opts := DefaultOptions()
	opts.BatchSize = 64
	opts.RoundGrowth = 1.1
	// With growth the cumulative count multiplies by ~1.1 per round, so a
	// small round cap reaches the same ~20k/group depth.
	opts.MaxRounds = 62
	var total int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := IFocus(u, xrand.New(uint64(i)+1), opts)
		if err != nil {
			b.Fatal(err)
		}
		total += res.TotalSamples
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "samples/sec")
	b.ReportMetric(float64(total)/float64(b.N), "samples/op")
}
