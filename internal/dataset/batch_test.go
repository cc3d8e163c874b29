package dataset

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// TestSliceGroupDrawBatchMatchesScalar: the block with-replacement path
// must replay exactly the stream the scalar path produces from the same
// seed.
func TestSliceGroupDrawBatchMatchesScalar(t *testing.T) {
	vals := make([]float64, 257)
	for i := range vals {
		vals[i] = float64(i)
	}
	scalar := NewSliceGroup("s", vals)
	block := NewSliceGroup("b", vals)
	r1, r2 := xrand.New(9), xrand.New(9)
	want := make([]float64, 100)
	for i := range want {
		want[i] = scalar.Draw(r1)
	}
	got := make([]float64, 100)
	block.DrawBatch(r2, got[:37])
	block.DrawBatch(r2, got[37:])
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d: block %v, scalar %v", i, got[i], want[i])
		}
	}
}

// TestSliceGroupBatchWithoutReplacementMatchesScalar: the block
// permutation path must consume the identical Fisher–Yates stream.
func TestSliceGroupBatchWithoutReplacementMatchesScalar(t *testing.T) {
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	scalar := NewSliceGroup("s", vals)
	block := NewSliceGroup("b", vals)
	r1, r2 := xrand.New(4), xrand.New(4)
	var want []float64
	for {
		v, ok := scalar.DrawWithoutReplacement(r1)
		if !ok {
			break
		}
		want = append(want, v)
	}
	got := make([]float64, 0, len(vals))
	buf := make([]float64, 17)
	for {
		n := block.DrawBatchWithoutReplacement(r2, buf)
		got = append(got, buf[:n]...)
		if n < len(buf) {
			break
		}
	}
	if len(got) != len(want) {
		t.Fatalf("block consumed %d values, scalar %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("permutation element %d: block %v, scalar %v", i, got[i], want[i])
		}
	}
}

// TestDistGroupDrawBatchMatchesScalar covers every bulk fast path plus the
// generic fallback.
func TestDistGroupDrawBatchMatchesScalar(t *testing.T) {
	dists := map[string]xrand.Dist{
		"uniform":   xrand.Uniform{Lo: 5, Hi: 25},
		"bernoulli": xrand.Bernoulli{Lo: 0, Hi: 100, P: 0.3},
		"point":     xrand.Point(7),
		"truncnorm": xrand.TruncNormal{Mu: 50, Sigma: 10, Lo: 0, Hi: 100},
		"mixture": xrand.NewMixture(
			[]xrand.Dist{xrand.Uniform{Lo: 0, Hi: 10}, xrand.Point(50)},
			[]float64{1, 2}),
	}
	for name, d := range dists {
		t.Run(name, func(t *testing.T) {
			g := NewDistGroup("g", d, 1000)
			r1, r2 := xrand.New(11), xrand.New(11)
			want := make([]float64, 64)
			for i := range want {
				want[i] = d.Sample(r1)
			}
			got := make([]float64, 64)
			g.DrawBatch(r2, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("draw %d: block %v, scalar %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestSamplerDrawBatchMatchesScalar: block and scalar accounting produce
// the same stream, counts, and totals in both sampling modes.
func TestSamplerDrawBatchMatchesScalar(t *testing.T) {
	for _, without := range []bool{false, true} {
		vals := make([]float64, 500)
		for i := range vals {
			vals[i] = float64(i)
		}
		mk := func() *Universe {
			return NewUniverse(500,
				NewSliceGroup("a", append([]float64(nil), vals...)),
				NewSliceGroup("b", append([]float64(nil), vals...)))
		}
		s1 := NewStreamSampler(mk(), 21, without)
		s2 := NewStreamSampler(mk(), 21, without)
		want := make([]float64, 90)
		for i := range want {
			want[i] = s1.Draw(i % 2)
		}
		got := make([]float64, 90)
		buf := make([]float64, 1)
		for i := range got {
			// Alternate groups exactly as the scalar loop did, one-sample
			// blocks so the interleaving matches.
			s2.DrawBatch(i%2, buf)
			got[i] = buf[0]
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("without=%v draw %d: block %v, scalar %v", without, i, got[i], want[i])
			}
		}
		if s1.Total() != s2.Total() || s1.Count(0) != s2.Count(0) || s1.Count(1) != s2.Count(1) {
			t.Fatalf("accounting diverged: %d/%v vs %d/%v", s1.Total(), s1.Counts(), s2.Total(), s2.Counts())
		}
	}
}

// TestSamplerDrawBatchExhaustionFallback: a block larger than the
// remaining population falls back to with-replacement for the tail, like
// repeated scalar draws, and records the exhaustion.
func TestSamplerDrawBatchExhaustionFallback(t *testing.T) {
	u := NewUniverse(10, NewSliceGroup("a", []float64{1, 2, 3, 4, 5}))
	s := NewStreamSampler(u, 3, true)
	dst := make([]float64, 9)
	s.DrawBatch(0, dst)
	if !s.Exhausted(0) {
		t.Fatal("exhaustion not recorded")
	}
	if s.Count(0) != 9 || s.Total() != 9 {
		t.Fatalf("accounting wrong: count=%d total=%d", s.Count(0), s.Total())
	}
	seen := map[float64]int{}
	for _, v := range dst[:5] {
		seen[v]++
	}
	if len(seen) != 5 {
		t.Fatalf("first 5 draws should be the full population, got %v", dst[:5])
	}
	for _, v := range dst[5:] {
		if v < 1 || v > 5 {
			t.Fatalf("fallback draw %v outside population", v)
		}
	}
}

// TestSamplerResetsDrawStateAcrossRuns is the regression test for the
// reuse bug: a second sampler over the same universe must start a fresh
// permutation instead of continuing (or exhausting) the previous run's.
func TestSamplerResetsDrawStateAcrossRuns(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	u := NewUniverse(100, NewSliceGroup("a", vals))

	s1 := NewStreamSampler(u, 1, true)
	for i := 0; i < len(vals); i++ {
		s1.Draw(0) // exhaust the permutation completely
	}
	if s1.Exhausted(0) {
		t.Fatal("first run should consume exactly the population")
	}

	// Before the fix, every draw of the second run fell back to
	// with-replacement sampling (duplicates, Exhausted set). After it, the
	// run consumes a fresh full permutation: every value exactly once.
	s2 := NewStreamSampler(u, 2, true)
	seen := map[float64]int{}
	for i := 0; i < len(vals); i++ {
		seen[s2.Draw(0)]++
	}
	if s2.Exhausted(0) {
		t.Fatal("second run exhausted: draw state leaked from the first run")
	}
	if len(seen) != len(vals) {
		t.Fatalf("second run saw %d distinct values, want %d (permutation not fresh)", len(seen), len(vals))
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %v drawn %d times in a without-replacement pass", v, n)
		}
	}
}

// TestResetDrawsUniformity: the O(1) reset (keeping the permutation array)
// must still produce uniform first draws across repeated resets.
func TestResetDrawsUniformity(t *testing.T) {
	vals := []float64{0, 1, 2, 3}
	g := NewSliceGroup("a", vals)
	r := xrand.New(99)
	counts := make([]int, len(vals))
	const reps = 40_000
	for rep := 0; rep < reps; rep++ {
		// Consume a couple of elements, then reset mid-permutation.
		g.DrawWithoutReplacement(r)
		g.DrawWithoutReplacement(r)
		g.ResetDraws()
		v, _ := g.DrawWithoutReplacement(r)
		counts[int(v)]++
		g.ResetDraws()
	}
	want := float64(reps) / float64(len(vals))
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("value %d drawn %d times, want ~%.0f: reset is biased", v, c, want)
		}
	}
}
