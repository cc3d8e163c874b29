package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDistinctStreams(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical outputs from different seeds", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100_000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(8)
	sum := 0.0
	const n = 200_000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(9)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 30} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestInt64nUniform(t *testing.T) {
	// Chi-squared-style check over 10 buckets.
	r := New(10)
	const buckets, n = 10, 500_000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Int64n(buckets)]++
	}
	expect := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Fatalf("bucket %d count %d too far from %v", b, c, expect)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(12)
	check := func(n uint8) bool {
		if n == 0 {
			return true
		}
		p := r.Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(13)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	after := 0
	for _, v := range xs {
		after += v
	}
	if sum != after {
		t.Fatalf("shuffle changed contents: %v", xs)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(14)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical outputs between parent and child", same)
	}
}

// TestNewStreamPositional pins the property the parallel round driver
// depends on: a stream is a pure function of (base, idx) — deriving the
// same index twice, or in any order relative to its siblings, yields the
// identical generator.
func TestNewStreamPositional(t *testing.T) {
	forward := make([]uint64, 8)
	for i := range forward {
		forward[i] = NewStream(99, uint64(i)).Uint64()
	}
	for i := len(forward) - 1; i >= 0; i-- {
		if got := NewStream(99, uint64(i)).Uint64(); got != forward[i] {
			t.Fatalf("stream %d changed across derivation orders: %d vs %d", i, got, forward[i])
		}
	}
}

// TestNewStreamDistinct: distinct indices and distinct bases must yield
// distinct streams.
func TestNewStreamDistinct(t *testing.T) {
	seen := map[uint64]uint64{}
	for idx := uint64(0); idx < 1000; idx++ {
		v := NewStream(7, idx).Uint64()
		if prev, ok := seen[v]; ok {
			t.Fatalf("streams %d and %d collide on first output", prev, idx)
		}
		seen[v] = idx
	}
	if NewStream(1, 0).Uint64() == NewStream(2, 0).Uint64() {
		t.Fatal("same index under different bases produced the same stream")
	}
}

// TestNewStreamPairwiseIndependence: sibling streams should not track each
// other (catching e.g. a derivation that only offsets the state).
func TestNewStreamPairwiseIndependence(t *testing.T) {
	a := NewStream(3, 0)
	b := NewStream(3, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/1000 identical outputs between sibling streams", same)
	}
}

// TestNewStreamUniform: each stream is still a sound generator.
func TestNewStreamUniform(t *testing.T) {
	r := NewStream(12345, 42)
	const n = 200_000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("stream mean %v far from 0.5", mean)
	}
}
