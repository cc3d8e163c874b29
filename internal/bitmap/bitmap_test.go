package bitmap

import (
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestBitmapSetGetClear(t *testing.T) {
	b := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.Get(i) {
			t.Fatalf("fresh bit %d set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != 8 {
		t.Fatalf("count %d", b.Count())
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 7 {
		t.Fatal("clear failed")
	}
}

func TestBitmapBoundsPanic(t *testing.T) {
	b := New(10)
	for _, fn := range []func(){
		func() { b.Set(10) },
		func() { b.Get(-1) },
		func() { b.Clear(11) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSelectRankInverse(t *testing.T) {
	// Property: over a random bitmap, Select(Rank(pos)) == pos for every
	// set position, and Select enumerates set bits in order.
	r := xrand.New(1)
	check := func(nRaw uint16, density uint8) bool {
		n := 1 + int(nRaw%5000)
		b := New(n)
		p := 0.02 + float64(density%200)/250
		var setPos []int
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				b.Set(i)
				setPos = append(setPos, i)
			}
		}
		if b.Count() != len(setPos) {
			return false
		}
		for rank, pos := range setPos {
			got, err := b.Select(rank)
			if err != nil || got != pos {
				return false
			}
			if b.Rank(pos) != rank {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectOutOfRange(t *testing.T) {
	b := New(100)
	b.Set(50)
	if _, err := b.Select(1); err == nil {
		t.Fatal("rank past count accepted")
	}
	if _, err := b.Select(-1); err == nil {
		t.Fatal("negative rank accepted")
	}
	if pos, err := b.Select(0); err != nil || pos != 50 {
		t.Fatalf("select(0) = %d, %v", pos, err)
	}
}

func TestSelectAfterMutation(t *testing.T) {
	// The lazy index must invalidate on writes.
	b := New(1000)
	b.Set(10)
	if pos, _ := b.Select(0); pos != 10 {
		t.Fatal("select before mutation wrong")
	}
	b.Set(5)
	if pos, _ := b.Select(0); pos != 5 {
		t.Fatal("index not invalidated by Set")
	}
	b.Clear(5)
	if pos, _ := b.Select(0); pos != 10 {
		t.Fatal("index not invalidated by Clear")
	}
}

func TestBitmapOps(t *testing.T) {
	n := 300
	a, b := New(n), New(n)
	for i := 0; i < n; i += 2 {
		a.Set(i)
	}
	for i := 0; i < n; i += 3 {
		b.Set(i)
	}
	and := a.And(b)
	or := a.Or(b)
	andNot := a.AndNot(b)
	not := a.Not()
	for i := 0; i < n; i++ {
		even, third := i%2 == 0, i%3 == 0
		if and.Get(i) != (even && third) {
			t.Fatalf("and bit %d", i)
		}
		if or.Get(i) != (even || third) {
			t.Fatalf("or bit %d", i)
		}
		if andNot.Get(i) != (even && !third) {
			t.Fatalf("andnot bit %d", i)
		}
		if not.Get(i) != !even {
			t.Fatalf("not bit %d", i)
		}
	}
	// Not must not set phantom bits past n.
	if not.Count() != n/2 {
		t.Fatalf("not count %d, want %d", not.Count(), n/2)
	}
}

func TestBitmapOpsLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	New(10).And(New(20))
}

func TestForEachOrderAndStop(t *testing.T) {
	b := New(500)
	want := []int{3, 64, 65, 130, 499}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(pos int) bool {
		got = append(got, pos)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order wrong: %v", got)
		}
	}
	// Early stop.
	count := 0
	b.ForEach(func(pos int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("stop ignored: %d", count)
	}
}

func TestSelectUniformSampling(t *testing.T) {
	// Sampling via Select(rand(count)) must be uniform over set bits —
	// the property random tuple retrieval depends on.
	b := New(1000)
	positions := []int{10, 200, 333, 512, 900}
	for _, p := range positions {
		b.Set(p)
	}
	r := xrand.New(5)
	counts := map[int]int{}
	const n = 50_000
	for i := 0; i < n; i++ {
		pos, err := b.Select(r.Intn(b.Count()))
		if err != nil {
			t.Fatal(err)
		}
		counts[pos]++
	}
	for _, p := range positions {
		frac := float64(counts[p]) / n
		if frac < 0.17 || frac > 0.23 {
			t.Fatalf("position %d drawn %v of the time, want ~0.2", p, frac)
		}
	}
}

func TestSelectInWordMatchesNaive(t *testing.T) {
	// The binary-descent selectInWord must agree with the obvious
	// clear-lowest-bit definition for every rank of random words,
	// including the all-ones and single-bit extremes.
	naive := func(w uint64, rank int) int {
		for i := 0; i < rank; i++ {
			w &= w - 1
		}
		return bits.TrailingZeros64(w)
	}
	r := xrand.New(7)
	words := []uint64{^uint64(0), 1, 1 << 63, 0x8000000000000001}
	for i := 0; i < 500; i++ {
		words = append(words, r.Uint64())
	}
	for _, w := range words {
		for rank := 0; rank < bits.OnesCount64(w); rank++ {
			if got, want := selectInWord(w, rank), naive(w, rank); got != want {
				t.Fatalf("selectInWord(%#x, %d) = %d, want %d", w, rank, got, want)
			}
		}
	}
}

func TestSelectRankDense(t *testing.T) {
	// A fully dense bitmap is the worst case the word-scan select paid
	// for: every select must still land exactly, across superblock and
	// word boundaries.
	n := 3*64*selectBlockWords + 17
	b := New(n)
	for i := 0; i < n; i++ {
		b.Set(i)
	}
	for _, rank := range []int{0, 1, 63, 64, 4095, 4096, 8191, 8192, n - 1} {
		pos, err := b.Select(rank)
		if err != nil || pos != rank {
			t.Fatalf("dense Select(%d) = %d, %v", rank, pos, err)
		}
		if b.Rank(rank) != rank {
			t.Fatalf("dense Rank(%d) = %d", rank, b.Rank(rank))
		}
	}
}

// TestOrWords checks OrWords against a bit-by-bit reference for every
// source offset within a word, destination offsets on and off word
// boundaries, and lengths that stay inside one word or cross several: the
// range's bits are ORed in, bits already set stay set, and nothing outside
// the range changes.
func TestOrWords(t *testing.T) {
	rng := xrand.New(41)
	src := make([]uint64, 6)
	for i := range src {
		src[i] = rng.Uint64()
	}
	srcBit := func(i int) bool { return src[i/64]>>(i%64)&1 == 1 }
	const size = 300
	for sb := 0; sb < 64; sb++ {
		for _, dst := range []int{0, 1, 31, 63, 64, 65, 127, 130} {
			for _, n := range []int{0, 1, 2, 33, 63, 64, 65, 127, 128, 129, 150} {
				if sb+n > 64*len(src) || dst+n > size {
					continue
				}
				b := New(size)
				for i := 0; i < size; i += 7 { // pre-existing bits survive
					b.Set(i)
				}
				want := make([]bool, size)
				for i := range want {
					want[i] = b.Get(i)
				}
				for i := 0; i < n; i++ {
					want[dst+i] = want[dst+i] || srcBit(sb+i)
				}
				b.OrWords(dst, src, sb, n)
				count := 0
				for i, w := range want {
					if b.Get(i) != w {
						t.Fatalf("srcBit %d dst %d n %d: bit %d = %v, want %v", sb, dst, n, i, b.Get(i), w)
					}
					if w {
						count++
					}
				}
				if b.Count() != count {
					t.Fatalf("srcBit %d dst %d n %d: Count %d, want %d", sb, dst, n, b.Count(), count)
				}
			}
		}
	}
}
