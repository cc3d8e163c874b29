package colcodec

import (
	"encoding/binary"
	"math"
)

// Op is a comparison operator of a value predicate, v op c.
type Op uint8

// Op values.
const (
	OpLT Op = iota // v < c
	OpLE           // v <= c
	OpGT           // v > c
	OpGE           // v >= c
	OpEQ           // v == c
	OpNE           // v != c
)

// Eval applies the comparison to one value with IEEE-754 semantics: a NaN
// on either side fails every operator except OpNE. Unknown operators are
// false.
func (op Op) Eval(v, c float64) bool {
	switch op {
	case OpLT:
		return v < c
	case OpLE:
		return v <= c
	case OpGT:
		return v > c
	case OpGE:
		return v >= c
	case OpEQ:
		return v == c
	case OpNE:
		return v != c
	}
	return false
}

// Cmp is one comparison, v Op C, of a conjunction.
type Cmp struct {
	Op Op
	C  float64
}

// Select writes the verdict of the conjunction conj — every comparison
// holds; an empty conjunction holds everywhere — for each of the block's
// values into words, 64 to a word: value i is bit i%64 of words[i/64], and
// the bits past Len() in the last word are zero. words must hold
// (Len()+63)/64 words. The verdicts equal Decode followed by Eval of every
// comparison on every value, but no value is materialised:
//
//   - FOR and Delta map each comparison once to an interval of scaled
//     integers and intersect them (selectScaled), so a range such as
//     lo ≤ v < hi is one pass over the packed fields;
//   - Dict evaluates the conjunction once per dictionary entry, then looks
//     each index up;
//   - Raw compares the stored values through SelectFloats' kernel.
func (b *Block) Select(conj []Cmp, words []uint64) {
	words = words[:(b.n+63)/64]
	switch b.codec {
	case CodecRaw:
		var buf [64]float64
		for wi := range words {
			vals := buf[:min(64, b.n-64*wi)]
			for j := range vals {
				vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(b.packed[8*(64*wi+j):]))
			}
			words[wi] = selectWord(conj, vals)
		}
	case CodecDict:
		var tab [maxDictSize]float64
		var lut [maxDictSize / 64]uint64
		card := len(b.dict) / 8
		for e := range card {
			tab[e] = b.entry(uint64(e))
		}
		SelectFloats(conj, tab[:card], lut[:])
		var idx [64]uint8
		for wi := range words {
			var w uint64
			for j, x := range b.indices(64*wi, &idx) {
				w |= (lut[x/64] >> (x % 64) & 1) << j
			}
			words[wi] = w
		}
	case CodecFOR, CodecDelta:
		b.selectScaled(conj, words)
	}
}

// selectScaled is Select on FOR and Delta blocks. The conjunction becomes
// one interval [lo, hi) of scaled integers less the holes OpNE cuts (NaN
// constants land in either, per scaledInterval). Each run of 64 fields,
// 8·w bytes from a byte boundary, takes one kernel call; the last runs
// read through a copy, whose stale bytes feed only fields the mask drops.
func (b *Block) selectScaled(conj []Cmp, words []uint64) {
	lo, hi := int64(-maxScaled), int64(maxScaled+1)
	var holes [][2]int64
	for _, cmp := range conj {
		if l, h, neg := scaledInterval(cmp.Op, cmp.C, b.scale); neg {
			holes = append(holes, [2]int64{l, h})
		} else {
			lo, hi = max(lo, l), min(hi, h)
		}
	}
	span := uint64(max(hi-lo, 0))
	kernel := deltaRun
	if b.codec == CodecFOR {
		kernel = forRun
	}
	var tail [runBuf]byte
	run, acc := 8*int(b.w), int64(0)
	for wi := range words {
		src := b.packed[min(run*wi, len(b.packed)):]
		if len(src) < runBuf {
			copy(tail[:], src)
			src = tail[:]
		}
		p := (*[runBuf]byte)(src)
		w, next := kernel(p, b.w, acc, lo-b.base, span)
		for _, h := range holes {
			out, _ := kernel(p, b.w, acc, h[0]-b.base, uint64(h[1]-h[0]))
			w &^= out
		}
		if r := b.n - 64*wi; r < 64 {
			w &= 1<<r - 1
		}
		words[wi], acc = w, next
	}
}

// runBuf bounds a kernel's reads, ≤ 8·maxPackWidth bytes of run and a
// word: loads at offsets masked to 9 bits are proven in bounds.
const runBuf = 512 + 8

// forRun returns the verdicts lo ≤ f < lo+span (f − lo < span unsigned)
// on the 64 w-bit fields f = m − base packed from p[0], field j in bit j,
// and acc unchanged. Open proved every m within ±2^53: nothing overflows.
func forRun(p *[runBuf]byte, w uint, acc, lo int64, span uint64) (uint64, int64) {
	mask := uint64(1)<<(w&63) - 1
	var word uint64
	for j, bit := 0, uint(0); j < 64; j, bit = j+1, bit+w {
		k := bit >> 3 & 511
		f := int64(binary.LittleEndian.Uint64(p[k:k+8:k+8]) >> (bit & 7) & mask)
		word = word>>1 | b2u(uint64(f-lo) < span)<<63
	}
	return word, acc
}

// deltaRun is forRun on Delta's running sum acc = m − base, each verdict
// taken before its zigzagged field is added, and returns the sum after.
func deltaRun(p *[runBuf]byte, w uint, acc, lo int64, span uint64) (uint64, int64) {
	mask := uint64(1)<<(w&63) - 1
	var word uint64
	for j, bit := 0, uint(0); j < 64; j, bit = j+1, bit+w {
		k := bit >> 3 & 511
		word = word>>1 | b2u(uint64(acc-lo) < span)<<63
		acc += unzigzag(binary.LittleEndian.Uint64(p[k:k+8:k+8]) >> (bit & 7) & mask)
	}
	return word, acc
}

func b2u(ok bool) uint64 {
	if ok {
		return 1
	}
	return 0
}

// scaledInterval maps v op c, for v = float64(m)/10^s decoded from a scaled
// integer m in [-2^53, 2^53], to m ∈ [lo, hi), complemented when neg. The
// decode is monotone in m (int64→float64 conversion and division by a
// positive constant both round monotonically), so {m : v ≥ c} and
// {m : v > c} are upward-closed, and their least members — found by
// binary search over the very decode expression — delimit every operator.
// A NaN constant fails every operator but OpNE, which it passes.
func scaledInterval(op Op, c float64, s int) (lo, hi int64, neg bool) {
	const all0, all1 = -maxScaled, maxScaled + 1
	if c != c {
		return all0, all1, op != OpNE
	}
	ge := firstScaled(c, s, false) // least m with v >= c
	gt := firstScaled(c, s, true)  // least m with v > c
	switch op {
	case OpLT:
		return all0, ge, false
	case OpLE:
		return all0, gt, false
	case OpGT:
		return gt, all1, false
	case OpGE:
		return ge, all1, false
	case OpEQ:
		return ge, gt, false
	case OpNE:
		return ge, gt, true
	}
	return all0, all1, true
}

// firstScaled returns the least m in [-2^53, 2^53] with
// float64(m)/10^s > c (strict) or ≥ c, or 2^53+1 when there is none.
func firstScaled(c float64, s int, strict bool) int64 {
	lo, hi := int64(-maxScaled), int64(maxScaled+1)
	for lo < hi {
		mid := (lo + hi) >> 1
		if v := float64(mid) / pow10[s]; v > c || !strict && v == c {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// SelectFloats writes the verdict of the conjunction conj for each value
// of vals into words, in Block.Select's layout: flat in-memory columns and
// Raw blocks share this kernel.
func SelectFloats(conj []Cmp, vals []float64, words []uint64) {
	for wi := range (len(vals) + 63) / 64 {
		words[wi] = selectWord(conj, vals[64*wi:min(len(vals), 64*wi+64)])
	}
}

// selectWord packs the conjunction's verdicts on ≤ 64 values into a word.
func selectWord(conj []Cmp, vals []float64) uint64 {
	w := uint64(1)<<len(vals) - 1
	for _, cmp := range conj {
		w &= cmpWord(cmp.Op, cmp.C, vals)
	}
	return w
}

// cmpWord packs the verdicts of v op c on up to 64 values into one word.
func cmpWord(op Op, c float64, vals []float64) uint64 {
	var w uint64
	switch op {
	case OpLT:
		for j, v := range vals {
			w |= b2u(v < c) << j
		}
	case OpLE:
		for j, v := range vals {
			w |= b2u(v <= c) << j
		}
	case OpGT:
		for j, v := range vals {
			w |= b2u(v > c) << j
		}
	case OpGE:
		for j, v := range vals {
			w |= b2u(v >= c) << j
		}
	case OpEQ:
		for j, v := range vals {
			w |= b2u(v == c) << j
		}
	case OpNE:
		for j, v := range vals {
			w |= b2u(v != c) << j
		}
	}
	return w
}
