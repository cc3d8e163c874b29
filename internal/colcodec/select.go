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

// Select writes the verdict of v op c for each of the block's values into
// words, 64 to a word: value i is bit i%64 of words[i/64], and the bits
// past Len() in the last word are zero. words must hold (Len()+63)/64
// words. The verdicts equal Decode followed by op.Eval on every value,
// but no value is materialised:
//
//   - FOR and Delta map (op, c) once to an interval of scaled integers,
//     then compare each packed integer against it;
//   - Dict evaluates the op once per dictionary entry, then looks each
//     index up;
//   - Raw compares the stored values through SelectFloats' kernel.
func (b *Block) Select(op Op, c float64, words []uint64) {
	words = words[:(b.n+63)/64]
	switch b.codec {
	case CodecRaw:
		var buf [64]float64
		for wi := range words {
			vals := buf[:min(64, b.n-64*wi)]
			for j := range vals {
				vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(b.packed[8*(64*wi+j):]))
			}
			words[wi] = selectWord(op, c, vals)
		}
	case CodecDict:
		var lut [maxDictSize / 64]uint64
		for e := 0; e < len(b.dict)/8; e++ {
			if op.Eval(b.entry(uint64(e)), c) {
				lut[e/64] |= 1 << (e % 64)
			}
		}
		var idx [64]uint8
		for wi := range words {
			var w uint64
			for j, x := range b.indices(64*wi, &idx) {
				w |= (lut[x/64] >> (x % 64) & 1) << j
			}
			words[wi] = w
		}
	case CodecFOR, CodecDelta:
		// Verdict: m - lo < span as unsigned, so values below lo wrap high.
		// Open proved every m within ±2^53, so nothing overflows.
		lo, hi, neg := scaledInterval(op, c, b.scale)
		span := uint64(hi - lo)
		m := b.base // Delta's running value
		for wi := range words {
			var w uint64
			for j, i := 0, 64*wi; j < 64 && i < b.n; j, i = j+1, i+1 {
				if b.codec == CodecFOR {
					m = b.base + int64(b.field(i))
				} else if i > 0 {
					m += unzigzag(b.field(i - 1))
				}
				w |= b2u(uint64(m-lo) < span) << j
			}
			if neg {
				w = ^w
				if r := b.n - 64*wi; r < 64 {
					w &= 1<<r - 1
				}
			}
			words[wi] = w
		}
	}
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

// SelectFloats writes the verdict of v op c for each value of vals into
// words, in Block.Select's layout: flat in-memory columns and Raw blocks
// share this kernel.
func SelectFloats(op Op, c float64, vals []float64, words []uint64) {
	for wi := range (len(vals) + 63) / 64 {
		words[wi] = selectWord(op, c, vals[64*wi:min(len(vals), 64*wi+64)])
	}
}

// selectWord packs the verdicts of up to 64 values into one word.
func selectWord(op Op, c float64, vals []float64) uint64 {
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
