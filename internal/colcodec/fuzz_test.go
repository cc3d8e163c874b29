package colcodec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"testing"
)

// bytesToVals reinterprets fuzz bytes as a float64 block (at least one
// value; at most a short block so the fuzzer iterates fast).
func bytesToVals(data []byte) []float64 {
	n := len(data) / 8
	if n == 0 {
		return nil
	}
	if n > 4096 {
		n = 4096
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return vals
}

// FuzzRoundTrip: whatever bit patterns the fuzzer invents, EncodeBlock →
// DecodeBlock must reproduce them exactly. This covers every codec — the
// chooser routes integer-looking inputs to FOR/Delta, repetitive ones to
// Dict, the rest to Raw.
func FuzzRoundTrip(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1, 2, 3, 4, 5))                             // FOR/Delta
	f.Add(seed(0.0001, 0.0002, 0.0003))                    // scaled decimal
	f.Add(seed(math.Pi, math.Pi, math.E, math.Pi, math.E)) // dict
	f.Add(seed(math.NaN(), math.Inf(1), -0.0))             // non-finite
	f.Add(seed(0.1234567890123, 7.5e300, -2.5e-300))       // raw
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := bytesToVals(data)
		if vals == nil {
			t.Skip()
		}
		blk, codec := EncodeBlock(nil, vals)
		got, gotCodec, n, err := DecodeBlock(nil, blk)
		if err != nil {
			t.Fatalf("decode of freshly encoded %s block failed: %v", codec.Name(), err)
		}
		if gotCodec != codec || n != len(blk) || len(got) != len(vals) {
			t.Fatalf("decode shape mismatch: codec %s/%s, %d/%d bytes, %d/%d values",
				gotCodec.Name(), codec.Name(), n, len(blk), len(got), len(vals))
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("%s codec: value %d round-tripped %x -> %x", codec.Name(), i,
					math.Float64bits(vals[i]), math.Float64bits(got[i]))
			}
		}
	})
}

// FuzzDecode: arbitrary bytes must never panic the decoder — they either
// decode (if they happen to be a valid block) or return an error.
func FuzzDecode(f *testing.F) {
	blk, _ := EncodeBlock(nil, []float64{1, 2, 3, 700})
	f.Add(blk)
	blk2, _ := EncodeBlock(nil, []float64{math.Pi, math.E, math.Pi, math.E, math.Pi, math.E, math.Pi, math.E})
	f.Add(blk2)
	blk3, _ := EncodeBlock(nil, []float64{0.5, 0.25, 0.125})
	f.Add(blk3)
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		dst, _, n, err := DecodeBlock(nil, data)
		if err == nil {
			if n < HeaderSize || n > len(data) {
				t.Fatalf("successful decode reports %d consumed bytes of %d", n, len(data))
			}
			if len(dst) == 0 {
				t.Fatal("successful decode produced no values")
			}
		}
	})
}

// FuzzDecodeResealed: corrupt the payload but fix up the checksum, so the
// structural validators (not the CRC) are what the fuzzer attacks.
func FuzzDecodeResealed(f *testing.F) {
	for _, vals := range [][]float64{
		{1, 2, 3, 700, 5, 6},
		{1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007},
		{math.Pi, math.E, math.Pi, math.E, math.Pi, math.E, math.Pi, math.E, math.Pi, math.E},
		{0.123456789, 0.987654321},
	} {
		blk, _ := EncodeBlock(nil, vals)
		f.Add(blk, uint8(0), uint16(0), uint8(0))
	}
	f.Fuzz(func(t *testing.T, blk []byte, codecByte uint8, pos uint16, xor uint8) {
		if len(blk) <= HeaderSize {
			t.Skip()
		}
		b := append([]byte(nil), blk...)
		b[0] = codecByte % uint8(numCodecs)
		p := HeaderSize + int(pos)%(len(b)-HeaderSize)
		b[p] ^= xor
		payload := b[HeaderSize:]
		if int(binary.LittleEndian.Uint32(b[8:12])) > len(payload) {
			binary.LittleEndian.PutUint32(b[8:12], uint32(len(payload)))
		}
		plen := int(binary.LittleEndian.Uint32(b[8:12]))
		binary.LittleEndian.PutUint32(b[12:16], crc32.Checksum(payload[:plen], castagnoli))
		DecodeBlock(nil, b) // must not panic; errors are expected
	})
}

// encodeAs encodes vals with the given codec, reporting false when the
// codec cannot represent them exactly.
func encodeAs(codec Codec, vals []float64) ([]byte, bool) {
	sc, scalable := scaledAnalysis(vals)
	switch codec {
	case CodecFOR, CodecDelta:
		if !scalable {
			return nil, false
		}
	case CodecDict:
		if _, ok := dictAnalysis(vals); !ok {
			return nil, false
		}
	}
	blk := make([]byte, HeaderSize)
	switch codec {
	case CodecFOR:
		blk = appendFOR(blk, vals, sc)
	case CodecDelta:
		blk = appendDelta(blk, vals, sc)
	case CodecDict:
		dict, _ := dictAnalysis(vals)
		blk = appendDict(blk, vals, dict)
	default:
		blk = appendRaw(blk, vals)
	}
	payload := blk[HeaderSize:]
	blk[0] = byte(codec)
	binary.LittleEndian.PutUint32(blk[4:8], uint32(len(vals)))
	binary.LittleEndian.PutUint32(blk[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(blk[12:16], crc32.Checksum(payload, castagnoli))
	return blk, true
}

// errText renders an error for comparison ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkSelect opens blk and requires Open to fail exactly as DecodeBlock
// does; on success, every conjunction's Select verdicts must equal the
// decoded values tested one by one against each of its comparisons, tail
// bits clear, and SelectFloats over the decoded values must agree word for
// word.
func checkSelect(t *testing.T, blk []byte, conjs [][]Cmp) {
	t.Helper()
	b, err := Open(blk)
	vals, _, _, derr := DecodeBlock(nil, blk)
	if errText(err) != errText(derr) {
		t.Fatalf("Open error %q, DecodeBlock error %q", errText(err), errText(derr))
	}
	if err != nil {
		return
	}
	nw := (len(vals) + 63) / 64
	words := make([]uint64, nw)
	flat := make([]uint64, nw)
	for _, conj := range conjs {
		for i := range words {
			words[i] = ^uint64(0) // Select must overwrite, not OR
		}
		b.Select(conj, words)
		for i, v := range vals {
			want := true
			for _, cmp := range conj {
				want = want && cmp.Op.Eval(v, cmp.C)
			}
			if got := words[i/64]>>(i%64)&1 == 1; got != want {
				t.Fatalf("%s block, value %d (%v %x) conjunction %v: Select %v, decode-then-compare %v",
					b.Codec().Name(), i, v, math.Float64bits(v), conj, got, want)
			}
		}
		if r := len(vals) % 64; r != 0 && words[nw-1]>>r != 0 {
			t.Fatalf("%s block conjunction %v: bits set past the block's %d values", b.Codec().Name(), conj, len(vals))
		}
		SelectFloats(conj, vals, flat)
		for i := range words {
			if words[i] != flat[i] {
				t.Fatalf("%s block conjunction %v word %d: Select %x, SelectFloats %x", b.Codec().Name(), conj, i, words[i], flat[i])
			}
		}
	}
}

// selectConjunctions returns the conjunctions FuzzSelectMatchesDecode
// checks over consts: every operator alone against every constant, every
// ordered operator pair against two neighbouring constants (ranges, empty
// intersections and OpNE holes among them), the empty conjunction, and one
// conjunction of 1–3 comparisons that shape picks, 8 bits a comparison.
func selectConjunctions(consts []float64, shape uint32) [][]Cmp {
	conjs := [][]Cmp{nil}
	for op := OpLT; op <= OpNE; op++ {
		for _, c := range consts {
			conjs = append(conjs, []Cmp{{op, c}})
		}
		for op2 := OpLT; op2 <= OpNE; op2++ {
			conjs = append(conjs, []Cmp{{op, consts[1]}, {op2, consts[2]}}, []Cmp{{op, consts[0]}, {op2, consts[3]}})
		}
	}
	var conj []Cmp
	for k := range 1 + shape%3 {
		x := shape >> (2 + 8*k)
		conj = append(conj, Cmp{Op(x % 6), consts[int(x/6%32)%len(consts)]})
	}
	return append(conjs, conj)
}

// FuzzSelectMatchesDecode: for every codec that can hold the fuzzed values,
// Block.Select's verdicts on conjunctions of one to three comparisons —
// every operator, OpNE holes, constants at, next to and far from the
// stored values (NaN, ±0 and ±Inf included) — equal decode-then-compare. A
// corrupted-then-resealed copy must fail Open exactly as it fails
// DecodeBlock, or, if it still opens, select as it decodes.
func FuzzSelectMatchesDecode(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1, 2, 3, 700, 5, 6), uint64(0x4008000000000000), uint16(1), uint16(0), uint8(0), uint32(0))
	f.Add(seed(0.0001, 0.0002, 0.0003, 0.1234), math.Float64bits(0.0002), uint16(2), uint16(3), uint8(1), uint32(0x0c_1e_02))
	f.Add(seed(1000, 1001, 1002, 1003, 1004, 1005), math.Float64bits(1002.5), uint16(0), uint16(9), uint8(0x80), uint32(0x14_0d_01))
	f.Add(seed(math.NaN(), math.Inf(1), -0.0, 0.0, math.Inf(-1), math.NaN()), math.Float64bits(0), uint16(3), uint16(0), uint8(0), uint32(0xd6_25_02))
	f.Add(seed(math.Pi, math.E, math.Pi, -0.0, math.Pi, math.E), math.Float64bits(math.Pi), uint16(5), uint16(1), uint8(4), uint32(0x15_16_01))
	f.Add(seed(0.1234567890123, 7.5e300, -2.5e-300, math.Inf(1)), math.Float64bits(math.Inf(1)), uint16(1), uint16(0), uint8(0), uint32(0x27_2a_02))
	f.Add(seed(-9007199254740992, 9007199254740992, 0), math.Float64bits(9007199254740991), uint16(1), uint16(0), uint8(0), uint32(0x3c_0f_02))
	f.Add(seed(-3.25, -3.5, 2.75, -0.125), math.Float64bits(-3.25), uint16(0), uint16(2), uint8(0xff), uint32(0x11_17_02))
	f.Fuzz(func(t *testing.T, data []byte, cbits uint64, pick uint16, pos uint16, xor uint8, shape uint32) {
		vals := bytesToVals(data)
		if vals == nil {
			t.Skip()
		}
		at := vals[int(pick)%len(vals)]
		consts := []float64{
			math.Float64frombits(cbits), at,
			math.Nextafter(at, math.Inf(1)), math.Nextafter(at, math.Inf(-1)),
			0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		}
		conjs := selectConjunctions(consts, shape)
		for codec := CodecRaw; codec < numCodecs; codec++ {
			if blk, ok := encodeAs(codec, vals); ok {
				checkSelect(t, blk, conjs)
			}
		}
		blk, _ := EncodeBlock(nil, vals)
		p := HeaderSize + int(pos)%(len(blk)-HeaderSize)
		blk[p] ^= xor
		payload := blk[HeaderSize:]
		binary.LittleEndian.PutUint32(blk[12:16], crc32.Checksum(payload, castagnoli))
		checkSelect(t, blk, conjs)
	})
}

// TestSelectLongBlocks runs FuzzSelectMatchesDecode's check on blocks
// longer than the fuzzer's inputs usually grow: several 64-value runs,
// ragged tails, and FOR/Delta widths from 0 to near the ±2^53 domain, so
// the run unpacking and its zero-padded last runs are exercised at every
// codec.
func TestSelectLongBlocks(t *testing.T) {
	r := uint64(0x5e1ec7)
	next := func() uint64 { // xorshift64
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return r
	}
	gens := map[string]func(i int) float64{
		"const":    func(int) float64 { return 42 },
		"narrow":   func(int) float64 { return float64(next() % 7) },
		"decimal":  func(int) float64 { return float64(int64(next()%200001)-100000) / 100 },
		"wide":     func(int) float64 { return float64(int64(next()>>11) - 1<<52) },
		"sorted":   func(i int) float64 { return float64(3*i) + float64(next()%3) },
		"dict":     func(int) float64 { return []float64{-1.5, 0, 2.25, math.Inf(1)}[next()%4] },
		"noise":    func(int) float64 { return math.Float64frombits(next()>>2 | 1<<62) },
		"negative": func(i int) float64 { return -float64(i+1) / 8 },
	}
	for name, gen := range gens {
		for _, n := range []int{1, 63, 64, 65, 129, 1000, 4096} {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = gen(i)
			}
			at := vals[n/2]
			consts := []float64{
				vals[n/3], at, math.Nextafter(at, math.Inf(1)), vals[(2*n)/3],
				0, math.Inf(1), math.Inf(-1), math.NaN(),
			}
			conjs := selectConjunctions(consts, uint32(n)*0x9e3779b9)
			for codec := CodecRaw; codec < numCodecs; codec++ {
				if blk, ok := encodeAs(codec, vals); ok {
					t.Run(fmt.Sprintf("%s/%d/%s", name, n, codec.Name()), func(t *testing.T) {
						checkSelect(t, blk, conjs)
					})
				}
			}
		}
	}
}
