package colcodec

import (
	"encoding/binary"
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
// does; on success, every op × constant's Select verdicts must equal the
// decoded values compared one by one, tail bits clear, and SelectFloats
// over the decoded values must agree word for word.
func checkSelect(t *testing.T, blk []byte, consts []float64) {
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
	for op := OpLT; op <= OpNE; op++ {
		for _, c := range consts {
			for i := range words {
				words[i] = ^uint64(0) // Select must overwrite, not OR
			}
			b.Select(op, c, words)
			for i, v := range vals {
				if got, want := words[i/64]>>(i%64)&1 == 1, op.Eval(v, c); got != want {
					t.Fatalf("%s block, value %d (%v %x) op %d c %v (%x): Select %v, decode-then-compare %v",
						b.Codec().Name(), i, v, math.Float64bits(v), op, c, math.Float64bits(c), got, want)
				}
			}
			if r := len(vals) % 64; r != 0 && words[nw-1]>>r != 0 {
				t.Fatalf("%s block op %d c %v: bits set past the block's %d values", b.Codec().Name(), op, c, len(vals))
			}
			SelectFloats(op, c, vals, flat)
			for i := range words {
				if words[i] != flat[i] {
					t.Fatalf("%s block op %d c %v word %d: Select %x, SelectFloats %x", b.Codec().Name(), op, c, i, words[i], flat[i])
				}
			}
		}
	}
}

// FuzzSelectMatchesDecode: for every codec that can hold the fuzzed values,
// Block.Select's verdicts under all six operators equal decode-then-compare,
// for constants at, next to, and far from the stored values (NaN, ±0 and
// ±Inf included). A corrupted-then-resealed copy must fail Open exactly as
// it fails DecodeBlock, or, if it still opens, select as it decodes.
func FuzzSelectMatchesDecode(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1, 2, 3, 700, 5, 6), uint64(0x4008000000000000), uint16(1), uint16(0), uint8(0))
	f.Add(seed(0.0001, 0.0002, 0.0003, 0.1234), math.Float64bits(0.0002), uint16(2), uint16(3), uint8(1))
	f.Add(seed(1000, 1001, 1002, 1003, 1004, 1005), math.Float64bits(1002.5), uint16(0), uint16(9), uint8(0x80))
	f.Add(seed(math.NaN(), math.Inf(1), -0.0, 0.0, math.Inf(-1), math.NaN()), math.Float64bits(0), uint16(3), uint16(0), uint8(0))
	f.Add(seed(math.Pi, math.E, math.Pi, -0.0, math.Pi, math.E), math.Float64bits(math.Pi), uint16(5), uint16(1), uint8(4))
	f.Add(seed(0.1234567890123, 7.5e300, -2.5e-300, math.Inf(1)), math.Float64bits(math.Inf(1)), uint16(1), uint16(0), uint8(0))
	f.Add(seed(-9007199254740992, 9007199254740992, 0), math.Float64bits(9007199254740991), uint16(1), uint16(0), uint8(0))
	f.Add(seed(-3.25, -3.5, 2.75, -0.125), math.Float64bits(-3.25), uint16(0), uint16(2), uint8(0xff))
	f.Fuzz(func(t *testing.T, data []byte, cbits uint64, pick uint16, pos uint16, xor uint8) {
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
		for codec := CodecRaw; codec < numCodecs; codec++ {
			if blk, ok := encodeAs(codec, vals); ok {
				checkSelect(t, blk, consts)
			}
		}
		blk, _ := EncodeBlock(nil, vals)
		p := HeaderSize + int(pos)%(len(blk)-HeaderSize)
		blk[p] ^= xor
		payload := blk[HeaderSize:]
		binary.LittleEndian.PutUint32(blk[12:16], crc32.Checksum(payload, castagnoli))
		checkSelect(t, blk, consts)
	})
}
