package colcodec

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// roundTrip encodes vals, decodes the result, and requires bit-identical
// values and the expected codec choice (want < 0 skips the codec check).
func roundTrip(t *testing.T, vals []float64, want Codec) {
	t.Helper()
	blk, codec := EncodeBlock(nil, vals)
	if want != Codec(255) && codec != want {
		t.Fatalf("chose codec %s, want %s", codec.Name(), want.Name())
	}
	got, gotCodec, n, err := DecodeBlock(nil, blk)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotCodec != codec || n != len(blk) {
		t.Fatalf("decode reports codec %s over %d bytes; encode produced %s over %d", gotCodec.Name(), n, codec.Name(), len(blk))
	}
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("value %d: decoded %x, want %x (%v vs %v)", i, math.Float64bits(got[i]), math.Float64bits(vals[i]), got[i], vals[i])
		}
	}
}

const anyCodec = Codec(255)

func TestRoundTripInteger(t *testing.T) {
	rng := xrand.New(1)
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(rng.Intn(1440)) // flight-delay-like integer range
	}
	roundTrip(t, vals, CodecFOR)
}

func TestRoundTripDecimal(t *testing.T) {
	// %.4f-formatted values: the CSV round-trip shape datagen produces.
	rng := xrand.New(2)
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(rng.Intn(14_400_000)) / 10000
	}
	roundTrip(t, vals, CodecFOR)
}

func TestRoundTripSorted(t *testing.T) {
	// A near-sorted integer column: deltas are tiny, so Delta beats FOR.
	vals := make([]float64, 1000)
	rng := xrand.New(3)
	for i := range vals {
		vals[i] = float64(1_000_000 + 3*i + rng.Intn(3))
	}
	roundTrip(t, vals, CodecDelta)
}

func TestRoundTripDict(t *testing.T) {
	// Low cardinality with values no decimal scale can express exactly.
	alphabet := []float64{math.Pi, math.E, math.Sqrt2, math.Inf(1), math.NaN(), -0.0}
	rng := xrand.New(4)
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = alphabet[rng.Intn(len(alphabet))]
	}
	roundTrip(t, vals, CodecDict)
}

func TestRoundTripRaw(t *testing.T) {
	// Full-precision uniform floats: no scale fits, cardinality is high.
	rng := xrand.New(5)
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = 100 * rng.Float64()
	}
	roundTrip(t, vals, CodecRaw)
}

func TestRoundTripEdgeBlocks(t *testing.T) {
	cases := [][]float64{
		{0},
		{42.5},
		{math.NaN()},
		{-0.0, 0.0},
		{math.MaxFloat64, -math.MaxFloat64},
		{1e-308, 2.2250738585072014e-308}, // subnormal boundary
		make([]float64, 4096),             // all zeros
	}
	for _, vals := range cases {
		roundTrip(t, vals, anyCodec)
	}
}

func TestScaledAtExactness(t *testing.T) {
	// Values a decimal scale cannot express must be rejected, not
	// approximated.
	for _, v := range []float64{math.Pi, 1.0 / 3, 0.1 + 0.2, math.Nextafter(1, 2)} {
		for s := 0; s <= maxScale; s++ {
			if m, ok := scaledAt(v, s); ok {
				if got := float64(m) / pow10[s]; math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("scaledAt(%v, %d) accepted an inexact mapping m=%d", v, s, m)
				}
			}
		}
	}
	if _, ok := scaledAt(math.Copysign(0, -1), 0); ok {
		t.Fatal("scaledAt accepted -0.0, which integers cannot round-trip")
	}
	if _, ok := scaledAt(float64(1<<60), 0); ok {
		t.Fatal("scaledAt accepted a value beyond the 2^53 exact-integer range")
	}
}

// TestDecodeCorrupt flips, truncates, and rewrites encoded blocks; every
// mutation must produce a descriptive error, never a panic or silent
// success with wrong values.
func TestDecodeCorrupt(t *testing.T) {
	rng := xrand.New(6)
	forVals := make([]float64, 64)
	for i := range forVals {
		forVals[i] = float64(rng.Intn(1000)) // jumps both ways: range beats deltas
	}
	dictVals := make([]float64, 64)
	for i := range dictVals {
		dictVals[i] = []float64{math.Pi, math.E, math.Sqrt2}[rng.Intn(3)]
	}
	fixtures := map[string][]float64{
		"for":   forVals,
		"delta": {1000, 1001, 1003, 1004, 1010, 1011, 1012, 1013, 1014, 1015, 1016, 1017},
		"dict":  dictVals,
		"raw":   {rng.Float64(), rng.Float64(), rng.Float64()},
	}
	for name, vals := range fixtures {
		blk, codec := EncodeBlock(nil, vals)
		if codec.Name() != name {
			t.Fatalf("fixture %q encoded as %s", name, codec.Name())
		}
		t.Run(name, func(t *testing.T) {
			cases := []struct {
				name    string
				mutate  func(b []byte) []byte
				errWant string
			}{
				{"truncated-header", func(b []byte) []byte { return b[:HeaderSize-1] }, "truncated"},
				{"truncated-payload", func(b []byte) []byte { return b[:len(b)-1] }, "truncated"},
				{"unknown-codec", func(b []byte) []byte { b[0] = 200; return b }, "unknown codec"},
				{"zero-count", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:8], 0); return b }, "declares 0 values"},
				{"huge-count", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:8], 1<<31-1); return b }, "values"},
				{"payload-flip", func(b []byte) []byte { b[HeaderSize] ^= 0x40; return b }, "checksum mismatch"},
				{"crc-flip", func(b []byte) []byte { b[12] ^= 1; return b }, "checksum mismatch"},
			}
			for _, tc := range cases {
				b := tc.mutate(append([]byte(nil), blk...))
				_, _, _, err := DecodeBlock(nil, b)
				if err == nil {
					t.Fatalf("%s: corrupt block decoded without error", tc.name)
				}
				if !strings.Contains(err.Error(), tc.errWant) {
					t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.errWant)
				}
			}
		})
	}
}

// TestDecodeCraftedStructure rewrites payloads with a valid CRC but broken
// structure: the CRC passes, so the structural validators are the only
// defense.
func TestDecodeCraftedStructure(t *testing.T) {
	reseal := func(b []byte) []byte {
		payload := b[HeaderSize:]
		binary.LittleEndian.PutUint32(b[8:12], uint32(len(payload)))
		binary.LittleEndian.PutUint32(b[12:16], crc32.Checksum(payload, castagnoli))
		return b
	}
	blk, _ := EncodeBlock(nil, []float64{1, 2, 3, 700, 5, 6}) // FOR
	for _, tc := range []struct {
		name    string
		mutate  func(b []byte) []byte
		errWant string
	}{
		{"for-bad-scale", func(b []byte) []byte { b[HeaderSize] = 9; return reseal(b) }, "scale 9 out of range"},
		{"for-bad-width", func(b []byte) []byte { b[HeaderSize+1] = 60; return reseal(b) }, "width 60 out of range"},
		{"for-short-prologue", func(b []byte) []byte { return reseal(b[:HeaderSize+4]) }, "prologue"},
	} {
		b := tc.mutate(append([]byte(nil), blk...))
		_, _, _, err := DecodeBlock(nil, b)
		if err == nil || !strings.Contains(err.Error(), tc.errWant) {
			t.Fatalf("%s: got %v, want error mentioning %q", tc.name, err, tc.errWant)
		}
	}

	// Dict with an out-of-range packed index: 3 dictionary entries need
	// 2-bit indices, so a forged index 3 points past the dictionary.
	blk, codec := EncodeBlock(nil, []float64{math.Pi, math.E, math.Sqrt2, math.Pi, math.E, math.Sqrt2, math.Pi, math.E, math.Sqrt2, math.Pi})
	if codec != CodecDict {
		t.Fatalf("dict fixture encoded as %s", codec.Name())
	}
	b := append([]byte(nil), blk...)
	b[len(b)-1] = 0xFF // the trailing packed indices become 0b11 = 3
	b = reseal(b)
	if _, _, _, err := DecodeBlock(nil, b); err == nil {
		t.Fatal("dict block with out-of-range index decoded without error")
	}
}

// TestEncodeAppends verifies EncodeBlock extends dst in place so column
// writers can build multi-block buffers without copies.
func TestEncodeAppends(t *testing.T) {
	a, _ := EncodeBlock(nil, []float64{1, 2, 3})
	both, _ := EncodeBlock(append([]byte(nil), a...), []float64{4, 5, 6})
	if len(both) != 2*len(a) {
		t.Fatalf("appended encode is %d bytes, want %d", len(both), 2*len(a))
	}
	got, _, n, err := DecodeBlock(nil, both)
	if err != nil || len(got) != 3 || n != len(a) {
		t.Fatalf("first block: %v (%d values, %d bytes)", err, len(got), n)
	}
	got, _, _, err = DecodeBlock(got, both[n:])
	if err != nil || got[2] != 6 {
		t.Fatalf("second block: %v %v", err, got)
	}
}

// TestOpenRejectsOutOfDomain: FOR and Delta blocks whose scaled integers
// leave ±2^53 — which no encoder writes — fail Open and DecodeBlock alike,
// whether the frame base, a FOR field, or a Delta walk leaves the domain.
func TestOpenRejectsOutOfDomain(t *testing.T) {
	reseal := func(blk []byte) []byte {
		binary.LittleEndian.PutUint32(blk[12:16], crc32.Checksum(blk[HeaderSize:], castagnoli))
		return blk
	}
	setBase := func(blk []byte, base int64) []byte {
		binary.LittleEndian.PutUint64(blk[HeaderSize+2:], uint64(base))
		return reseal(blk)
	}
	forBlk, _ := encodeAs(CodecFOR, []float64{0, 3})        // width 2, fields 0 and 3
	deltaBlk, _ := encodeAs(CodecDelta, []float64{0, 1, 2}) // width 2, steps +1
	cases := []struct {
		name string
		blk  []byte
	}{
		{"for-base", setBase(append([]byte(nil), forBlk...), -maxScaled-1)},
		{"for-field", setBase(append([]byte(nil), forBlk...), maxScaled-2)},
		{"delta-first", setBase(append([]byte(nil), deltaBlk...), maxScaled+1)},
		{"delta-walk", setBase(append([]byte(nil), deltaBlk...), maxScaled-1)},
	}
	for _, tc := range cases {
		_, err := Open(tc.blk)
		_, _, _, derr := DecodeBlock(nil, tc.blk)
		if err == nil || !strings.Contains(err.Error(), "outside ±2^53") {
			t.Fatalf("%s: Open error %v, want an out-of-domain error", tc.name, err)
		}
		if derr == nil || derr.Error() != err.Error() {
			t.Fatalf("%s: DecodeBlock error %v, Open error %v", tc.name, derr, err)
		}
	}
	// The walk check runs only when the width cannot bound it: at the edge
	// of the domain a valid block still opens.
	ok := setBase(append([]byte(nil), deltaBlk...), maxScaled-2)
	if _, err := Open(ok); err != nil {
		t.Fatalf("delta block ending at 2^53: %v", err)
	}
}
