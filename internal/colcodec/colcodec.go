// Package colcodec implements the per-block column compression used by the
// v2 segment format (DESIGN.md §14): fixed-size runs of float64 values are
// encoded independently with the cheapest of a small codec set, chosen per
// block at write time by encoded size. Decoding is lossless to the bit —
// every codec must reproduce the exact IEEE-754 bit pattern of every input
// value, because segment-backed draw streams are pinned bit-for-bit against
// their in-memory twins.
//
// Block layout (what EncodeBlock appends and DecodeBlock consumes):
//
//	[0]      codec id (CodecRaw … CodecDict)
//	[1:4)    zero padding
//	[4:8)    value count, uint32 LE
//	[8:12)   payload byte length, uint32 LE
//	[12:16)  CRC-32C (Castagnoli) of the payload, uint32 LE
//	[16:...) payload (codec-specific)
//
// Codecs:
//
//   - Raw: the float64 bit patterns, little-endian. Always applicable; the
//     fallback when nothing else wins.
//   - FOR (frame of reference): applicable when every value in the block is
//     a scaled decimal — v·10^s is an integer m with |m| ≤ 2^53 for some
//     shared scale s ≤ 6 and float64(m)/10^s reproduces v's bits exactly
//     (integer columns are the s = 0 case; datagen's %.4f CSV round trip is
//     s ≤ 4). Payload: scale, bit width, the minimum m as the frame base,
//     then (m−base) bit-packed.
//   - Delta: the same scaled-decimal domain, but consecutive differences
//     are zigzag-encoded and bit-packed — the winner on sorted and
//     near-sorted columns, where deltas are tiny even when the range is
//     wide.
//   - Dict: applicable when the block holds ≤ 256 distinct bit patterns
//     (low-cardinality columns, including non-finite values). Payload: the
//     dictionary in first-appearance order, then bit-packed indices.
//
// Open validates the header, the payload checksum, and every structural
// invariant (widths, counts, dictionary bounds, the ±2^53 scaled-integer
// domain) before anything reads the payload, so arbitrarily corrupt input
// yields a descriptive error, never a panic — the property the fuzz
// targets pin. The handle it returns decodes the block (DecodeBlock is
// Open plus Decode) or compares it in place: Select evaluates v op c for
// every value straight from the encoded bytes, 64 verdicts per word,
// without materialising a float.
package colcodec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Codec identifies one block encoding.
type Codec uint8

const (
	CodecRaw Codec = iota
	CodecFOR
	CodecDelta
	CodecDict

	numCodecs
)

// Name returns the codec's short name ("raw", "for", "delta", "dict").
func (c Codec) Name() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecFOR:
		return "for"
	case CodecDelta:
		return "delta"
	case CodecDict:
		return "dict"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

const (
	// HeaderSize is the fixed per-block header length.
	HeaderSize = 16

	// MaxBlockLen caps the values per block a decoder will accept; it
	// bounds the allocation a corrupt count field can demand.
	MaxBlockLen = 1 << 24

	// maxPackWidth bounds the bit width of any packed entry. The scaled
	// integers are confined to ±2^53, so FOR deltas need ≤ 55 bits and
	// zigzagged first-differences ≤ 56; a field read loads one 64-bit word
	// and starts up to 7 bits into it, so 57 is the most it can hold.
	maxPackWidth = 56

	// maxScale is the largest decimal scale the scaled-integer codecs try.
	maxScale = 6

	// maxScaled bounds |v·10^s|: above 2^53 float64(m) can round, breaking
	// the exactness proof.
	maxScaled = 1 << 53

	// maxDictSize is the dictionary codec's cardinality cap (indices are
	// stored in ≤ 8 bits).
	maxDictSize = 256
)

// castagnoli is the CRC-32C table; the same polynomial the segment format
// uses everywhere else.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// pow10 holds the exactly-representable powers of ten up to maxScale.
var pow10 = [maxScale + 1]float64{1, 10, 100, 1000, 10000, 100000, 1000000}

// EncodeBlock appends one encoded block holding vals to dst and returns the
// extended slice plus the codec chosen. The choice is by encoded size with
// a deterministic tie-break (FOR, Delta, Dict, Raw), so identical input
// always produces identical bytes.
func EncodeBlock(dst []byte, vals []float64) ([]byte, Codec) {
	if len(vals) == 0 || len(vals) > MaxBlockLen {
		panic(fmt.Sprintf("colcodec: block of %d values (want 1..%d)", len(vals), MaxBlockLen))
	}
	codec, payloadLen, sc, dict := chooseCodec(vals)
	dst = slices.Grow(dst, HeaderSize+payloadLen)
	start := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	switch codec {
	case CodecFOR:
		dst = appendFOR(dst, vals, sc)
	case CodecDelta:
		dst = appendDelta(dst, vals, sc)
	case CodecDict:
		dst = appendDict(dst, vals, dict)
	default:
		dst = appendRaw(dst, vals)
	}
	if dict != nil {
		putDictIndex(dict)
	}
	payload := dst[start+HeaderSize:]
	if len(payload) != payloadLen {
		panic(fmt.Sprintf("colcodec: %s encoder produced %d bytes, size estimate said %d", codec.Name(), len(payload), payloadLen))
	}
	h := dst[start : start+HeaderSize]
	h[0] = byte(codec)
	binary.LittleEndian.PutUint32(h[4:8], uint32(len(vals)))
	binary.LittleEndian.PutUint32(h[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[12:16], crc32.Checksum(payload, castagnoli))
	return dst, codec
}

// chooseCodec sizes every applicable codec and picks the smallest. It
// also returns the block's scaled-integer analysis and its dictionary
// index, which the FOR, Delta and Dict encoders reuse rather than redo.
func chooseCodec(vals []float64) (Codec, int, scaledInts, map[uint64]uint8) {
	best, bestLen := CodecRaw, rawSize(vals)
	sc, scalable := scaledAnalysis(vals)
	if scalable {
		if n := forSize(len(vals), sc.forW); n < bestLen {
			best, bestLen = CodecFOR, n
		}
		if n := deltaSize(len(vals), sc.deltaW); n < bestLen {
			best, bestLen = CodecDelta, n
		}
	}
	dict, ok := dictAnalysis(vals)
	if ok {
		if n := dictSize(len(vals), len(dict), bits.Len(uint(len(dict)-1))); n < bestLen {
			best, bestLen = CodecDict, n
		}
	}
	return best, bestLen, sc, dict
}

// DecodeBlock decodes the block at the start of blk into dst (grown as
// needed) and returns the decoded values, the codec, and the total encoded
// length consumed. Corrupt input — truncation, checksum mismatch, unknown
// codec, inconsistent structure — returns a descriptive error. It is Open
// followed by Block.Decode, so both report the same errors.
func DecodeBlock(dst []float64, blk []byte) ([]float64, Codec, int, error) {
	b, err := Open(blk)
	if err != nil {
		return nil, 0, 0, err
	}
	return b.Decode(dst), b.codec, b.size, nil
}

// Block is one validated encoded block, returned by Open. It is a small
// value over the encoded bytes (no allocation): Decode materialises the
// values, Select compares them in place.
type Block struct {
	codec  Codec
	n      int    // value count
	size   int    // encoded length: header plus payload
	scale  int    // FOR/Delta decimal scale
	w      uint   // packed field width (FOR/Delta/Dict)
	base   int64  // FOR frame base; Delta's first scaled value
	dict   []byte // Dict entries, 8-byte LE bit patterns
	packed []byte // bit-packed fields, or Raw's 8-byte values
}

// Open validates the block at the start of blk — header, lengths, payload
// CRC-32C, codec structure, dictionary indices, and that every FOR/Delta
// scaled integer lies within ±2^53 (the encoder's domain) — and returns a
// handle on it. Every later Decode or Select on the handle is infallible.
func Open(blk []byte) (Block, error) {
	if len(blk) < HeaderSize {
		return Block{}, fmt.Errorf("colcodec: block is %d bytes, shorter than the %d-byte header (truncated?)", len(blk), HeaderSize)
	}
	codec := Codec(blk[0])
	count := int(binary.LittleEndian.Uint32(blk[4:8]))
	payloadLen := int(binary.LittleEndian.Uint32(blk[8:12]))
	wantCRC := binary.LittleEndian.Uint32(blk[12:16])
	if codec >= numCodecs {
		return Block{}, fmt.Errorf("colcodec: unknown codec id %d (reader supports 0..%d)", blk[0], numCodecs-1)
	}
	if count <= 0 || count > MaxBlockLen {
		return Block{}, fmt.Errorf("colcodec: block declares %d values (want 1..%d)", count, MaxBlockLen)
	}
	if payloadLen < 0 || payloadLen > len(blk)-HeaderSize {
		return Block{}, fmt.Errorf("colcodec: block declares %d payload bytes but only %d remain (truncated?)", payloadLen, len(blk)-HeaderSize)
	}
	payload := blk[HeaderSize : HeaderSize+payloadLen]
	if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
		return Block{}, fmt.Errorf("colcodec: %s block payload checksum mismatch (header %08x, payload %08x)", codec.Name(), wantCRC, got)
	}
	b := Block{codec: codec, n: count, size: HeaderSize + payloadLen}
	var err error
	switch codec {
	case CodecRaw:
		err = b.openRaw(payload)
	case CodecFOR:
		err = b.openFOR(payload)
	case CodecDelta:
		err = b.openDelta(payload)
	case CodecDict:
		err = b.openDict(payload)
	}
	if err != nil {
		return Block{}, fmt.Errorf("colcodec: %s block: %w", codec.Name(), err)
	}
	return b, nil
}

// Codec returns the block's codec.
func (b *Block) Codec() Codec { return b.codec }

// Len returns the block's value count.
func (b *Block) Len() int { return b.n }

// Size returns the block's encoded length, header included.
func (b *Block) Size() int { return b.size }

// Decode writes the block's values into dst (grown as needed) and returns
// it.
func (b *Block) Decode(dst []float64) []float64 {
	if cap(dst) < b.n {
		dst = make([]float64, b.n)
	}
	dst = dst[:b.n]
	switch b.codec {
	case CodecRaw:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b.packed[8*i:]))
		}
	case CodecFOR:
		// Divide, don't multiply by a precomputed inverse: decode must round
		// the true quotient exactly as the encoder's applicability check did.
		// Scale 0 divides by 1, which is exact.
		div := pow10[b.scale]
		for i := range dst {
			dst[i] = float64(b.base+int64(b.field(i))) / div
		}
	case CodecDelta:
		div := pow10[b.scale]
		m := b.base
		for i := range dst {
			if i > 0 {
				m += unzigzag(b.field(i - 1))
			}
			dst[i] = float64(m) / div
		}
	case CodecDict:
		var tab [maxDictSize]float64
		for e := range len(b.dict) / 8 {
			tab[e] = b.entry(uint64(e))
		}
		var idx [64]uint8
		for i := 0; i < b.n; i += 64 {
			for j, x := range b.indices(i, &idx) {
				dst[i+j] = tab[x]
			}
		}
	}
	return dst
}

// indices unpacks Dict fields [i, i+64) — fewer at the block's end — into
// buf and returns them. i is a multiple of 8, so each run of 8 fields
// starts on a byte and, at ≤ 8 bits a field, fits one word.
func (b *Block) indices(i int, buf *[64]uint8) []uint8 {
	out := buf[:min(64, b.n-i)]
	mask := uint64(1)<<b.w - 1
	for k := 0; k < len(out); k += 8 {
		x := load64(b.packed, uint(i+k)*b.w/8)
		for j := k; j < min(k+8, len(out)); j++ {
			out[j] = uint8(x & mask)
			x >>= b.w
		}
	}
	return out
}

// field returns the i-th packed field.
func (b *Block) field(i int) uint64 {
	bit := uint(i) * b.w
	return load64(b.packed, bit>>3) >> (bit & 7) & (1<<b.w - 1)
}

// entry returns dictionary entry e.
func (b *Block) entry(e uint64) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b.dict[8*e:]))
}

// load64 reads the little-endian word at byte off of p, zero-filling past
// its end. A packed field starts at most 7 bits into its first byte and is
// at most maxPackWidth bits wide, so one word always holds it.
func load64(p []byte, off uint) uint64 {
	if off+8 <= uint(len(p)) {
		return binary.LittleEndian.Uint64(p[off:])
	}
	var x uint64
	for j := uint(0); off+j < uint(len(p)); j++ {
		x |= uint64(p[off+j]) << (8 * j)
	}
	return x
}

// --- raw ---

func rawSize(vals []float64) int { return 8 * len(vals) }

func appendRaw(dst []byte, vals []float64) []byte {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		dst = append(dst, b[:]...)
	}
	return dst
}

func (b *Block) openRaw(payload []byte) error {
	if len(payload) != 8*b.n {
		return fmt.Errorf("payload is %d bytes for %d values (want %d)", len(payload), b.n, 8*b.n)
	}
	b.packed = payload
	return nil
}

// --- scaled-decimal analysis (FOR and Delta) ---

// scaledAt maps v to its integer form at scale s, reporting whether the
// mapping is exact: float64(m)/10^s must reproduce v's bits. The division
// of two exactly-represented numbers rounds the true quotient once —
// exactly how strconv.ParseFloat rounds the decimal "m×10^-s" — so the
// round trip is an equality check, not an epsilon test.
func scaledAt(v float64, s int) (int64, bool) {
	if v != v || math.IsInf(v, 0) {
		return 0, false
	}
	f := math.Round(v * pow10[s])
	if math.Abs(f) > maxScaled {
		return 0, false
	}
	m := int64(f)
	if float64(m)/pow10[s] != v {
		return 0, false
	}
	// Bit-exactness beyond ==: rule out -0.0 collapsing to +0.0.
	if math.Float64bits(float64(m)/pow10[s]) != math.Float64bits(v) {
		return 0, false
	}
	return m, true
}

// scaledInts is a block's scaled-integer analysis: the decimal scale, the
// FOR base (the least scaled value) and the bit widths both scaled-integer
// codecs need.
type scaledInts struct {
	scale        int
	base         int64
	forW, deltaW int
}

// scaledAnalysis finds the smallest scale at which every value is an exact
// scaled integer and returns the analysis at that scale. ok is false when
// no scale ≤ maxScale works.
func scaledAnalysis(vals []float64) (sc scaledInts, ok bool) {
scales:
	for s := 0; s <= maxScale; s++ {
		minM, maxM := int64(0), int64(0)
		var prev int64
		maxDelta := uint64(0)
		for i, v := range vals {
			m, exact := scaledAt(v, s)
			if !exact {
				continue scales
			}
			if i == 0 {
				minM, maxM, prev = m, m, m
				continue
			}
			if m < minM {
				minM = m
			}
			if m > maxM {
				maxM = m
			}
			if zz := zigzag(m - prev); zz > maxDelta {
				maxDelta = zz
			}
			prev = m
		}
		sc = scaledInts{scale: s, base: minM, forW: bits.Len64(uint64(maxM - minM)), deltaW: bits.Len64(maxDelta)}
		if sc.forW > maxPackWidth || sc.deltaW > maxPackWidth {
			return scaledInts{}, false
		}
		return sc, true
	}
	return scaledInts{}, false
}

func zigzag(d int64) uint64   { return uint64((d << 1) ^ (d >> 63)) }
func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

// --- FOR ---

// FOR payload: [0] scale, [1] bit width, [2:10) base int64 LE, then
// count entries of (m − base) packed at the bit width.
func forSize(n, w int) int { return 10 + (n*w+7)/8 }

// appendFOR encodes vals, whose scaledAnalysis is sc.
func appendFOR(dst []byte, vals []float64, sc scaledInts) []byte {
	dst = append(dst, byte(sc.scale), byte(sc.forW))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(sc.base))
	dst = append(dst, b[:]...)
	p := packer{dst: dst, w: uint(sc.forW)}
	for _, v := range vals {
		m, _ := scaledAt(v, sc.scale)
		p.add(uint64(m - sc.base))
	}
	return p.finish()
}

// openScaled reads the FOR/Delta prologue — scale, bit width, and the
// int64 that seeds the scaled integers — and checks the payload length.
func (b *Block) openScaled(payload []byte, name string, size func(n, w int) int) error {
	if len(payload) < 10 {
		return fmt.Errorf("payload is %d bytes, shorter than the 10-byte %s prologue", len(payload), name)
	}
	scale, w := int(payload[0]), int(payload[1])
	if scale > maxScale {
		return fmt.Errorf("scale %d out of range (max %d)", scale, maxScale)
	}
	if w > maxPackWidth {
		return fmt.Errorf("bit width %d out of range (max %d)", w, maxPackWidth)
	}
	if want := size(b.n, w); len(payload) != want {
		return fmt.Errorf("payload is %d bytes for %d values at width %d (want %d)", len(payload), b.n, w, want)
	}
	b.scale, b.w = scale, uint(w)
	b.base = int64(binary.LittleEndian.Uint64(payload[2:10]))
	b.packed = payload[10:]
	if b.base < -maxScaled || b.base > maxScaled {
		return fmt.Errorf("first scaled integer %d outside ±2^53", b.base)
	}
	return nil
}

func (b *Block) openFOR(payload []byte) error {
	if err := b.openScaled(payload, "FOR", forSize); err != nil {
		return err
	}
	// The width bounds every field, so only a frame near +2^53 needs the
	// fields themselves checked.
	if b.base+(1<<b.w-1) <= maxScaled {
		return nil
	}
	for i := 0; i < b.n; i++ {
		if m := b.base + int64(b.field(i)); m > maxScaled {
			return fmt.Errorf("value %d: scaled integer %d outside ±2^53", i, m)
		}
	}
	return nil
}

// --- Delta ---

// Delta payload: [0] scale, [1] bit width, [2:10) first scaled value int64
// LE, then count−1 zigzagged first-differences packed at the bit width.
func deltaSize(n, w int) int { return 10 + ((n-1)*w+7)/8 }

// appendDelta encodes vals, whose scaledAnalysis is sc.
func appendDelta(dst []byte, vals []float64, sc scaledInts) []byte {
	first, _ := scaledAt(vals[0], sc.scale)
	dst = append(dst, byte(sc.scale), byte(sc.deltaW))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(first))
	dst = append(dst, b[:]...)
	p := packer{dst: dst, w: uint(sc.deltaW)}
	prev := first
	for _, v := range vals[1:] {
		m, _ := scaledAt(v, sc.scale)
		p.add(zigzag(m - prev))
		prev = m
	}
	return p.finish()
}

func (b *Block) openDelta(payload []byte) error {
	if err := b.openScaled(payload, "delta", deltaSize); err != nil {
		return err
	}
	if b.w == 0 || b.n == 1 {
		return nil
	}
	// A zigzagged field below 2^w moves the running value by at most
	// 2^(w-1); walk the fields only when that bound cannot keep every
	// value within ±2^53.
	first := b.base
	if first < 0 {
		first = -first
	}
	if int64(b.n-1) <= (maxScaled-first)>>(b.w-1) {
		return nil
	}
	m := b.base
	for i := 1; i < b.n; i++ {
		if m += unzigzag(b.field(i - 1)); m < -maxScaled || m > maxScaled {
			return fmt.Errorf("value %d: scaled integer %d outside ±2^53", i, m)
		}
	}
	return nil
}

// --- Dict ---

// Dict payload: [0] cardinality−1, [1] index bit width, then the dictionary
// (cardinality float64 bit patterns, first-appearance order, LE), then
// count indices packed at the bit width.
func dictSize(n, card, w int) int { return 2 + 8*card + (n*w+7)/8 }

// dictAnalysis scans for ≤ maxDictSize distinct bit patterns and returns
// the dictionary index: each pattern's entry number, in first-appearance
// order. The index comes from dictIndexes; EncodeBlock hands it back.
func dictAnalysis(vals []float64) (index map[uint64]uint8, ok bool) {
	index = dictIndexes.Get().(map[uint64]uint8)
	for _, v := range vals {
		b := math.Float64bits(v)
		if _, ok := index[b]; !ok {
			if len(index) == maxDictSize {
				putDictIndex(index)
				return nil, false
			}
			index[b] = uint8(len(index))
		}
	}
	return index, true
}

// dictIndexes recycles dictAnalysis's index maps, so a segment write
// allocates a few of them rather than one per block.
var dictIndexes = sync.Pool{New: func() any { return make(map[uint64]uint8, maxDictSize) }}

// putDictIndex empties index and returns it to dictIndexes.
func putDictIndex(index map[uint64]uint8) {
	clear(index)
	dictIndexes.Put(index)
}

// appendDict encodes vals against dictAnalysis's index of them.
func appendDict(dst []byte, vals []float64, index map[uint64]uint8) []byte {
	w := bits.Len(uint(len(index) - 1))
	dst = append(dst, byte(len(index)-1), byte(w))
	at := len(dst)
	dst = append(dst, make([]byte, 8*len(index))...)
	for b, i := range index {
		binary.LittleEndian.PutUint64(dst[at+8*int(i):], b)
	}
	p := packer{dst: dst, w: uint(w)}
	for _, v := range vals {
		p.add(uint64(index[math.Float64bits(v)]))
	}
	return p.finish()
}

func (b *Block) openDict(payload []byte) error {
	if len(payload) < 2 {
		return fmt.Errorf("payload is %d bytes, shorter than the 2-byte dict prologue", len(payload))
	}
	card := int(payload[0]) + 1
	w := int(payload[1])
	if w > 8 {
		return fmt.Errorf("index bit width %d out of range (max 8)", w)
	}
	if want := dictSize(b.n, card, w); len(payload) != want {
		return fmt.Errorf("payload is %d bytes for %d values, %d dict entries at width %d (want %d)", len(payload), b.n, card, w, want)
	}
	b.w = uint(w)
	b.dict = payload[2 : 2+8*card]
	b.packed = payload[2+8*card:]
	if card >= 1<<w {
		return nil // every w-bit index names an entry
	}
	var idx [64]uint8
	for i := 0; i < b.n; i += 64 {
		for _, x := range b.indices(i, &idx) {
			if int(x) >= card {
				return fmt.Errorf("index %d out of range (dictionary holds %d entries)", x, card)
			}
		}
	}
	return nil
}

// --- bit packing ---

// packer appends fixed-width little-endian bit fields to a byte slice. The
// accumulator never holds more than 7 pending bits before the next add, so
// widths up to 57 cannot overflow; callers stay within maxPackWidth.
type packer struct {
	dst []byte
	acc uint64
	n   uint
	w   uint
}

func (p *packer) add(v uint64) {
	p.acc |= v << p.n
	p.n += p.w
	for p.n >= 8 {
		p.dst = append(p.dst, byte(p.acc))
		p.acc >>= 8
		p.n -= 8
	}
}

func (p *packer) finish() []byte {
	if p.n > 0 {
		p.dst = append(p.dst, byte(p.acc))
		p.acc, p.n = 0, 0
	}
	return p.dst
}
