package needletail

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bitmap"
	"repro/internal/needletail/disksim"
	"repro/internal/xrand"
)

// Schema describes a table: one dictionary-encoded group-by column followed
// by one or more float64 value columns. This covers every query shape in
// the paper (single and multiple aggregates, selection predicates on value
// columns, group-by on the indexed column).
type Schema struct {
	// GroupColumn names the dictionary-encoded group-by attribute.
	GroupColumn string
	// ValueColumns names the numeric attributes, in storage order.
	ValueColumns []string
}

// RowWidth returns the encoded row size in bytes: a 4-byte group code plus
// 8 bytes per value column.
func (s Schema) RowWidth() int { return 4 + 8*len(s.ValueColumns) }

// ColumnIndex returns the index of the named value column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s.ValueColumns {
		if c == name {
			return i
		}
	}
	return -1
}

// Table is the storage interface the engine samples from. Implementations:
// MaterializedTable (real rows in memory pages, real bitmap indexes) and
// VirtualTable (generator-backed, for sweeps too large to materialize).
type Table interface {
	// Schema returns the table schema.
	Schema() Schema
	// NumRows returns the row count.
	NumRows() int64
	// GroupNames returns the dictionary, in code order.
	GroupNames() []string
	// GroupSize returns the number of rows in the given group code.
	GroupSize(code int) int64
	// Device returns the simulated device the table charges.
	Device() *disksim.Device
	// SampleRow returns the value-column payload of a uniformly random row
	// of the given group (charging one random row fetch). col selects the
	// value column.
	SampleRow(code int, col int, rng *xrand.RNG) float64
	// ScanAggregate performs a full sequential scan, charging sequential
	// I/O per block and one hash update per row, and returns per-group
	// (sum, count) for the given value column.
	ScanAggregate(col int) (sums []float64, counts []int64)
}

// MaterializedTable stores rows in memory pages and indexes the group
// column with one bitmap per group value, exactly as §4 describes.
type MaterializedTable struct {
	schema Schema
	device *disksim.Device

	pages    [][]byte // fixed-size pages of encoded rows
	rowWidth int
	perPage  int
	numRows  int64

	dict     []string
	dictIdx  map[string]int
	groupOf  []int32 // row -> group code (kept for membership tests)
	bitmaps  []*bitmap.Bitmap
	rleStats []*bitmap.RLE // compressed form, for storage reporting
}

// TableBuilder accumulates rows for a MaterializedTable.
type TableBuilder struct {
	t   *MaterializedTable
	buf []byte
}

// NewTableBuilder returns a builder over the given schema and device.
func NewTableBuilder(schema Schema, device *disksim.Device) *TableBuilder {
	rowWidth := schema.RowWidth()
	perPage := device.Model().BlockSize / rowWidth
	if perPage == 0 {
		perPage = 1
	}
	return &TableBuilder{
		t: &MaterializedTable{
			schema:   schema,
			device:   device,
			rowWidth: rowWidth,
			perPage:  perPage,
			dictIdx:  map[string]int{},
		},
	}
}

// Append adds one row. The number of values must match the schema.
func (b *TableBuilder) Append(group string, values ...float64) error {
	t := b.t
	if len(values) != len(t.schema.ValueColumns) {
		return fmt.Errorf("needletail: row has %d values, schema has %d columns", len(values), len(t.schema.ValueColumns))
	}
	code, ok := t.dictIdx[group]
	if !ok {
		code = len(t.dict)
		t.dictIdx[group] = code
		t.dict = append(t.dict, group)
	}
	if len(b.buf) == 0 {
		b.buf = make([]byte, 0, t.perPage*t.rowWidth)
	}
	var enc [4]byte
	binary.LittleEndian.PutUint32(enc[:], uint32(code))
	b.buf = append(b.buf, enc[:]...)
	var venc [8]byte
	for _, v := range values {
		binary.LittleEndian.PutUint64(venc[:], math.Float64bits(v))
		b.buf = append(b.buf, venc[:]...)
	}
	t.groupOf = append(t.groupOf, int32(code))
	t.numRows++
	if len(b.buf) == t.perPage*t.rowWidth {
		t.pages = append(t.pages, b.buf)
		b.buf = nil
	}
	return nil
}

// Build finalizes the table: flushes the last page and constructs the
// bitmap indexes (plain for querying, RLE for the storage report).
func (b *TableBuilder) Build() (*MaterializedTable, error) {
	t := b.t
	if t.numRows == 0 {
		return nil, fmt.Errorf("needletail: empty table")
	}
	if len(b.buf) > 0 {
		t.pages = append(t.pages, b.buf)
		b.buf = nil
	}
	t.bitmaps = make([]*bitmap.Bitmap, len(t.dict))
	for c := range t.bitmaps {
		t.bitmaps[c] = bitmap.New(int(t.numRows))
	}
	for row, code := range t.groupOf {
		t.bitmaps[code].Set(row)
	}
	t.rleStats = make([]*bitmap.RLE, len(t.dict))
	for c, bm := range t.bitmaps {
		bm.Index() // group sizes and draws only read the bitmaps from here on
		t.rleStats[c] = bitmap.Compress(bm)
	}
	return t, nil
}

// Schema returns the table schema.
func (t *MaterializedTable) Schema() Schema { return t.schema }

// NumRows returns the row count.
func (t *MaterializedTable) NumRows() int64 { return t.numRows }

// GroupNames returns the dictionary in code order.
func (t *MaterializedTable) GroupNames() []string { return t.dict }

// GroupSize returns the row count of the group.
func (t *MaterializedTable) GroupSize(code int) int64 {
	return int64(t.bitmaps[code].Count())
}

// Device returns the simulated device.
func (t *MaterializedTable) Device() *disksim.Device { return t.device }

// CompressedIndexWords reports the total RLE-compressed index size in
// 64-bit words, alongside the uncompressed size.
func (t *MaterializedTable) CompressedIndexWords() (compressed, plain int) {
	for _, r := range t.rleStats {
		compressed += r.CompressedWords()
		plain += r.PlainWords()
	}
	return
}

// readValue decodes column col of the given row, charging a random block
// read for the containing page (cached after first touch).
func (t *MaterializedTable) readValue(row int64, col int) float64 {
	t.device.ChargeBlockRead(row / int64(t.perPage))
	return t.value(row, col)
}

// value decodes column col of the given row without charging the device.
func (t *MaterializedTable) value(row int64, col int) float64 {
	off := int(row%int64(t.perPage))*t.rowWidth + 4 + 8*col
	return math.Float64frombits(binary.LittleEndian.Uint64(t.pages[row/int64(t.perPage)][off:]))
}

// meanOver is the exact mean of column col over the rows bits selects:
// a verification oracle, so it reads the pages without charging the
// device.
func (t *MaterializedTable) meanOver(bits *bitmap.Bitmap, col int) float64 {
	sum, n := 0.0, 0
	bits.ForEach(func(pos int) bool {
		sum += t.value(int64(pos), col)
		n++
		return true
	})
	return sum / float64(n)
}

// SampleRow returns a uniformly random row's value from the group, via
// bitmap select (the constant-time retrieval of §4).
func (t *MaterializedTable) SampleRow(code, col int, rng *xrand.RNG) float64 {
	bm := t.bitmaps[code]
	t.device.ChargeSampleCPU(1)
	rank := rng.Intn(bm.Count())
	pos, err := bm.Select(rank)
	if err != nil {
		panic(err) // rank is in range by construction
	}
	return t.readValue(int64(pos), col)
}

// PredicateBitmap builds a bitmap of the rows whose column col satisfies
// pred. Building it costs one sequential pass, charged to the device
// (an ad-hoc predicate has no precomputed index).
func (t *MaterializedTable) PredicateBitmap(col int, pred func(v float64) bool) *bitmap.Bitmap {
	bm := bitmap.New(int(t.numRows))
	t.device.ChargeSeqBlocks(int64(len(t.pages)))
	t.device.ChargeHashUpdates(t.numRows)
	for row := int64(0); row < t.numRows; row++ {
		if pred(t.value(row, col)) {
			bm.Set(int(row))
		}
	}
	return bm
}

// ScanAggregate is the SCAN baseline: a sequential pass charging one block
// read per page and one hash-map update per row.
func (t *MaterializedTable) ScanAggregate(col int) ([]float64, []int64) {
	sums := make([]float64, len(t.dict))
	counts := make([]int64, len(t.dict))
	t.device.ChargeSeqBlocks(int64(len(t.pages)))
	t.device.ChargeHashUpdates(t.numRows)
	for row := int64(0); row < t.numRows; row++ {
		page := row / int64(t.perPage)
		off := int(row%int64(t.perPage)) * t.rowWidth
		code := binary.LittleEndian.Uint32(t.pages[page][off : off+4])
		sums[code] += t.value(row, col)
		counts[code]++
	}
	return sums, counts
}
