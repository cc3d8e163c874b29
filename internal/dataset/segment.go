// Persistent columnar segments: the on-disk form of a Table, written once
// and served across process restarts through mmap-backed zero-copy views.
//
// A segment directory holds one file per column plus a manifest:
//
//	manifest.json   format magic/version, column schema, per-group layout
//	value.seg       the aggregated value column
//	extra.0.seg …   one file per extra (filterable) column, by position
//
// Every .seg file is a 64-byte header followed by the column's float64
// values in little-endian byte order, packed in the table's group order
// (group i's rows occupy rows [offset_i, offset_i+rows_i), exactly like the
// in-memory table's value column). The header is:
//
//	[0:8)   magic "RVSEGCOL"
//	[8:12)  format version, uint32 LE
//	[12:16) endianness marker 0x01020304, uint32 LE
//	[16:24) row count, uint64 LE
//	[24:32) data byte length (rows*8), uint64 LE
//	[32:36) CRC-32C (Castagnoli) of header bytes [0:32), uint32 LE
//	[36:64) zero padding
//
// Data starts at byte 64, so the mmap base (page-aligned) plus 64 keeps the
// float64 data 8-byte aligned — the contract mmapfile.Float64s enforces.
// Per-group, per-column CRC-32C checksums of the raw data bytes live in the
// manifest; OpenSegments validates structure eagerly but reads no data
// pages, and VerifyChecksums performs the full (page-faulting) integrity
// pass on demand.
//
// Format version 2 (SegmentOptions.Compress) keeps the directory shape and
// the 64-byte column headers but stores each column as back-to-back
// colcodec blocks of BlockLen values instead of raw float64s: the header's
// data byte length becomes the encoded length, and the manifest gains the
// per-column block index — each block's byte offset plus its min/max zone
// map. Group statistics and the per-group CRCs are computed over the
// *decoded* values, so VerifyChecksums proves the decode end to end and v1
// and v2 manifests stay comparable. Reads decode whole blocks through a
// bounded LRU; draw streams are bit-for-bit identical to the v1 and
// in-memory paths. Either way an opened column is a blockColumn, and
// blockcol.go is the one file that knows which (DESIGN.md §14): this file
// writes, maps and validates the files and reads a column only through
// its methods.
package dataset

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/colcodec"
	"repro/internal/mmapfile"
	"repro/internal/par"
)

const (
	segColMagic     = "RVSEGCOL"
	segTableMagic   = "RVSEGTBL"
	segVersion      = 1
	segVersion2     = 2
	segEndianMarker = 0x01020304

	// SegmentDataOffset is the byte offset of the float64 column data in
	// every .seg file; the header occupies [0, SegmentDataOffset).
	SegmentDataOffset = 64

	segManifestName = "manifest.json"
	segValueName    = "value.seg"
)

// castagnoli is the CRC-32C table shared by every checksum in the format.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SegmentValuePath returns the path of the value column file inside a
// segment directory — exported for readers (needletail's disk scenario)
// that access the column by pread rather than through OpenSegments.
func SegmentValuePath(dir string) string { return filepath.Join(dir, segValueName) }

// segExtraPath names extra column e's file. Extras are index-named so group
// and column names never need filename sanitization.
func segExtraPath(dir string, e int) string {
	return filepath.Join(dir, fmt.Sprintf("extra.%d.seg", e))
}

// segManifest is the JSON manifest schema (format-internal).
type segManifest struct {
	Magic      string     `json:"magic"`
	Version    int        `json:"version"`
	ValueName  string     `json:"value_name"`
	ExtraNames []string   `json:"extra_names,omitempty"`
	Rows       int64      `json:"rows"`
	MinValue   float64    `json:"min_value"`
	MaxValue   float64    `json:"max_value"`
	Groups     []segGroup `json:"groups"`

	// v2 (compressed) only: values per block and the per-column block
	// index, [0] = value column, [1+e] = extra e.
	BlockLen int         `json:"block_len,omitempty"`
	Columns  []segColumn `json:"columns,omitempty"`
}

// colName names column c: 0 is the value column, 1+e extra e.
func (m *segManifest) colName(c int) string {
	if c == 0 {
		return m.ValueName
	}
	return m.ExtraNames[c-1]
}

// segColumn is one compressed column's block index.
type segColumn struct {
	Blocks []segBlock `json:"blocks"`
}

// segBlock locates one encoded block and carries its zone map. NZ marks
// the zone unusable (the block holds non-finite values, which JSON cannot
// encode and ordering predicates cannot prune on).
type segBlock struct {
	Off int64   `json:"off"`          // byte offset within the column's data region
	Min float64 `json:"min"`          // zone map: least decoded value
	Max float64 `json:"max"`          // zone map: greatest decoded value
	NZ  bool    `json:"nz,omitempty"` // zone unusable
}

// segGroup records one group's layout and the statistics the in-memory
// constructors would otherwise have to rescan the column for.
type segGroup struct {
	Name      string   `json:"name"`
	Rows      int64    `json:"rows"`
	Offset    int64    `json:"offset"` // row offset into every column
	Mean      float64  `json:"mean"`
	Max       float64  `json:"max"`
	ValueCRC  uint32   `json:"value_crc"`
	ExtraCRCs []uint32 `json:"extra_crcs,omitempty"`
}

// crc returns the group's CRC-32C of column c (0 = the value column).
func (g *segGroup) crc(c int) *uint32 {
	if c == 0 {
		return &g.ValueCRC
	}
	return &g.ExtraCRCs[c-1]
}

// SegmentWriter streams a table's rows into a segment directory without
// ever materializing the table: groups are declared in order with
// StartGroup and rows appended group-contiguously. Append stages BlockLen
// values per column (in v1 too, allocated on first use) and flushes each
// full block, so peak memory is one block per column plus one encode
// buffer, whatever the row count. Close finalizes headers and writes the
// manifest last (via rename), so a directory with a valid manifest always
// has complete column files.
type SegmentWriter struct {
	dir  string
	opts SegmentOptions
	cols []colSink // [0] = value column, [1+e] = extra e
	man  segManifest
	sums []float64   // per group: the value sum, folded in row order
	sc   *colScratch // Append's and Close's buffers
	row  []float64   // the row Append hands the columns

	cur    *segGroup
	names  map[string]struct{}
	closed bool
	err    error // sticky: first failure poisons the writer
}

// colSink is one column file's write side.
type colSink struct {
	f     *os.File
	off   int64     // data bytes written
	stage []float64 // rows of a part block, waiting for the rest of it
	gc    groupCursor
}

// SegmentOptions selects the on-disk segment format.
type SegmentOptions struct {
	// Compress writes format version 2: per-column block compression
	// (colcodec) with zone maps in the manifest. Zero value writes the raw
	// v1 format.
	Compress bool
	// BlockLen is the values-per-block for compressed columns;
	// DefaultBlockLen when 0.
	BlockLen int
}

// colScratch is one worker's buffers: the little-endian bytes of up to
// 512 values, an encoded block, and a decoded block.
type colScratch struct {
	le  [4096]byte
	enc []byte
	dec []float64
}

// eachLE converts vals to little-endian bytes, 512 at a time, and calls
// fn with each chunk and its bytes.
func (sc *colScratch) eachLE(vals []float64, fn func(chunk []float64, le []byte) error) error {
	for len(vals) > 0 {
		chunk := vals[:min(len(sc.le)/8, len(vals))]
		le := sc.le[:8*len(chunk)]
		for i, v := range chunk {
			binary.LittleEndian.PutUint64(le[8*i:], math.Float64bits(v))
		}
		if err := fn(chunk, le); err != nil {
			return err
		}
		vals = vals[len(chunk):]
	}
	return nil
}

// groupCursor walks one column's rows in order through the manifest's
// groups.
type groupCursor struct {
	gi  int   // group of row
	row int64 // absolute row of the next value
}

// runs advances over the next n rows and calls fn(gi, row, i, j) once per
// group run: rows [i, j) of the n lie in group gi, starting at absolute
// row row.
func (gc *groupCursor) runs(groups []segGroup, n int, fn func(gi int, row int64, i, j int) error) error {
	for i := 0; i < n; {
		g := &groups[gc.gi]
		left := g.Offset + g.Rows - gc.row
		if left == 0 {
			gc.gi++
			continue
		}
		j := i + int(min(left, int64(n-i)))
		if err := fn(gc.gi, gc.row, i, j); err != nil {
			return err
		}
		gc.row += int64(j - i)
		i = j
	}
	return nil
}

// CreateSegments opens a segment writer over dir (created if missing) with
// the given column schema. The caller must feed rows group-contiguously:
// StartGroup then Append for each of the group's rows, repeated per group,
// then Close.
func CreateSegments(dir, valueName string, extraNames ...string) (*SegmentWriter, error) {
	return CreateSegmentsOptions(dir, SegmentOptions{}, valueName, extraNames...)
}

// CreateSegmentsOptions is CreateSegments with an explicit format choice
// (compression, block length).
func CreateSegmentsOptions(dir string, opts SegmentOptions, valueName string, extraNames ...string) (*SegmentWriter, error) {
	if valueName == "" {
		valueName = "value"
	}
	if opts.BlockLen == 0 {
		opts.BlockLen = DefaultBlockLen
	}
	if opts.BlockLen < 1 || opts.BlockLen > colcodec.MaxBlockLen {
		return nil, fmt.Errorf("dataset: segments: block length %d out of range (1..%d)", opts.BlockLen, colcodec.MaxBlockLen)
	}
	version := segVersion
	if opts.Compress {
		version = segVersion2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: segments: %w", err)
	}
	w := &SegmentWriter{
		dir:   dir,
		opts:  opts,
		sc:    &colScratch{},
		names: map[string]struct{}{},
		man: segManifest{
			Magic:      segTableMagic,
			Version:    version,
			ValueName:  valueName,
			ExtraNames: extraNames,
			MinValue:   math.Inf(1), // below and above every valid value:
			MaxValue:   -1,          // the first row seeds both, as in fold
		},
	}
	if opts.Compress {
		w.man.BlockLen = opts.BlockLen
		w.man.Columns = make([]segColumn, 1+len(extraNames))
	}
	paths := []string{SegmentValuePath(dir)}
	for e := range extraNames {
		paths = append(paths, segExtraPath(dir, e))
	}
	for _, path := range paths {
		f, err := os.Create(path)
		if err != nil {
			w.abort()
			return nil, fmt.Errorf("dataset: segments: %w", err)
		}
		w.cols = append(w.cols, colSink{f: f})
		// Header placeholder; the real header is written at Close, once the
		// row count is known.
		if _, err := f.Write(make([]byte, SegmentDataOffset)); err != nil {
			w.abort()
			return nil, fmt.Errorf("dataset: segments: %w", err)
		}
	}
	return w, nil
}

// StartGroup begins the next group. Group names must be unique; the
// previous group (if any) must have received at least one row.
func (w *SegmentWriter) StartGroup(name string) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("dataset: segments: writer is closed")
	}
	if err := w.finishGroup(); err != nil {
		return err
	}
	if _, dup := w.names[name]; dup {
		return w.fail(fmt.Errorf("dataset: segments: duplicate group %q (rows must be group-contiguous)", name))
	}
	w.names[name] = struct{}{}
	w.man.Groups = append(w.man.Groups, segGroup{
		Name:      name,
		Offset:    w.man.Rows,
		Max:       -1,
		ExtraCRCs: make([]uint32, len(w.man.ExtraNames)),
	})
	w.sums = append(w.sums, 0)
	w.cur = &w.man.Groups[len(w.man.Groups)-1]
	return nil
}

// Append writes one row of the current group: the aggregated value plus one
// entry per declared extra column. Values must be finite and non-negative
// — every sampling algorithm requires values in [0, c]. Rows are staged
// per column and flushed a block at a time; the flush folds each block's
// little-endian bytes into the group CRCs with one crc32.Update per group
// run.
func (w *SegmentWriter) Append(value float64, extras ...float64) error {
	if w.err != nil {
		return w.err
	}
	if w.cur == nil {
		return w.fail(fmt.Errorf("dataset: segments: Append before StartGroup"))
	}
	if len(extras) != len(w.man.ExtraNames) {
		return w.fail(fmt.Errorf("dataset: segments: row has %d extra values, writer declared %d extra columns %v",
			len(extras), len(w.man.ExtraNames), w.man.ExtraNames))
	}
	if err := checkValue(value); err != nil {
		return w.fail(err)
	}
	w.cur.Rows++
	w.man.Rows++
	w.row = append(append(w.row[:0], value), extras...)
	for c := range w.cols {
		if err := w.put(c, w.row[c:c+1], false, w.sc); err != nil {
			return w.fail(err)
		}
	}
	return nil
}

// put hands column c its next rows. Whole blocks — and, when last, the
// column's final rows — flush straight from vals; the rest is staged
// until later rows complete its block, and last seals it. Every feeder
// writes through put: Append a row at a time, WriteSegmentsOptions a
// column or a decoded source block at a time, Close nothing but last.
func (w *SegmentWriter) put(c int, vals []float64, last bool, sc *colScratch) error {
	cs, bl := &w.cols[c], w.opts.BlockLen
	for len(vals) > 0 || last && len(cs.stage) > 0 {
		if len(cs.stage) == 0 && (len(vals) >= bl || last) {
			n := min(bl, len(vals))
			if err := w.flush(c, vals[:n], sc); err != nil {
				return err
			}
			vals = vals[n:]
			continue
		}
		if cs.stage == nil {
			cs.stage = make([]float64, 0, bl)
		}
		n := min(bl-len(cs.stage), len(vals))
		cs.stage = append(cs.stage, vals[:n]...)
		vals = vals[n:]
		if len(cs.stage) == bl || last && len(vals) == 0 {
			if err := w.flush(c, cs.stage, sc); err != nil {
				return err
			}
			cs.stage = cs.stage[:0]
		}
	}
	return nil
}

// flush writes vals, column c's next rows: in v2 as one encoded block,
// indexed with its zone map, in v1 as raw little-endian bytes. Either way
// it folds those bytes into the group CRCs, one crc32.Update per group run
// of each 512-value chunk, and the value column into the group statistics.
// A flush touches only its column's state, so columns flush in parallel.
func (w *SegmentWriter) flush(c int, vals []float64, sc *colScratch) error {
	cs := &w.cols[c]
	if w.opts.Compress {
		blk, _ := colcodec.EncodeBlock(sc.enc[:0], vals)
		sc.enc = blk
		z := zoneOf(vals)
		w.man.Columns[c].Blocks = append(w.man.Columns[c].Blocks, segBlock{
			Off: cs.off, Min: z.min, Max: z.max, NZ: !z.ok,
		})
		if _, err := cs.f.Write(blk); err != nil {
			return fmt.Errorf("dataset: segments: %w", err)
		}
		cs.off += int64(len(blk))
	}
	return sc.eachLE(vals, func(chunk []float64, le []byte) error {
		err := cs.gc.runs(w.man.Groups, len(chunk), func(gi int, _ int64, i, j int) error {
			crc := w.man.Groups[gi].crc(c)
			*crc = crc32.Update(*crc, castagnoli, le[8*i:8*j])
			if c > 0 {
				return nil
			}
			return w.fold(gi, chunk[i:j])
		})
		if err != nil || w.opts.Compress {
			return err
		}
		if _, err := cs.f.Write(le); err != nil {
			return fmt.Errorf("dataset: segments: %w", err)
		}
		cs.off += int64(len(le))
		return nil
	})
}

// fold adds a run of group gi's values to the group's and the table's
// statistics. It sees the value column in row order — sum from 0.0,
// maxima seeded below every valid value, so the first value replaces the
// seed — and opened groups report TrueMean/MaxValue bit-identical to
// NewSliceGroup's scan.
func (w *SegmentWriter) fold(gi int, vals []float64) error {
	g, man := &w.man.Groups[gi], &w.man
	sum := w.sums[gi]
	for _, v := range vals {
		if !validValue(v) {
			return checkValue(v)
		}
		sum += v
		if v > g.Max {
			g.Max = v
		}
		if v < man.MinValue {
			man.MinValue = v
		}
		if v > man.MaxValue {
			man.MaxValue = v
		}
	}
	w.sums[gi] = sum
	return nil
}

// finishGroup checks the current group's row count and closes it.
func (w *SegmentWriter) finishGroup() error {
	if w.cur == nil {
		return nil
	}
	if w.cur.Rows == 0 {
		return w.fail(fmt.Errorf("dataset: segments: group %q has no rows", w.cur.Name))
	}
	if w.cur.Rows > math.MaxInt32 {
		return w.fail(fmt.Errorf("dataset: segments: group %q has %d rows; the draw layer addresses rows as int32 (max %d per group)",
			w.cur.Name, w.cur.Rows, math.MaxInt32))
	}
	w.cur = nil
	return nil
}

// fail records the first error and poisons subsequent calls.
func (w *SegmentWriter) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// abort closes the column files without finalizing headers, leaving the
// directory manifest-less (and therefore unopenable, by design).
func (w *SegmentWriter) abort() {
	for _, cs := range w.cols {
		cs.f.Close()
	}
	w.closed = true
}

// Close seals the last group and every column's staged rows, rewrites
// every column header with the final row count, syncs the column files,
// and writes the manifest via a temp-file rename so a crash mid-Close
// never leaves a valid manifest over incomplete columns.
func (w *SegmentWriter) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		w.abort()
		return w.err
	}
	if err := w.finishGroup(); err != nil {
		w.abort()
		return err
	}
	if w.man.Rows == 0 {
		w.abort()
		return fmt.Errorf("dataset: segments: table has no rows")
	}
	for c := range w.cols {
		if err := w.put(c, nil, true, w.sc); err != nil {
			w.abort()
			return err
		}
	}
	for gi, sum := range w.sums {
		w.man.Groups[gi].Mean = sum / float64(w.man.Groups[gi].Rows)
	}
	for _, cs := range w.cols {
		var header [SegmentDataOffset]byte
		copy(header[0:8], segColMagic)
		binary.LittleEndian.PutUint32(header[8:12], uint32(w.man.Version))
		binary.LittleEndian.PutUint32(header[12:16], segEndianMarker)
		binary.LittleEndian.PutUint64(header[16:24], uint64(w.man.Rows))
		binary.LittleEndian.PutUint64(header[24:32], uint64(cs.off))
		binary.LittleEndian.PutUint32(header[32:36], crc32.Checksum(header[:32], castagnoli))
		if _, err := cs.f.WriteAt(header[:], 0); err != nil {
			w.abort()
			return fmt.Errorf("dataset: segments: %w", err)
		}
		if err := cs.f.Sync(); err != nil {
			w.abort()
			return fmt.Errorf("dataset: segments: %w", err)
		}
		if err := cs.f.Close(); err != nil {
			return fmt.Errorf("dataset: segments: %w", err)
		}
	}
	blob, err := json.MarshalIndent(&w.man, "", "  ")
	if err != nil {
		return fmt.Errorf("dataset: segments: %w", err)
	}
	tmp := filepath.Join(w.dir, segManifestName+".tmp")
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("dataset: segments: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, segManifestName)); err != nil {
		return fmt.Errorf("dataset: segments: %w", err)
	}
	return nil
}

// WriteSegments persists the table into dir as a raw (v1) columnar segment
// directory that OpenSegments can serve across process restarts.
func (t *Table) WriteSegments(dir string) error {
	return t.WriteSegmentsOptions(dir, SegmentOptions{})
}

// WriteSegmentsOptions is WriteSegments with an explicit format choice —
// SegmentOptions{Compress: true} writes v2 block-compressed columns. It
// declares the groups, then writes the columns in parallel, one worker per
// column, each as blockColumn.each hands it over: a resident column in one
// piece, an encoded source's (a recompression pass) one decoded block at a
// time, never fully materialized.
func (t *Table) WriteSegmentsOptions(dir string, opts SegmentOptions) error {
	w, err := CreateSegmentsOptions(dir, opts, t.valueName, t.extraNames...)
	if err != nil {
		return err
	}
	for gi, name := range t.names {
		if err := w.StartGroup(name); err != nil {
			w.abort()
			return err
		}
		w.cur.Rows = int64(t.offsets[gi+1] - t.offsets[gi])
		w.man.Rows += w.cur.Rows
	}
	err = perColumn(len(t.cols), func(c int, sc *colScratch) error {
		return t.cols[c].each(sc, func(vals []float64, _ []byte, last bool) error {
			return w.put(c, vals, last, sc)
		})
	})
	if err != nil {
		w.abort()
		return err
	}
	return w.Close()
}

// perColumn runs fn(c, sc) for columns 0..n-1, one worker per column up
// to GOMAXPROCS, each worker with its own scratch, and returns the first
// error in column order, whatever the schedule.
func perColumn(n int, fn func(c int, sc *colScratch) error) error {
	errs := make([]error, n)
	scs := make([]colScratch, min(runtime.GOMAXPROCS(0), n))
	par.ForWorkers(n, len(scs), func(wk, c int) { errs[c] = fn(c, &scs[wk]) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SegmentTable is a Table served from a segment directory: its columns
// alias mmapped files (zero-copy; the OS page cache is the tiering layer),
// its groups are segment-backed SliceGroups whose block draws gather span
// by span, and its statistics come from the manifest so Open faults in
// no data pages. It satisfies every Table consumer — views, filters,
// kernels, the serving layer — unchanged.
//
// Close invalidates every slice the table handed out; callers must finish
// all queries first.
type SegmentTable struct {
	*Table
	dir  string
	maps []*mmapfile.Mapping
	man  *segManifest
}

// Dir returns the segment directory the table was opened from.
func (st *SegmentTable) Dir() string { return st.dir }

// Compressed reports whether the table serves v2 block-compressed columns.
func (st *SegmentTable) Compressed() bool { return st.cols[0].encoded() }

// Err returns the first block-decode failure encountered while serving
// reads, if any. Draw paths have no error channel, so corruption discovered
// mid-draw degrades those rows to zeros and surfaces here; check after
// queries on untrusted segments, or run VerifyChecksums up front.
func (st *SegmentTable) Err() error { return st.cols[0].err() }

// Mapped reports whether the columns are OS memory mappings (false means
// the nommap read-at fallback copied them to the heap at open).
func (st *SegmentTable) Mapped() bool {
	for _, m := range st.maps {
		if !m.Mapped() {
			return false
		}
	}
	return true
}

// Close unmaps every column. The table and every group, view, or filter
// derived from it must not be used afterwards.
func (st *SegmentTable) Close() error {
	var err error
	for _, m := range st.maps {
		if cerr := m.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// DropPageCache asks the OS to evict the segment files' pages (best
// effort), so cold-read measurements can run without remounting.
func (st *SegmentTable) DropPageCache() error {
	var err error
	for _, m := range st.maps {
		if derr := m.DropPageCache(); err == nil {
			err = derr
		}
	}
	return err
}

// AdviseRandom marks every column mapping as randomly accessed (best
// effort): the kernel stops reading ahead around faults, so sampling's
// residency tracks the pages draws actually touch instead of readahead
// clusters. The right mode when the table is served out of core and
// queries sample far fewer rows than they scan; a full-scan-heavy
// workload should skip it and keep readahead.
func (st *SegmentTable) AdviseRandom() error {
	var err error
	for _, m := range st.maps {
		if aerr := m.AdviseRandom(); err == nil {
			err = aerr
		}
	}
	return err
}

// VerifyChecksums recomputes every per-group, per-column CRC-32C and
// compares it against the manifest. This is the full-integrity pass — it
// touches every data page (and therefore also warms the page cache). On
// compressed tables it decodes every block (bypassing the cache) and also
// proves each manifest zone map consistent with the decoded values, so a
// clean pass means draws, filters, and zone pruning all see sound data.
// Columns verify in parallel, one worker per column, each folding its
// little-endian bytes into the group CRCs with one crc32.Update per group
// run; the error returned is the first in column order, whatever the
// schedule.
func (st *SegmentTable) VerifyChecksums() error {
	return perColumn(len(st.cols), st.verifyColumn)
}

// verifyColumn is VerifyChecksums for column c, read through
// blockColumn.each. A v1 column hands over its stored bytes, which already
// are the little-endian bytes the group CRCs cover; a v2 column's decoded
// blocks, their zone maps checked, are converted in sc. Either way the
// CRCs are the same decoded-byte CRCs, so v1 and v2 manifests agree.
func (st *SegmentTable) verifyColumn(c int, sc *colScratch) error {
	var gc groupCursor
	crc := uint32(0)
	check := func(_ []float64, le []byte) error {
		return gc.runs(st.man.Groups, len(le)/8, func(gi int, row int64, i, j int) error {
			crc = crc32.Update(crc, castagnoli, le[8*i:8*j])
			g := &st.man.Groups[gi]
			if row+int64(j-i) < g.Offset+g.Rows {
				return nil
			}
			if want := *g.crc(c); crc != want {
				return fmt.Errorf("dataset: segments: group %q column %q checksum mismatch (manifest %08x, data %08x)",
					g.Name, st.man.colName(c), want, crc)
			}
			crc = 0
			return nil
		})
	}
	return st.cols[c].each(sc, func(vals []float64, le []byte, _ bool) error {
		if le == nil {
			return sc.eachLE(vals, check)
		}
		return check(vals, le)
	})
}

// readSegManifest loads and structurally validates manifest.json.
func readSegManifest(dir string) (*segManifest, error) {
	blob, err := os.ReadFile(filepath.Join(dir, segManifestName))
	if err != nil {
		return nil, fmt.Errorf("dataset: segments: %w", err)
	}
	man := &segManifest{}
	if err := json.Unmarshal(blob, man); err != nil {
		return nil, fmt.Errorf("dataset: segments: %s: malformed manifest: %w", dir, err)
	}
	if man.Magic != segTableMagic {
		return nil, fmt.Errorf("dataset: segments: %s: bad manifest magic %q (want %q)", dir, man.Magic, segTableMagic)
	}
	if man.Version != segVersion && man.Version != segVersion2 {
		return nil, fmt.Errorf("dataset: segments: %s: unsupported format version %d (reader supports %d and %d)",
			dir, man.Version, segVersion, segVersion2)
	}
	if man.Rows <= 0 {
		return nil, fmt.Errorf("dataset: segments: %s: manifest declares %d rows", dir, man.Rows)
	}
	if len(man.Groups) == 0 {
		return nil, fmt.Errorf("dataset: segments: %s: manifest declares no groups", dir)
	}
	seen := map[string]struct{}{}
	var total int64
	for gi, g := range man.Groups {
		if g.Name == "" {
			return nil, fmt.Errorf("dataset: segments: %s: group %d has an empty name", dir, gi)
		}
		if _, dup := seen[g.Name]; dup {
			return nil, fmt.Errorf("dataset: segments: %s: duplicate group %q in manifest", dir, g.Name)
		}
		seen[g.Name] = struct{}{}
		if g.Rows <= 0 {
			return nil, fmt.Errorf("dataset: segments: %s: group %q declares %d rows", dir, g.Name, g.Rows)
		}
		if len(g.ExtraCRCs) != len(man.ExtraNames) {
			return nil, fmt.Errorf("dataset: segments: %s: group %q carries %d extra-column checksums for %d extra columns",
				dir, g.Name, len(g.ExtraCRCs), len(man.ExtraNames))
		}
		if g.Rows > math.MaxInt32 {
			return nil, fmt.Errorf("dataset: segments: %s: group %q declares %d rows; the draw layer addresses rows as int32 (max %d per group)",
				dir, g.Name, g.Rows, math.MaxInt32)
		}
		if g.Offset != total {
			return nil, fmt.Errorf("dataset: segments: %s: group %q declares offset %d, expected %d (chunks must be contiguous)",
				dir, g.Name, g.Offset, total)
		}
		total += g.Rows
	}
	if total != man.Rows {
		return nil, fmt.Errorf("dataset: segments: %s: group rows sum to %d but the manifest declares %d rows", dir, total, man.Rows)
	}
	if man.MinValue < 0 {
		return nil, fmt.Errorf("dataset: segments: %s: manifest declares negative minimum value %v", dir, man.MinValue)
	}
	if man.Version >= segVersion2 {
		if err := validateSegBlocks(man); err != nil {
			return nil, fmt.Errorf("dataset: segments: %s: %w", dir, err)
		}
	} else if man.BlockLen != 0 || man.Columns != nil {
		return nil, fmt.Errorf("dataset: segments: %s: v1 manifest carries compressed-column metadata", dir)
	}
	return man, nil
}

// validateSegBlocks structurally checks a v2 manifest's block index: block
// length in range, one column entry per declared column, the right block
// count for the row count, offsets starting at zero and strictly
// increasing with at least a block header between consecutive offsets.
func validateSegBlocks(man *segManifest) error {
	if man.BlockLen < 1 || man.BlockLen > colcodec.MaxBlockLen {
		return fmt.Errorf("manifest declares block length %d (want 1..%d)", man.BlockLen, colcodec.MaxBlockLen)
	}
	if want := 1 + len(man.ExtraNames); len(man.Columns) != want {
		return fmt.Errorf("manifest declares %d column block indexes for %d columns", len(man.Columns), want)
	}
	wantBlocks := int((man.Rows + int64(man.BlockLen) - 1) / int64(man.BlockLen))
	for ci, col := range man.Columns {
		if len(col.Blocks) != wantBlocks {
			return fmt.Errorf("column %d declares %d blocks; %d rows at block length %d need %d",
				ci, len(col.Blocks), man.Rows, man.BlockLen, wantBlocks)
		}
		for b, blk := range col.Blocks {
			switch {
			case b == 0 && blk.Off != 0:
				return fmt.Errorf("column %d block 0 starts at offset %d, want 0", ci, blk.Off)
			case b > 0 && blk.Off < col.Blocks[b-1].Off+colcodec.HeaderSize:
				return fmt.Errorf("column %d block %d offset %d overlaps block %d at %d",
					ci, b, blk.Off, b-1, col.Blocks[b-1].Off)
			}
			if !blk.NZ && blk.Min > blk.Max {
				return fmt.Errorf("column %d block %d zone map is inverted (min %v > max %v)", ci, b, blk.Min, blk.Max)
			}
		}
	}
	return nil
}

// openSegColumn maps one .seg file and validates its header against the
// manifest's version and row count, returning the data region (past the
// header). In v1 the data length must be rows*8; in v2 it is the encoded
// byte length, checked against the manifest's block index by the caller.
func openSegColumn(path string, version int, wantRows int64) (*mmapfile.Mapping, []byte, error) {
	m, err := mmapfile.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: segments: %w", err)
	}
	b := m.Bytes()
	fail := func(format string, args ...any) (*mmapfile.Mapping, []byte, error) {
		// Render the message before unmapping: args may alias the mapped
		// bytes, which are gone the instant Close returns.
		msg := fmt.Sprintf(format, args...)
		m.Close()
		return nil, nil, fmt.Errorf("dataset: segments: %s: %s", path, msg)
	}
	if len(b) < SegmentDataOffset {
		return fail("file is %d bytes, shorter than the %d-byte header (truncated?)", len(b), SegmentDataOffset)
	}
	if string(b[0:8]) != segColMagic {
		return fail("bad magic %q (want %q)", b[0:8], segColMagic)
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != uint32(version) {
		return fail("unsupported format version %d (manifest declares %d)", v, version)
	}
	if mk := binary.LittleEndian.Uint32(b[12:16]); mk != segEndianMarker {
		return fail("bad endianness marker %08x (want %08x): file was written byte-swapped", mk, segEndianMarker)
	}
	if want := crc32.Checksum(b[:32], castagnoli); binary.LittleEndian.Uint32(b[32:36]) != want {
		return fail("header checksum mismatch (header %08x, computed %08x)", binary.LittleEndian.Uint32(b[32:36]), want)
	}
	rows := binary.LittleEndian.Uint64(b[16:24])
	if rows != uint64(wantRows) {
		return fail("header declares %d rows, manifest declares %d", rows, wantRows)
	}
	dataLen := binary.LittleEndian.Uint64(b[24:32])
	if version == segVersion && dataLen != rows*8 {
		return fail("header declares %d data bytes for %d rows (want %d)", dataLen, rows, rows*8)
	}
	if got := uint64(len(b) - SegmentDataOffset); got != dataLen {
		return fail("file holds %d data bytes but the header declares %d (truncated?)", got, dataLen)
	}
	return m, b[SegmentDataOffset:], nil
}

// OpenSegments opens a segment directory written by WriteSegments,
// CreateSegments, or a streaming writer, returning a table whose columns
// are zero-copy views over the mmapped files. Open is lazy: headers and the
// manifest are validated eagerly (descriptive errors for corrupt or
// truncated input, never panics) but no data pages are read — group
// statistics come from the manifest. Call VerifyChecksums for a full
// integrity pass.
func OpenSegments(dir string) (*SegmentTable, error) {
	if !mmapfile.HostLittleEndian() {
		return nil, fmt.Errorf("dataset: segments: this platform is big-endian; segment files are little-endian and served zero-copy")
	}
	man, err := readSegManifest(dir)
	if err != nil {
		return nil, err
	}
	st := &SegmentTable{dir: dir, man: man}
	t := &Table{
		minV:       man.MinValue,
		maxV:       man.MaxValue,
		valueName:  man.ValueName,
		extraNames: man.ExtraNames,
	}
	var cache *blockCache // v2: the decoded-block LRU every column shares
	if man.Version >= segVersion2 {
		cache = newBlockCache(man.BlockLen)
	}
	paths := []string{SegmentValuePath(dir)}
	for e := range man.ExtraNames {
		paths = append(paths, segExtraPath(dir, e))
	}
	for c, path := range paths {
		m, data, err := openSegColumn(path, man.Version, man.Rows)
		if err != nil {
			st.Close()
			return nil, err
		}
		st.maps = append(st.maps, m)
		col, err := openSegColumnData(man, c, data, cache)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("dataset: segments: %s: %w", path, err)
		}
		t.cols = append(t.cols, col)
	}

	t.offsets = make([]int, len(man.Groups)+1)
	t.groups = make([]Group, len(man.Groups))
	for gi, g := range man.Groups {
		t.names = append(t.names, g.Name)
		t.offsets[gi+1] = t.offsets[gi] + int(g.Rows)
		t.groups[gi] = &TableGroup{
			SliceGroup: *t.cols[0].group(g.Name, g.Offset, int(g.Rows), g.Mean, g.Max),
			table:      t,
			index:      gi,
		}
	}
	st.Table = t
	return st, nil
}
