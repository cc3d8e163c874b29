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
// in-memory Table.col layout). The header is:
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
// bounded LRU (blockcol.go); draw streams are bit-for-bit identical to the
// v1 and in-memory paths. See DESIGN.md §14.
package dataset

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"repro/internal/colcodec"
	"repro/internal/mmapfile"
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

// SegmentWriter streams a table's rows into a segment directory without
// ever materializing the table: groups are declared in order with
// StartGroup and rows appended group-contiguously, so a writer's peak
// memory is one bufio buffer per column regardless of row count. Close
// finalizes headers and writes the manifest last (via rename), so a
// directory with a valid manifest always has complete column files.
type SegmentWriter struct {
	dir        string
	valueName  string
	extraNames []string
	opts       SegmentOptions

	files []*os.File // [0] = value column, [1+e] = extra e
	bufs  []*bufWriter
	man   segManifest

	// Compressed mode: per-column block staging. encs[c].vals buffers up
	// to BlockLen values; a full buffer is encoded, appended to the column
	// file, and indexed in the manifest with its zone map.
	encs   []colEncoder
	encBuf []byte

	cur     *segGroup
	curSum  float64
	names   map[string]struct{}
	scratch [8]byte
	closed  bool
	err     error // sticky: first failure poisons the writer
}

// colEncoder is one compressed column's write-side state.
type colEncoder struct {
	vals []float64 // staged values of the current block
	off  int64     // encoded bytes written so far
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

// bufWriter is a minimal buffered writer (we avoid bufio to keep the flush
// and error paths explicit and the per-value write inlineable).
type bufWriter struct {
	f   *os.File
	buf []byte
}

func (w *bufWriter) write8(p [8]byte) error {
	w.buf = append(w.buf, p[:]...)
	if len(w.buf) >= 1<<16 {
		return w.flush()
	}
	return nil
}

// write appends an arbitrary byte run (encoded blocks).
func (w *bufWriter) write(p []byte) error {
	w.buf = append(w.buf, p...)
	if len(w.buf) >= 1<<16 {
		return w.flush()
	}
	return nil
}

func (w *bufWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.f.Write(w.buf)
	w.buf = w.buf[:0]
	return err
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
		dir:        dir,
		valueName:  valueName,
		extraNames: extraNames,
		opts:       opts,
		names:      map[string]struct{}{},
		man: segManifest{
			Magic:      segTableMagic,
			Version:    version,
			ValueName:  valueName,
			ExtraNames: extraNames,
		},
	}
	if opts.Compress {
		w.man.BlockLen = opts.BlockLen
		w.man.Columns = make([]segColumn, 1+len(extraNames))
		w.encs = make([]colEncoder, 1+len(extraNames))
		for c := range w.encs {
			w.encs[c].vals = make([]float64, 0, opts.BlockLen)
		}
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
		w.files = append(w.files, f)
		w.bufs = append(w.bufs, &bufWriter{f: f, buf: make([]byte, 0, 1<<16)})
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
		ExtraCRCs: make([]uint32, len(w.extraNames)),
	})
	w.cur = &w.man.Groups[len(w.man.Groups)-1]
	w.curSum = 0
	return nil
}

// Append writes one row of the current group: the aggregated value plus one
// entry per declared extra column. Values must be finite and non-negative
// — every sampling algorithm requires values in [0, c].
func (w *SegmentWriter) Append(value float64, extras ...float64) error {
	if w.err != nil {
		return w.err
	}
	if w.cur == nil {
		return w.fail(fmt.Errorf("dataset: segments: Append before StartGroup"))
	}
	if len(extras) != len(w.extraNames) {
		return w.fail(fmt.Errorf("dataset: segments: row has %d extra values, writer declared %d extra columns %v",
			len(extras), len(w.extraNames), w.extraNames))
	}
	if err := checkValue(value); err != nil {
		return w.fail(err)
	}
	// Per-group CRCs are always over the decoded little-endian bytes —
	// in compressed mode too, so VerifyChecksums proves the decode end to
	// end and the manifests stay comparable across formats.
	binary.LittleEndian.PutUint64(w.scratch[:], math.Float64bits(value))
	w.cur.ValueCRC = crc32.Update(w.cur.ValueCRC, castagnoli, w.scratch[:])
	if err := w.writeValue(0, value, w.scratch); err != nil {
		return w.fail(err)
	}
	for e, v := range extras {
		binary.LittleEndian.PutUint64(w.scratch[:], math.Float64bits(v))
		w.cur.ExtraCRCs[e] = crc32.Update(w.cur.ExtraCRCs[e], castagnoli, w.scratch[:])
		if err := w.writeValue(1+e, v, w.scratch); err != nil {
			return w.fail(err)
		}
	}
	// Statistics fold in append order, matching NewSliceGroup's scan order
	// bit for bit (sum from 0.0, max seeded by the first value), so opened
	// groups report identical TrueMean/MaxValue to their in-memory twins.
	if w.cur.Rows == 0 || value > w.cur.Max {
		w.cur.Max = value
	}
	w.curSum += value
	if w.man.Rows == 0 || value < w.man.MinValue {
		w.man.MinValue = value
	}
	if w.man.Rows == 0 || value > w.man.MaxValue {
		w.man.MaxValue = value
	}
	w.cur.Rows++
	w.man.Rows++
	return nil
}

// writeValue routes one column value to its sink: the raw byte stream in
// v1, the block stager in v2.
func (w *SegmentWriter) writeValue(c int, v float64, le [8]byte) error {
	if !w.opts.Compress {
		return w.bufs[c].write8(le)
	}
	enc := &w.encs[c]
	enc.vals = append(enc.vals, v)
	if len(enc.vals) == w.opts.BlockLen {
		return w.flushBlock(c)
	}
	return nil
}

// flushBlock encodes column c's staged values as one block, appends it to
// the column file, and records its offset and zone map in the manifest.
func (w *SegmentWriter) flushBlock(c int) error {
	enc := &w.encs[c]
	if len(enc.vals) == 0 {
		return nil
	}
	blk, _ := colcodec.EncodeBlock(w.encBuf[:0], enc.vals)
	w.encBuf = blk
	z := zoneOf(enc.vals)
	w.man.Columns[c].Blocks = append(w.man.Columns[c].Blocks, segBlock{
		Off: enc.off, Min: z.min, Max: z.max, NZ: !z.ok,
	})
	enc.off += int64(len(blk))
	enc.vals = enc.vals[:0]
	return w.bufs[c].write(blk)
}

// finishGroup seals the current group's statistics.
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
	w.cur.Mean = w.curSum / float64(w.cur.Rows)
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
	for _, f := range w.files {
		f.Close()
	}
	w.closed = true
}

// Close seals the last group, rewrites every column header with the final
// row count, syncs the column files, and writes the manifest via a
// temp-file rename so a crash mid-Close never leaves a valid manifest over
// incomplete columns.
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
	if w.opts.Compress {
		// Seal the trailing partial block of every column.
		for c := range w.encs {
			if err := w.flushBlock(c); err != nil {
				w.abort()
				return fmt.Errorf("dataset: segments: %w", err)
			}
		}
	}
	for c, f := range w.files {
		var header [SegmentDataOffset]byte
		copy(header[0:8], segColMagic)
		binary.LittleEndian.PutUint32(header[8:12], uint32(w.man.Version))
		binary.LittleEndian.PutUint32(header[12:16], segEndianMarker)
		binary.LittleEndian.PutUint64(header[16:24], uint64(w.man.Rows))
		dataLen := uint64(w.man.Rows) * 8
		if w.opts.Compress {
			dataLen = uint64(w.encs[c].off)
		}
		binary.LittleEndian.PutUint64(header[24:32], dataLen)
		binary.LittleEndian.PutUint32(header[32:36], crc32.Checksum(header[:32], castagnoli))
		if err := w.bufs[c].flush(); err != nil {
			w.abort()
			return fmt.Errorf("dataset: segments: %w", err)
		}
		if _, err := f.WriteAt(header[:], 0); err != nil {
			w.abort()
			return fmt.Errorf("dataset: segments: %w", err)
		}
		if err := f.Sync(); err != nil {
			w.abort()
			return fmt.Errorf("dataset: segments: %w", err)
		}
		if err := f.Close(); err != nil {
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
// SegmentOptions{Compress: true} writes v2 block-compressed columns. The
// source table may itself be compressed (a recompression pass); its blocks
// are decoded streaming, never fully materialized.
func (t *Table) WriteSegmentsOptions(dir string, opts SegmentOptions) error {
	w, err := CreateSegmentsOptions(dir, opts, t.valueName, t.extraNames...)
	if err != nil {
		return err
	}
	scratch := make([]float64, len(t.extraNames))
	var wins []*blockWindow
	var memos []blockMemo
	if t.bcols != nil {
		wins = make([]*blockWindow, len(t.bcols))
		memos = make([]blockMemo, len(t.bcols))
		for c, bc := range t.bcols {
			wins[c] = newBlockWindow(bc, 0, int(bc.rows))
		}
	}
	for gi, name := range t.names {
		if err := w.StartGroup(name); err != nil {
			w.abort()
			return err
		}
		for row := t.offsets[gi]; row < t.offsets[gi+1]; row++ {
			var v float64
			if wins != nil {
				v = wins[0].at(&memos[0], row)
				for e := range scratch {
					scratch[e] = wins[1+e].at(&memos[1+e], row)
				}
			} else {
				v = t.col[row]
				for e := range scratch {
					scratch[e] = t.extras[e][row]
				}
			}
			if err := w.Append(v, scratch...); err != nil {
				w.abort()
				return err
			}
		}
	}
	if t.bcols != nil {
		if err := t.bcols[0].cache.Err(); err != nil {
			w.abort()
			return err
		}
	}
	return w.Close()
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
	dir   string
	maps  []*mmapfile.Mapping
	man   *segManifest
	data  [][]byte    // raw column data regions, [0] = value, [1+e] = extra e
	cache *blockCache // decoded-block LRU (compressed tables only)
}

// Dir returns the segment directory the table was opened from.
func (st *SegmentTable) Dir() string { return st.dir }

// Compressed reports whether the table serves v2 block-compressed columns.
func (st *SegmentTable) Compressed() bool { return st.cache != nil }

// Err returns the first block-decode failure encountered while serving
// reads, if any. Draw paths have no error channel, so corruption discovered
// mid-draw degrades those rows to zeros and surfaces here; check after
// queries on untrusted segments, or run VerifyChecksums up front.
func (st *SegmentTable) Err() error {
	if st.cache == nil {
		return nil
	}
	return st.cache.Err()
}

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
func (st *SegmentTable) VerifyChecksums() error {
	if st.cache != nil {
		return st.verifyCompressed()
	}
	for _, g := range st.man.Groups {
		lo, hi := g.Offset*8, (g.Offset+g.Rows)*8
		if got := crc32.Checksum(st.data[0][lo:hi], castagnoli); got != g.ValueCRC {
			return fmt.Errorf("dataset: segments: group %q value column checksum mismatch (manifest %08x, data %08x)",
				g.Name, g.ValueCRC, got)
		}
		for e := range st.man.ExtraNames {
			want := uint32(0)
			if e < len(g.ExtraCRCs) {
				want = g.ExtraCRCs[e]
			}
			if got := crc32.Checksum(st.data[1+e][lo:hi], castagnoli); got != want {
				return fmt.Errorf("dataset: segments: group %q column %q checksum mismatch (manifest %08x, data %08x)",
					g.Name, st.man.ExtraNames[e], want, got)
			}
		}
	}
	return nil
}

// verifyCompressed is VerifyChecksums for v2 tables: per column, decode
// every block directly, compare its recomputed zone against the manifest's,
// and fold the decoded values (as little-endian bytes) into per-group
// CRC-32C sums checked against the manifest — the same decoded-byte CRCs a
// v1 segment of this table would carry.
func (st *SegmentTable) verifyCompressed() error {
	var le [8]byte
	var scratch []float64
	for c, bc := range st.Table.bcols {
		gi := 0
		rowsLeft := st.man.Groups[0].Rows
		crc := uint32(0)
		for b := 0; b < bc.nblocks(); b++ {
			vals, _, err := bc.decode(scratch[:0], b)
			if err != nil {
				return err
			}
			scratch = vals
			if got, want := zoneOf(vals), bc.zones[b]; got != want {
				return fmt.Errorf("dataset: segments: column %q block %d zone map mismatch (manifest [%v, %v] nz=%v, decoded [%v, %v] nz=%v)",
					bc.name, b, want.min, want.max, !want.ok, got.min, got.max, !got.ok)
			}
			for _, v := range vals {
				binary.LittleEndian.PutUint64(le[:], math.Float64bits(v))
				crc = crc32.Update(crc, castagnoli, le[:])
				if rowsLeft--; rowsLeft == 0 {
					g := &st.man.Groups[gi]
					want := g.ValueCRC
					if c > 0 {
						want = 0
						if c-1 < len(g.ExtraCRCs) {
							want = g.ExtraCRCs[c-1]
						}
					}
					if crc != want {
						return fmt.Errorf("dataset: segments: group %q column %q checksum mismatch (manifest %08x, decoded data %08x)",
							g.Name, bc.name, want, crc)
					}
					crc = 0
					if gi++; gi < len(st.man.Groups) {
						rowsLeft = st.man.Groups[gi].Rows
					}
				}
			}
		}
	}
	return nil
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
	paths := []string{SegmentValuePath(dir)}
	for e := range man.ExtraNames {
		paths = append(paths, segExtraPath(dir, e))
	}
	for _, path := range paths {
		m, data, err := openSegColumn(path, man.Version, man.Rows)
		if err != nil {
			st.Close()
			return nil, err
		}
		st.maps = append(st.maps, m)
		st.data = append(st.data, data)
	}

	t := &Table{
		minV:       man.MinValue,
		maxV:       man.MaxValue,
		valueName:  man.ValueName,
		extraNames: man.ExtraNames,
	}
	t.offsets = make([]int, len(man.Groups)+1)
	for gi, g := range man.Groups {
		t.names = append(t.names, g.Name)
		t.offsets[gi+1] = t.offsets[gi] + int(g.Rows)
	}
	t.groups = make([]Group, len(man.Groups))

	if man.Version >= segVersion2 {
		// v2: columns are encoded blocks served through a shared decoded-block
		// LRU; groups draw through per-group block windows.
		st.cache = newBlockCache(man.BlockLen)
		t.bcols = make([]*blockColumn, len(st.data))
		for c, data := range st.data {
			blocks := man.Columns[c].Blocks
			offs := make([]int64, len(blocks)+1)
			zones := make([]blockZone, len(blocks))
			for b, blk := range blocks {
				offs[b] = blk.Off
				zones[b] = blockZone{min: blk.Min, max: blk.Max, ok: !blk.NZ}
			}
			offs[len(blocks)] = int64(len(data))
			if last := offs[len(blocks)-1]; last+colcodec.HeaderSize > int64(len(data)) {
				st.Close()
				return nil, fmt.Errorf("dataset: segments: %s: manifest places the last block at offset %d but the column holds %d data bytes (truncated?)",
					paths[c], last, len(data))
			}
			t.bcols[c] = &blockColumn{
				raw: data, offs: offs, zones: zones,
				rows: man.Rows, blockLen: man.BlockLen, colID: c, cache: st.cache,
			}
			if c == 0 {
				t.bcols[c].name = man.ValueName
			} else {
				t.bcols[c].name = man.ExtraNames[c-1]
			}
		}
		for gi, g := range man.Groups {
			win := newBlockWindow(t.bcols[0], g.Offset, int(g.Rows))
			t.groups[gi] = &TableGroup{
				SliceGroup: *newBlockSliceGroup(g.Name, win, g.Mean, g.Max),
				table:      t,
				index:      gi,
			}
		}
		st.Table = t
		return st, nil
	}

	cols := make([][]float64, 0, len(st.data))
	for c, data := range st.data {
		col, err := mmapfile.Float64s(data)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("dataset: segments: %s: %w", paths[c], err)
		}
		cols = append(cols, col)
	}
	t.col = cols[0]
	t.extras = cols[1:]
	for gi, g := range man.Groups {
		t.groups[gi] = &TableGroup{
			SliceGroup: *newSegmentSliceGroup(g.Name, t.col[t.offsets[gi]:t.offsets[gi+1]], g.Mean, g.Max),
			table:      t,
			index:      gi,
		}
	}
	st.Table = t
	return st, nil
}
