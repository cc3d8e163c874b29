// Column storage: the one file that knows how a table's columns are
// stored (DESIGN.md §5, §14). Every column of a Table is a blockColumn,
// cut into blocks that line up row-wise across the table's columns:
//
//   - resident: the column's float64s, a heap slice or a mapped v1
//     segment file, in fixed residentBlockLen-row blocks;
//   - encoded: a v2 segment file's back-to-back colcodec blocks (global,
//     blockLen rows each) with their byte offsets and zone maps.
//
// Four methods serve the layers above, whatever the storage: zone (a
// block's zone map), selectBlock (a conjunction's verdicts on a block,
// compared in place), each (the column in row order, for writers and
// VerifyChecksums) and group (an opened segment group). Draws read
// encoded columns through two more layers:
//
//   - blockCache: a bounded LRU of decoded blocks shared by every column of
//     one table. Decode runs outside the lock (duplicate decodes of a block
//     are idempotent); decode failures are sticky and surface through
//     SegmentTable.Err, because draw paths cannot return errors.
//   - blockWindow: one group's (or filtered view's) row range of a column,
//     read through a blockMemo that remembers the current block, so
//     block-bucketed gathers and scans touch the cache mutex once per
//     block, not once per row. The memo belongs to the reader (a run's
//     cursor), not the window.
package dataset

import (
	"container/list"
	"fmt"
	"math"
	"sync"

	"repro/internal/colcodec"
	"repro/internal/mmapfile"
)

// DefaultBlockLen is the values-per-block default for compressed segment
// writers: 64Ki values = 512 KiB decoded, big enough to amortize headers
// and small enough that a handful of hot blocks fit any LRU budget.
const DefaultBlockLen = 1 << 16

// blockCacheBytes is the decoded-block LRU budget per open table. A var so
// tests can shrink it to force eviction.
var blockCacheBytes = 32 << 20

// blockZone is one block's zone-map entry: the min/max of its decoded
// values. ok is false when the block holds non-finite values (JSON cannot
// carry NaN/±Inf, and ordering predicates cannot prune on them anyway).
type blockZone struct {
	min, max float64
	ok       bool
}

// blockCache is the decoded-block LRU shared by every blockColumn of one
// table. Keys combine column id and block index. Hits move to the back of
// a recency list, puts evict from its front: both O(1) under the mutex.
type blockCache struct {
	mu      sync.Mutex
	limit   int // decoded blocks, not bytes; computed from blockCacheBytes
	entries map[uint64]*list.Element
	order   list.List // of *cachedBlock, least recently used first
	err     error     // first decode failure, sticky
}

// cachedBlock is one entry of a blockCache's recency list.
type cachedBlock struct {
	key  uint64
	vals []float64
}

func newBlockCache(blockLen int) *blockCache {
	limit := blockCacheBytes / (8 * blockLen)
	if limit < 4 {
		limit = 4
	}
	return &blockCache{limit: limit, entries: make(map[uint64]*list.Element)}
}

// get returns the cached decoded block, or nil.
func (c *blockCache) get(key uint64) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.order.MoveToBack(e)
	return e.Value.(*cachedBlock).vals
}

// put inserts a decoded block, evicting the least recently used entries
// over budget. Racing puts for the same key keep the first value (both are
// identical decodes).
func (c *blockCache) put(key uint64, vals []float64) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.entries[key]; ok {
		return prev.Value.(*cachedBlock).vals
	}
	c.entries[key] = c.order.PushBack(&cachedBlock{key, vals})
	for c.order.Len() > c.limit {
		delete(c.entries, c.order.Remove(c.order.Front()).(*cachedBlock).key)
	}
	return vals
}

// fail records the first decode error.
func (c *blockCache) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
}

// Err returns the first decode error, if any.
func (c *blockCache) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// residentBlockLen is the block length of a resident column: the row span
// of one filter step, a 64-word verdict string.
const residentBlockLen = 1 << 12

// blockColumn is one column of a table, the only column type there is. It
// is either resident or encoded:
//
//   - resident: flat holds the whole column, a heap slice or a v1
//     segment's mapped float64s (raw then holds their stored little-endian
//     bytes), in residentBlockLen-row blocks with no zone maps;
//   - encoded: raw holds a v2 segment's colcodec blocks, offs and zones
//     the manifest's block index, and reads decode through the shared
//     cache.
//
// Tables, filters, writers and VerifyChecksums read a column only through
// its methods, so this file is the one that knows the storage.
type blockColumn struct {
	flat     []float64 // resident only
	raw      []byte    // the stored bytes; nil for a heap column
	offs     []int64   // encoded: len nblocks+1; block b occupies raw[offs[b]:offs[b+1]]
	zones    []blockZone
	rows     int64
	blockLen int
	colID    int         // encoded only: the cache key's column
	name     string      // encoded only: the column name, for errors
	cache    *blockCache // encoded only
}

// newResidentColumn returns a resident column over vals; raw is their
// stored little-endian bytes when they are mapped, else nil.
func newResidentColumn(vals []float64, raw []byte) *blockColumn {
	return &blockColumn{flat: vals, raw: raw, rows: int64(len(vals)), blockLen: residentBlockLen}
}

// openSegColumnData returns manifest column c over its data region: a
// resident column over a v1 column's float64s, an encoded one over a v2
// column's blocks, decoding through cache.
func openSegColumnData(man *segManifest, c int, data []byte, cache *blockCache) (*blockColumn, error) {
	if man.Version < segVersion2 {
		vals, err := mmapfile.Float64s(data)
		if err != nil {
			return nil, err
		}
		return newResidentColumn(vals, data), nil
	}
	blocks := man.Columns[c].Blocks
	bc := &blockColumn{
		raw: data, offs: make([]int64, len(blocks)+1), zones: make([]blockZone, len(blocks)),
		rows: man.Rows, blockLen: man.BlockLen, colID: c, name: man.colName(c), cache: cache,
	}
	for b, blk := range blocks {
		bc.offs[b] = blk.Off
		bc.zones[b] = blockZone{min: blk.Min, max: blk.Max, ok: !blk.NZ}
	}
	bc.offs[len(blocks)] = int64(len(data))
	if last := bc.offs[len(blocks)-1]; last+colcodec.HeaderSize > int64(len(data)) {
		return nil, fmt.Errorf("manifest places the last block at offset %d but the column holds %d data bytes (truncated?)",
			last, len(data))
	}
	return bc, nil
}

// encoded reports whether the column is stored as compressed blocks.
func (bc *blockColumn) encoded() bool { return bc.flat == nil }

// err returns the first decode failure the column's cache recorded (nil
// for a resident column, which has nothing to decode).
func (bc *blockColumn) err() error {
	if bc.cache == nil {
		return nil
	}
	return bc.cache.Err()
}

// nblocks returns the column's block count.
func (bc *blockColumn) nblocks() int {
	return int((bc.rows + int64(bc.blockLen) - 1) / int64(bc.blockLen))
}

// blockRows returns how many rows block b holds (the last block may be
// short).
func (bc *blockColumn) blockRows(b int) int {
	return int(min(bc.rows-int64(b)*int64(bc.blockLen), int64(bc.blockLen)))
}

// zone returns block b's zone map; a resident column has none, and its
// unusable zone settles no predicate.
func (bc *blockColumn) zone(b int) blockZone {
	if !bc.encoded() {
		return blockZone{}
	}
	return bc.zones[b]
}

// selectBlock writes into words the verdicts of the conjunction conj on
// block b's rows, one bit per row, comparing in place on the stored form.
func (bc *blockColumn) selectBlock(b int, conj []colcodec.Cmp, words []uint64) error {
	if !bc.encoded() {
		lo := b * bc.blockLen
		colcodec.SelectFloats(conj, bc.flat[lo:lo+bc.blockRows(b)], words)
		return nil
	}
	blk, err := bc.open(b)
	if err != nil {
		return err
	}
	blk.Select(conj, words)
	return nil
}

// each hands fn the column in row order, bypassing the cache, with last
// set on the final piece. A resident column comes in one piece, with its
// stored little-endian bytes when it has them (le is nil otherwise); an
// encoded one block by block, decoded into sc.dec, each block's zone map
// proved against its values first.
func (bc *blockColumn) each(sc *colScratch, fn func(vals []float64, le []byte, last bool) error) error {
	if !bc.encoded() {
		return fn(bc.flat, bc.raw, true)
	}
	for b := range bc.nblocks() {
		vals, err := bc.decode(sc.dec[:0], b)
		if err != nil {
			return err
		}
		sc.dec = vals
		if got, want := zoneOf(vals), bc.zones[b]; got != want {
			return fmt.Errorf("dataset: segments: column %q block %d zone map mismatch (manifest [%v, %v] nz=%v, decoded [%v, %v] nz=%v)",
				bc.name, b, want.min, want.max, !want.ok, got.min, got.max, !got.ok)
		}
		if err := fn(vals, nil, b == bc.nblocks()-1); err != nil {
			return err
		}
	}
	return nil
}

// group returns the group over rows [lo, lo+n) of an opened segment
// column, with its manifest-recorded statistics — no construction scan, so
// opening a table faults in zero data pages. A resident group draws from
// its mapped slice, span by span of DefaultBlockLen rows; an encoded one
// through a window on the shared block cache. A group past sparsePermGate
// keeps its permutation sparse.
func (bc *blockColumn) group(name string, lo int64, n int, mean, maxv float64) *SliceGroup {
	if n == 0 {
		panic(fmt.Sprintf("dataset: group %q has no values", name))
	}
	var core drawCore
	if bc.encoded() {
		core = newDrawCore(nil, &blockWindow{col: bc, lo: lo, n: n}, nil, nil)
	} else {
		core = newDrawCore(bc.flat[lo:lo+int64(n)], nil, nil, nil)
		core.seg = true
	}
	core.sparse = core.total > sparsePermGate
	return &SliceGroup{name: name, mean: mean, maxv: maxv, drawCore: core}
}

// open validates block b's encoding against the manifest layout (its
// byte length and row count) and returns a handle that decodes it or
// compares in place. It touches no cache.
func (bc *blockColumn) open(b int) (colcodec.Block, error) {
	lo, hi := bc.offs[b], bc.offs[b+1]
	blk, err := colcodec.Open(bc.raw[lo:hi])
	switch {
	case err != nil:
	case int64(blk.Size()) != hi-lo:
		err = fmt.Errorf("decoded %d bytes of a %d-byte block", blk.Size(), hi-lo)
	case blk.Len() != bc.blockRows(b):
		err = fmt.Errorf("decoded %d values, manifest layout expects %d", blk.Len(), bc.blockRows(b))
	}
	if err != nil {
		return colcodec.Block{}, fmt.Errorf("dataset: segments: column %q block %d: %w", bc.name, b, err)
	}
	return blk, nil
}

// decode decodes block b directly (no cache).
func (bc *blockColumn) decode(dst []float64, b int) ([]float64, error) {
	blk, err := bc.open(b)
	if err != nil {
		return nil, err
	}
	return blk.Decode(dst), nil
}

// block returns block b's decoded values through the cache. Decode errors
// are sticky on the cache and yield a zero-filled block — draw paths have
// no error channel, so corruption discovered mid-draw degrades to zeros and
// surfaces through SegmentTable.Err / VerifyChecksums.
func (bc *blockColumn) block(b int) []float64 {
	key := uint64(bc.colID)<<48 | uint64(uint32(b))
	if vals := bc.cache.get(key); vals != nil {
		return vals
	}
	vals, err := bc.decode(nil, b)
	if err != nil {
		bc.cache.fail(err)
		vals = make([]float64, bc.blockRows(b))
	}
	return bc.cache.put(key, vals)
}

// blockWindow is one group's (or filtered view's) row range [lo, lo+n) of a
// compressed column. It is immutable; readers that walk it block by block
// carry a blockMemo.
type blockWindow struct {
	col *blockColumn
	lo  int64 // absolute row of the window's first row
	n   int   // rows in the window
}

// blockMemo remembers the decoded block a reader last touched, so
// block-bucketed gathers and scans pay one cache lookup per block, not one
// per row. The zero value is empty. A run's cursor holds one per group.
type blockMemo struct {
	b int
	v []float64 // block b's values; nil when empty
}

// at returns the window-local row's value, through the memo m.
func (w *blockWindow) at(m *blockMemo, row int) float64 {
	abs, bl := w.lo+int64(row), int64(w.col.blockLen)
	return w.block(m, int(abs/bl))[abs%bl]
}

// block returns the column's block b, through the memo m.
func (w *blockWindow) block(m *blockMemo, b int) []float64 {
	if m.v == nil || b != m.b {
		m.v = w.col.block(b)
		m.b = b
	}
	return m.v
}

// scan visits every row of the window in order.
func (w *blockWindow) scan(fn func(v float64)) {
	bl, hi := int64(w.col.blockLen), w.lo+int64(w.n)
	for b := w.lo / bl; b*bl < hi; b++ {
		vals := w.col.block(int(b))
		for _, v := range vals[max(w.lo-b*bl, 0):min(hi-b*bl, int64(len(vals)))] {
			fn(v)
		}
	}
}

// zoneRelation classifies what a [min,max] zone can say about op/c:
// zoneNone (no row can match — skip the block), zoneAll (every row matches
// — the predicate needs no per-row test in this block), zoneSome
// (undecided — evaluate rows).
type zoneRel uint8

const (
	zoneSome zoneRel = iota
	zoneNone
	zoneAll
)

// relate evaluates predicate (op, c) against the zone. Unusable zones and
// non-finite constants stay undecided. The classifications are
// conservative: zoneNone/zoneAll are returned only when provable from the
// interval, so pushdown can skip or bulk-accept blocks without changing
// which rows survive.
func (z blockZone) relate(op PredicateOp, c float64) zoneRel {
	if !z.ok || c != c {
		return zoneSome
	}
	switch op {
	case OpLT:
		if z.max < c {
			return zoneAll
		}
		if z.min >= c {
			return zoneNone
		}
	case OpLE:
		if z.max <= c {
			return zoneAll
		}
		if z.min > c {
			return zoneNone
		}
	case OpGT:
		if z.min > c {
			return zoneAll
		}
		if z.max <= c {
			return zoneNone
		}
	case OpGE:
		if z.min >= c {
			return zoneAll
		}
		if z.max < c {
			return zoneNone
		}
	case OpEQ:
		if z.min == c && z.max == c {
			return zoneAll
		}
		if c < z.min || c > z.max {
			return zoneNone
		}
	case OpNE:
		if c < z.min || c > z.max {
			return zoneAll
		}
		if z.min == c && z.max == c {
			return zoneNone
		}
	}
	return zoneSome
}

// zoneOf computes a block's zone entry from its decoded values: the
// write-side rule, also used by VerifyChecksums to prove manifest zones
// consistent.
func zoneOf(vals []float64) blockZone {
	z := blockZone{min: vals[0], max: vals[0], ok: true}
	for _, v := range vals {
		if v != v || math.IsInf(v, 0) {
			return blockZone{}
		}
		if v < z.min {
			z.min = v
		}
		if v > z.max {
			z.max = v
		}
	}
	return z
}
