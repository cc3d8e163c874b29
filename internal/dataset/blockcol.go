// Compressed column plumbing for v2 segments (DESIGN.md §14). A v2 column
// file holds back-to-back colcodec blocks over the whole column (blocks are
// global, blockLen rows each, so block boundaries line up row-wise across
// every column of the table). Three layers serve reads:
//
//   - blockColumn: one column's raw encoded bytes, block offsets, and zone
//     maps, plus the decode path.
//   - blockCache: a bounded LRU of decoded blocks shared by every column of
//     one table. Decode runs outside the lock (duplicate decodes of a block
//     are idempotent); decode failures are sticky and surface through
//     SegmentTable.Err, because draw paths cannot return errors.
//   - blockWindow: one group's (or filtered view's) cursor over a row range
//     of a column. It memoizes the current block so sorted gathers and
//     scans touch the cache mutex once per block, not once per row.
package dataset

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/colcodec"
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
// table. Keys combine column id and block index.
type blockCache struct {
	mu      sync.Mutex
	limit   int // decoded blocks, not bytes; computed from blockCacheBytes
	entries map[uint64][]float64
	order   []uint64 // LRU order, least recent first (small: a few dozen)
	err     error    // first decode failure, sticky
}

func newBlockCache(blockLen int) *blockCache {
	limit := blockCacheBytes / (8 * blockLen)
	if limit < 4 {
		limit = 4
	}
	return &blockCache{limit: limit, entries: make(map[uint64][]float64)}
}

// get returns the cached decoded block, or nil.
func (c *blockCache) get(key uint64) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	vals, ok := c.entries[key]
	if !ok {
		return nil
	}
	if i := slices.Index(c.order, key); i >= 0 && i != len(c.order)-1 {
		copy(c.order[i:], c.order[i+1:])
		c.order[len(c.order)-1] = key
	}
	return vals
}

// put inserts a decoded block, evicting the least recently used entries
// over budget. Racing puts for the same key keep the first value (both are
// identical decodes).
func (c *blockCache) put(key uint64, vals []float64) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.entries[key]; ok {
		return prev
	}
	c.entries[key] = vals
	c.order = append(c.order, key)
	for len(c.order) > c.limit {
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, victim)
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

// blockColumn is one compressed column: the raw encoded bytes (an mmapped
// region), the per-block byte offsets and zone maps from the manifest, and
// the shared cache.
type blockColumn struct {
	raw      []byte
	offs     []int64 // len nblocks+1; block b occupies raw[offs[b]:offs[b+1]]
	zones    []blockZone
	rows     int64
	blockLen int
	colID    int
	cache    *blockCache
}

// nblocks returns the column's block count.
func (bc *blockColumn) nblocks() int { return len(bc.offs) - 1 }

// blockRows returns how many rows block b holds (the last block may be
// short).
func (bc *blockColumn) blockRows(b int) int {
	lo := int64(b) * int64(bc.blockLen)
	n := bc.rows - lo
	if n > int64(bc.blockLen) {
		n = int64(bc.blockLen)
	}
	return int(n)
}

// decode decodes block b directly (no cache), validating the codec payload
// and the decoded row count.
func (bc *blockColumn) decode(dst []float64, b int) ([]float64, colcodec.Codec, error) {
	lo, hi := bc.offs[b], bc.offs[b+1]
	vals, codec, n, err := colcodec.DecodeBlock(dst, bc.raw[lo:hi])
	if err != nil {
		return nil, 0, fmt.Errorf("dataset: segments: column %d block %d: %w", bc.colID, b, err)
	}
	if int64(n) != hi-lo {
		return nil, 0, fmt.Errorf("dataset: segments: column %d block %d: decoded %d bytes of a %d-byte block", bc.colID, b, n, hi-lo)
	}
	if len(vals) != bc.blockRows(b) {
		return nil, 0, fmt.Errorf("dataset: segments: column %d block %d: decoded %d values, manifest layout expects %d",
			bc.colID, b, len(vals), bc.blockRows(b))
	}
	return vals, codec, nil
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
	vals, _, err := bc.decode(nil, b)
	if err != nil {
		bc.cache.fail(err)
		vals = make([]float64, bc.blockRows(b))
	}
	return bc.cache.put(key, vals)
}

// materialize decodes the whole column into one dense slice (Table.Column
// and ExtraColumn on compressed tables; test and tooling paths, not draws).
func (bc *blockColumn) materialize() ([]float64, error) {
	out := make([]float64, 0, bc.rows)
	var scratch []float64
	for b := 0; b < bc.nblocks(); b++ {
		vals, _, err := bc.decode(scratch, b)
		if err != nil {
			return nil, err
		}
		out = append(out, vals...)
		scratch = vals[:0]
	}
	return out, nil
}

// blockWindow is a cursor over rows [lo, lo+n) of a compressed column: the
// per-group (and per-filtered-view) access path. curB/curV memoize the
// block the cursor last touched, so block-sorted gathers and scans pay one
// cache lookup per block. A window is draw state: views must clone it
// (fresh memo) rather than share it across concurrent queries.
type blockWindow struct {
	col  *blockColumn
	lo   int64 // absolute row of the window's first row
	n    int   // rows in the window
	curB int   // memoized block index, -1 when empty
	curV []float64
}

func newBlockWindow(col *blockColumn, lo int64, n int) *blockWindow {
	return &blockWindow{col: col, lo: lo, n: n, curB: -1}
}

// clone returns a window over the same rows with a fresh memo.
func (w *blockWindow) clone() *blockWindow {
	return newBlockWindow(w.col, w.lo, w.n)
}

// at returns the window-local row's value.
func (w *blockWindow) at(row int) float64 {
	abs := w.lo + int64(row)
	b := int(abs / int64(w.col.blockLen))
	if b != w.curB {
		w.curV = w.col.block(b)
		w.curB = b
	}
	return w.curV[abs-int64(b)*int64(w.col.blockLen)]
}

// gatherKeys fills dst from drawCore.gather's sorted keys (row<<32 | slot,
// ascending): ascending rows visit each block once through the memo.
func (w *blockWindow) gatherKeys(keys []uint64, dst []float64) {
	for _, k := range keys {
		dst[uint32(k)] = w.at(int(int32(k >> 32)))
	}
}

// scan visits every row of the window in order.
func (w *blockWindow) scan(fn func(v float64)) {
	bl := int64(w.col.blockLen)
	for abs := w.lo; abs < w.lo+int64(w.n); {
		b := int(abs / bl)
		vals := w.col.block(b)
		start := abs - int64(b)*bl
		end := int64(len(vals))
		if rem := w.lo + int64(w.n) - int64(b)*bl; rem < end {
			end = rem
		}
		for _, v := range vals[start:end] {
			fn(v)
		}
		abs = int64(b)*bl + end
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
