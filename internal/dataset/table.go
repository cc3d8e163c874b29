// Columnar (group, value) storage. A Table packs every group's values
// contiguously into one value column, plus any extra filterable columns,
// each a blockColumn (blockcol.go) — resident in memory for a built table,
// resident or encoded for one served from segments — and carries the
// GroupBy bookkeeping (first-seen group order, offsets, value range) that
// ingestion from raw rows or CSV needs. Tables are the bridge between real
// workloads — log lines, query results, CSV exports — and the sampling
// algorithms, which consume them as zero-copy SliceGroup views over
// column segments.
//
// Ingestion is sharded: BuildTable and ReadCSV split their input into
// per-worker shards, work on the shards in parallel, and lay the shards'
// groups out in input order (placeGroups). BuildTable stages each shard
// and copies the stages into place; the CSV parser counts each shard's
// rows per group first and then parses every value straight into its
// final row. The layout is stable — group order is the global first-seen
// order and every group's rows keep their file order — so the produced
// table is byte-identical to a sequential build no matter how many
// workers ran or in what order shards completed.
package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/par"
)

// Row is one raw record of a GROUP BY ingestion: a group label and the
// value the query aggregates.
type Row struct {
	Group string
	Value float64
}

// Table is a columnar (group, value) store: the values of group i occupy
// rows [offsets[i], offsets[i+1]) of the value column, groups ordered by
// first appearance in the ingested rows. A table may additionally carry
// named extra numeric columns, row-aligned with the value column and
// packed in the same group order; they exist to be filtered on (Filter /
// Query.Where), never aggregated. Construct with a TableBuilder,
// BuildTable, or ReadCSV.
type Table struct {
	names   []string
	offsets []int
	groups  []Group
	minV    float64
	maxV    float64

	valueName  string   // ingested name of the value column ("value" default)
	extraNames []string // extra column names, in ingestion order

	// cols[0] is the value column and cols[1+e] extra e; draw paths read
	// them through the groups, everything else through blockcol.go.
	cols []*blockColumn
}

// K returns the number of distinct groups.
func (t *Table) K() int { return len(t.names) }

// NumRows returns the total number of ingested rows.
func (t *Table) NumRows() int { return t.offsets[len(t.offsets)-1] }

// Names returns the group labels in first-seen order. The slice is owned
// by the table.
func (t *Table) Names() []string { return t.names }

// MinValue and MaxValue bound the ingested values (both 0 for an empty
// table, which builders reject anyway).
func (t *Table) MinValue() float64 { return t.minV }

// MaxValue returns the largest ingested value.
func (t *Table) MaxValue() float64 { return t.maxV }

// ValueColumnName returns the ingested name of the aggregated value column
// ("value" when the source carried no header). Predicates may reference the
// value column by this name, by "value", or by the empty string.
func (t *Table) ValueColumnName() string { return t.valueName }

// ExtraColumnNames returns the names of the table's extra numeric columns,
// in ingestion order. The slice is owned by the table.
func (t *Table) ExtraColumnNames() []string { return t.extraNames }

// Groups returns one sampling group per distinct label, in first-seen
// order. The groups are zero-copy views over the table's column and are
// built once; repeated calls return the same slice. They are immutable —
// every run keeps its draw state in its own Sampler — so any number of
// queries, sequential or concurrent, may sample this one set.
func (t *Table) Groups() []Group { return t.groups }

// View returns Groups(); the benchmark module still calls it.
func (t *Table) View() []Group { return t.groups }

// TableGroup is the concrete group type a Table produces: a zero-copy
// SliceGroup over the group's packed column segment that also knows its
// owning table and position, so the engine can resolve a Query.Where
// filter back to the table's selection layer. It inherits every draw mode
// SliceGroup supports (batched, without-replacement, scannable).
type TableGroup struct {
	SliceGroup
	table *Table
	index int
}

// Table returns the owning table.
func (g *TableGroup) Table() *Table { return g.table }

// GroupIndex returns the group's position in the table's dictionary.
func (g *TableGroup) GroupIndex() int { return g.index }

// TableBacked is implemented by groups that can be traced back to a
// columnar Table — the prerequisite for predicate filtering, which needs
// the table's columns and group index rather than just the sample stream.
type TableBacked interface {
	Group
	// Table returns the owning table.
	Table() *Table
	// GroupIndex returns the group's position in the table's dictionary.
	GroupIndex() int
}

// Universe wraps the table's groups with the value bound c. c == 0 infers
// the bound from the ingested maximum (1 when all values are zero, so the
// bound stays positive). Negative values are rejected at build time, so a
// built table always yields a valid universe.
func (t *Table) Universe(c float64) (*Universe, error) {
	if c < 0 {
		return nil, fmt.Errorf("dataset: table bound must be non-negative, got %v", c)
	}
	if c == 0 {
		c = t.maxV
		if c == 0 {
			c = 1
		}
	} else if t.maxV > c {
		return nil, fmt.Errorf("dataset: table holds value %v above the declared bound %v", t.maxV, c)
	}
	return NewUniverse(c, t.groups...), nil
}

// TableBuilder accumulates raw (group, value) rows and groups them into a
// columnar Table on Build. The zero value is not usable; construct with
// NewTableBuilder (plain group,value rows) or NewTableBuilderColumns
// (named value column plus extra filterable columns).
type TableBuilder struct {
	stage tableStage
}

// NewTableBuilder returns an empty builder with no extra columns.
func NewTableBuilder() *TableBuilder { return NewTableBuilderColumns("value") }

// NewTableBuilderColumns returns an empty builder whose rows carry the
// named aggregated value column plus one numeric extra per extraName —
// columns a Filter (Query.Where) can compare against. Rows are added with
// AddRow, whose extras must match extraNames positionally.
func NewTableBuilderColumns(valueName string, extraNames ...string) *TableBuilder {
	return &TableBuilder{stage: newTableStageCols(valueName, extraNames)}
}

// Add ingests one raw row with no extras. It panics if the builder
// declared extra columns (those rows carry more fields; use AddRow). A
// value that is negative or not finite is staged like any other and makes
// Build fail with the error AddRow would have returned.
func (b *TableBuilder) Add(group string, value float64) {
	if err := b.checkWidth(0); err != nil {
		panic(err.Error())
	}
	b.stage.add(group, value, nil)
}

// AddRow ingests one raw row, extras matching the builder's extra columns
// positionally. A value that is negative or not finite is rejected and the
// row is not added.
func (b *TableBuilder) AddRow(group string, value float64, extras ...float64) error {
	if err := b.checkWidth(len(extras)); err != nil {
		return err
	}
	if err := checkValue(value); err != nil {
		return err
	}
	b.stage.add(group, value, extras)
	return nil
}

// checkWidth reports a row whose extra values do not match the builder's
// extra columns.
func (b *TableBuilder) checkWidth(extras int) error {
	if extras != len(b.stage.extraNames) {
		return fmt.Errorf("dataset: row has %d extra values, builder declared %d extra columns %v",
			extras, len(b.stage.extraNames), b.stage.extraNames)
	}
	return nil
}

// Len returns the number of rows ingested so far.
func (b *TableBuilder) Len() int { return b.stage.rows }

// Build packs the accumulated rows into a Table. The per-group staging
// slices are released; the builder can be reused afterwards (it restarts
// empty, keeping its declared columns).
func (b *TableBuilder) Build() (*Table, error) {
	t, err := mergeStages([]*tableStage{&b.stage}, 1)
	*b = *NewTableBuilderColumns(b.stage.valueName, b.stage.extraNames...)
	return t, err
}

// tableStage is the per-shard (and per-builder) staging area: rows grouped
// by label in first-seen order, with the value-range bookkeeping the final
// table needs. Every stage of one ingestion shares the same column schema
// (value name plus extra names), fixed at construction.
type tableStage struct {
	index     map[string]int
	names     []string
	cols      []stagedCol
	extraCols [][]stagedCol // [group][extra], parallel to cols
	valueRange

	valueName  string
	extraNames []string
}

func newTableStage() tableStage {
	return newTableStageCols("value", nil)
}

func newTableStageCols(valueName string, extraNames []string) tableStage {
	if valueName == "" {
		valueName = "value"
	}
	return tableStage{index: map[string]int{}, valueName: valueName, extraNames: extraNames}
}

// add ingests one row; extras must be len(extraNames) long (callers
// validate — AddRow at the public boundary, the CSV parsers by schema).
func (s *tableStage) add(group string, value float64, extras []float64) {
	i, ok := s.index[group]
	if !ok {
		i = len(s.names)
		s.index[group] = i
		s.names = append(s.names, group)
		s.cols = append(s.cols, stagedCol{})
		if len(s.extraNames) > 0 {
			s.extraCols = append(s.extraCols, make([]stagedCol, len(s.extraNames)))
		}
	}
	s.cols[i].add(value)
	for e, v := range extras {
		s.extraCols[i][e].add(v)
	}
	s.valueRange.add(value)
}

// stagedCol is one group's column while it is staged: full chunks, then
// the one being filled. Chunks double from one value up to stageChunk and
// stay there, so growing the column allocates one chunk and copies nothing
// — an append-grown slice allocates and copies about five times the final
// column on the way — and a group of few rows stays small.
type stagedCol struct {
	full [][]float64
	cur  []float64
	n    int // values in full
}

const stageChunk = 8192 // values: 64 KiB

func (c *stagedCol) add(v float64) {
	if len(c.cur) == cap(c.cur) && c.cur != nil {
		c.full = append(c.full, c.cur)
		c.n += len(c.cur)
		c.cur = make([]float64, 0, min(2*cap(c.cur), stageChunk))
	}
	c.cur = append(c.cur, v)
}

func (c *stagedCol) len() int { return c.n + len(c.cur) }

// copyTo copies the column's values, in order, to the front of dst.
func (c *stagedCol) copyTo(dst []float64) {
	for _, chunk := range c.full {
		dst = dst[copy(dst, chunk):]
	}
	copy(dst, c.cur)
}

// valueRange folds a value column's row count, range and first invalid
// value in input order; a table's range is its shards' ranges merged in
// input order, so it does not depend on how the input was sharded.
type valueRange struct {
	rows       int
	minV, maxV float64
	bad        bool    // a value failed checkValue
	badV       float64 // the first such value
}

func (r *valueRange) add(v float64) {
	if r.rows == 0 || v < r.minV {
		r.minV = v
	}
	if r.rows == 0 || v > r.maxV {
		r.maxV = v
	}
	if !r.bad && !validValue(v) {
		r.bad, r.badV = true, v
	}
	r.rows++
}

// merge folds the range of the input that follows r's.
func (r *valueRange) merge(o valueRange) {
	switch {
	case o.rows == 0:
		return
	case r.rows == 0:
		*r = o
		return
	}
	if o.minV < r.minV {
		r.minV = o.minV
	}
	if o.maxV > r.maxV {
		r.maxV = o.maxV
	}
	if !r.bad && o.bad {
		r.bad, r.badV = true, o.badV
	}
	r.rows += o.rows
}

// err reports an empty column or the first invalid value.
func (r *valueRange) err() error {
	if r.rows == 0 {
		return fmt.Errorf("dataset: table has no rows")
	}
	if r.bad {
		return checkValue(r.badV)
	}
	return nil
}

// validValue reports whether v may enter a value column: every algorithm
// needs values in [0, c], so v must be finite and non-negative (NaN fails
// both comparisons).
func validValue(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// checkValue is the one value rule of every ingest boundary — the row
// builder, BuildTable, both CSV parsers and SegmentWriter.Append — with
// one error wording.
func checkValue(v float64) error {
	if validValue(v) {
		return nil
	}
	return fmt.Errorf("dataset: value %v is negative or not finite; values must lie in [0, c] (shift or drop them)", v)
}

// mergeStages packs input-ordered shard stages into one Table. Iterating
// shards in input order makes the merge stable: the global group order is
// the true first-seen order over the concatenated input, and each group's
// values are concatenated in input order, so the result does not depend on
// how the shards were scheduled. Column packing and per-group mean
// computation fan out over workers (group destinations are disjoint).
func mergeStages(stages []*tableStage, workers int) (*Table, error) {
	var vr valueRange
	for _, s := range stages {
		vr.merge(s.valueRange)
	}
	if err := vr.err(); err != nil {
		return nil, err
	}
	t := &Table{valueName: stages[0].valueName, extraNames: stages[0].extraNames, minV: vr.minV, maxV: vr.maxV}
	for _, s := range stages[1:] {
		if s.valueName != t.valueName || !equalStrings(s.extraNames, t.extraNames) {
			return nil, fmt.Errorf("dataset: ingestion shards disagree on column schema (%q%v vs %q%v)",
				t.valueName, t.extraNames, s.valueName, s.extraNames)
		}
	}

	names := make([][]string, len(stages))
	counts := make([][]int, len(stages))
	for si, s := range stages {
		names[si] = s.names
		counts[si] = make([]int, len(s.cols))
		for li := range s.cols {
			counts[si][li] = s.cols[li].len()
		}
	}
	dst := t.placeGroups(names, counts)
	cols := newColumns(1+len(t.extraNames), vr.rows)

	// Copy every (shard, local group) segment to its destination in
	// parallel: the destinations are disjoint by construction, so the fan-
	// out needs no locks.
	type segment struct{ si, li int }
	var segs []segment
	for si, s := range stages {
		for li := range s.cols {
			segs = append(segs, segment{si, li})
		}
	}
	par.For(len(segs), workers, func(j int) {
		sg := segs[j]
		s := stages[sg.si]
		at := dst[sg.si][sg.li]
		s.cols[sg.li].copyTo(cols[0][at:])
		for e, col := range cols[1:] {
			s.extraCols[sg.li][e].copyTo(col[at:])
		}
	})
	t.setColumns(cols, workers)
	return t, nil
}

// newColumns allocates n columns of rows values each.
func newColumns(n, rows int) [][]float64 {
	cols := make([][]float64, n)
	for c := range cols {
		cols[c] = make([]float64, rows)
	}
	return cols
}

// placeGroups lays out the groups of input-ordered shards, given each
// shard's group names in local first-seen order and its row count per
// local group. It sets t.names to the global first-seen order and
// t.offsets to each group's span, and returns dst[si][li]: the row where
// shard si's local group li starts. Walking shards in input order hands
// each (shard, group) segment the next rows of its group's column, which is
// exactly the stable merge, and keeps the layout linear in the segments
// (high-cardinality ingests have K within a constant factor of the row
// count, so anything superlinear in K is superlinear in rows).
func (t *Table) placeGroups(names [][]string, counts [][]int) [][]int {
	index := map[string]int{}
	locals := make([][]int, len(names))
	var lengths []int
	for si := range names {
		locals[si] = make([]int, len(names[si]))
		for li, name := range names[si] {
			gi, ok := index[name]
			if !ok {
				gi = len(t.names)
				index[name] = gi
				t.names = append(t.names, name)
				lengths = append(lengths, 0)
			}
			locals[si][li] = gi
			lengths[gi] += counts[si][li]
		}
	}
	t.offsets = make([]int, len(t.names)+1)
	for gi, n := range lengths {
		t.offsets[gi+1] = t.offsets[gi] + n
	}
	// Each segment's global group index becomes its first row.
	next := append([]int(nil), t.offsets[:len(t.names)]...)
	for si := range locals {
		for li, gi := range locals[si] {
			locals[si][li] = next[gi]
			next[gi] += counts[si][li]
		}
	}
	return locals
}

// setColumns makes the packed columns — cols[0] the value column, cols[1+e]
// extra e — the table's resident columns, and builds the group views over
// the value column in parallel: every group owns a disjoint column slice.
func (t *Table) setColumns(cols [][]float64, workers int) {
	t.cols = make([]*blockColumn, len(cols))
	for c, col := range cols {
		t.cols[c] = newResidentColumn(col, nil)
	}
	t.groups = make([]Group, len(t.names))
	par.For(len(t.names), workers, func(gi int) {
		t.groups[gi] = &TableGroup{
			SliceGroup: *NewSliceGroup(t.names[gi], cols[0][t.offsets[gi]:t.offsets[gi+1]]),
			table:      t,
			index:      gi,
		}
	})
}

// equalStrings reports element-wise equality of two string slices.
func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// autoShardMinRows and autoShardMinBytes gate auto-parallel ingestion:
// below these sizes the shard bookkeeping costs more than it saves, so
// workers-0 calls stay sequential. Explicit worker counts always shard.
const (
	autoShardMinRows  = 1 << 15
	autoShardMinBytes = 1 << 19
)

// BuildTable groups raw rows by label (first-seen order) into a columnar
// Table — the one-call ingestion path for in-memory row sets. Large inputs
// are sharded across all CPUs; the result is identical to a sequential
// build (see BuildTableWorkers).
func BuildTable(rows []Row) (*Table, error) {
	return BuildTableWorkers(rows, 0)
}

// BuildTableWorkers is BuildTable with an explicit parallelism bound.
// workers == 0 uses all CPUs for large inputs and stays sequential for
// small ones; workers == 1 forces a sequential build; larger values shard
// the rows across that many goroutines. The produced table is byte-
// identical for every workers value.
func BuildTableWorkers(rows []Row, workers int) (*Table, error) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
		if len(rows) < autoShardMinRows {
			workers = 1
		}
	}
	nshards := workers
	if nshards > len(rows) {
		nshards = len(rows)
	}
	if nshards <= 1 {
		s := newTableStage()
		for _, row := range rows {
			s.add(row.Group, row.Value, nil)
		}
		return mergeStages([]*tableStage{&s}, 1)
	}
	stages := make([]*tableStage, nshards)
	par.For(nshards, workers, func(si int) {
		lo := si * len(rows) / nshards
		hi := (si + 1) * len(rows) / nshards
		s := newTableStage()
		for _, row := range rows[lo:hi] {
			s.add(row.Group, row.Value, nil)
		}
		stages[si] = &s
	})
	return mergeStages(stages, workers)
}

// ReadCSV ingests group,value records from r into a Table. The first
// column is the group label and the second the numeric value. A header row
// is detected automatically (its value column does not parse as a number)
// and fixes the column schema: field 2's name becomes the table's value
// column name, and every named field past it declares an extra numeric
// column — row-aligned, filterable via Table.Filter / Query.Where — whose
// values must then parse on every record. Headerless inputs keep the
// legacy shape: "value" plus ignored extra fields. Records may vary in
// width but need at least two fields (plus any header-declared extras).
// Large inputs are parsed in parallel shards; the result is identical to a
// sequential read (see ReadCSVWorkers).
func ReadCSV(r io.Reader) (*Table, error) {
	return ReadCSVWorkers(r, 0)
}

// ReadCSVWorkers is ReadCSV with an explicit parallelism bound: the input
// is split at record boundaries into shards parsed concurrently, then
// merged in file order, so the produced table is byte-identical for every
// workers value — per-group row order included. workers == 0 uses all
// CPUs for large inputs; workers == 1 forces the sequential path, which
// streams from r. The sharded path holds the input in memory once — one
// buffer, sized up front when r reports its length (bytes and strings
// readers, regular files) — plus the table's final columns, which it
// parses every value straight into. Inputs holding a quote or a '\r' that
// does not end a line fall back to the sequential parser (a quoted field
// may hide a record separator, so byte-split points cannot be trusted), as
// does any input a shard fails to parse — the sequential rerun reports the
// canonical error with its record number.
func ReadCSVWorkers(r io.Reader, workers int) (*Table, error) {
	if workers == 1 {
		// Explicit sequential parse streams straight from r — no whole-
		// input buffer.
		return readCSVSequential(r)
	}
	// Auto mode peeks up to the sharding threshold before committing
	// memory: small inputs stream through the sequential parser without
	// ever being slurped whole; anything larger is worth both the buffer
	// (sharding needs byte-splittable input) and the fan-out. A reader
	// that reports a size below the threshold skips the peek. The peeked
	// bytes stay in place at the head of the one buffer.
	peek := 0
	if workers == 0 {
		workers, peek = runtime.GOMAXPROCS(0), autoShardMinBytes
	}
	size := inputSize(r)
	if 0 < size && size < peek {
		return readCSVSequential(r)
	}
	buf := make([]byte, peek, max(size, peek)+512)
	if peek > 0 {
		n, err := io.ReadFull(r, buf)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return readCSVSequential(bytes.NewReader(buf[:n]))
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: csv: %w", err)
		}
	}
	data, err := readRest(buf, r)
	if err != nil {
		return nil, fmt.Errorf("dataset: csv: %w", err)
	}
	return readCSVData(data, workers)
}

// inputSize is the number of bytes r holds when r can tell without being
// read: bytes and strings readers report their length, a regular file its
// size (TableFromCSVFile reads from offset 0). Otherwise it is 0.
func inputSize(r io.Reader) int {
	switch r := r.(type) {
	case interface{ Len() int }:
		return r.Len()
	case *os.File:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return int(fi.Size())
		}
	}
	return 0
}

// readRest appends the rest of r to buf, as io.ReadAll does; when buf has
// room for all of it, nothing is reallocated.
func readRest(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// readCSVData parses in-memory CSV bytes, sharding when workers and the
// content allow it and falling back to the sequential parser otherwise.
func readCSVData(data []byte, workers int) (*Table, error) {
	if workers > 1 {
		if t, ok := readCSVSharded(data, workers); ok {
			return t, nil
		}
	}
	return readCSVSequential(bytes.NewReader(data))
}

// csvSchema inspects the first CSV record: it is a header iff it carries a
// value field that does not parse as a number. A header names the value
// column (field 1) and declares one extra filterable column per non-empty
// field past it; extraFields maps each declared extra to its CSV field
// index. Headerless inputs keep the legacy schema — "value" plus ignored
// extra fields.
func csvSchema(rec []string) (valueName string, extraNames []string, extraFields []int, isHeader bool) {
	valueName = "value"
	if len(rec) < 2 {
		return valueName, nil, nil, false
	}
	if _, err := strconv.ParseFloat(strings.TrimSpace(rec[1]), 64); err == nil {
		return valueName, nil, nil, false
	}
	if name := strings.TrimSpace(rec[1]); name != "" {
		valueName = name
	}
	for f := 2; f < len(rec); f++ {
		name := strings.TrimSpace(rec[f])
		if name == "" {
			continue
		}
		extraNames = append(extraNames, name)
		extraFields = append(extraFields, f)
	}
	return valueName, extraNames, extraFields, true
}

// csvExtras parses the extra-column fields of one record into dst (reused
// across records; the stage copies the values out).
func csvExtras(rec []string, extraFields []int, extraNames []string, line int, dst []float64) ([]float64, error) {
	if len(extraFields) == 0 {
		return nil, nil
	}
	dst = dst[:0]
	for e, f := range extraFields {
		if f >= len(rec) {
			return nil, fmt.Errorf("dataset: csv record %d has %d fields, but the header declares column %q in field %d",
				line, len(rec), extraNames[e], f+1)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rec[f]), 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: csv record %d: bad %s value %q", line, extraNames[e], rec[f])
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// readCSVSequential is the reference parser: one pass, exact record
// numbers in errors.
func readCSVSequential(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true
	s := newTableStage()
	var extraFields []int
	var scratch []float64
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: csv: %w", err)
		}
		line++
		if line == 1 {
			// The first record fixes the column schema for the whole file.
			valueName, extraNames, fields, isHeader := csvSchema(rec)
			s = newTableStageCols(valueName, extraNames)
			extraFields = fields
			scratch = make([]float64, 0, len(fields))
			if isHeader {
				continue
			}
		}
		if len(rec) < 2 {
			return nil, fmt.Errorf("dataset: csv record %d has %d fields, want group,value", line, len(rec))
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rec[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: csv record %d: bad value %q", line, rec[1])
		}
		extras, err := csvExtras(rec, extraFields, s.extraNames, line, scratch)
		if err != nil {
			return nil, err
		}
		s.add(strings.TrimSpace(rec[0]), v, extras)
	}
	return mergeStages([]*tableStage{&s}, 1)
}

// readCSVSharded parses CSV bytes in parallel shards split at newline
// boundaries and writes every value straight into its final column. It
// reads the subset of CSV a byte splitter can (see splittable), in two
// passes over each shard: the first splits off each record's group field
// and counts rows per group; placeGroups then lays out the columns, which
// are allocated once; the second parses every value field in place and
// stores it at its row. It reports ok=false for input outside the subset,
// for a malformed record, an invalid value or no rows at all, in which case
// the caller reruns the sequential parser for the canonical error.
func readCSVSharded(data []byte, workers int) (*Table, bool) {
	if !splittable(data) {
		return nil, false
	}
	// The first record fixes the column schema, by the sequential parser's
	// header rule.
	var rec []string
	rest := data
	for len(rest) > 0 && rec == nil {
		var line []byte
		if line, rest = cutLine(rest); len(line) > 0 {
			rec = strings.Split(string(line), ",")
		}
	}
	if len(rec) < 2 {
		return nil, false
	}
	valueName, extraNames, extraFields, isHeader := csvSchema(rec)
	if isHeader {
		data = rest
	}

	// Shard at newline boundaries. Quote-free CSV cannot carry a record
	// separator inside a field, so every '\n' ends a record.
	bounds := []int{0}
	for s := 1; s < workers; s++ {
		target := s * len(data) / workers
		prev := bounds[len(bounds)-1]
		if target < prev {
			target = prev
		}
		nl := bytes.IndexByte(data[target:], '\n')
		if nl < 0 {
			break
		}
		cut := target + nl + 1
		if cut > prev && cut < len(data) {
			bounds = append(bounds, cut)
		}
	}
	bounds = append(bounds, len(data))
	shards := make([]csvShard, len(bounds)-1)
	for si := range shards {
		shards[si].data = data[bounds[si]:bounds[si+1]]
	}

	par.For(len(shards), workers, func(si int) { shards[si].ok = shards[si].count() })
	names := make([][]string, len(shards))
	counts := make([][]int, len(shards))
	for si := range shards {
		if !shards[si].ok {
			return nil, false
		}
		names[si], counts[si] = shards[si].names, shards[si].counts
	}
	t := &Table{valueName: valueName, extraNames: extraNames}
	dst := t.placeGroups(names, counts)
	rows := t.offsets[len(t.names)]
	if rows == 0 {
		return nil, false
	}
	cols := newColumns(1+len(extraNames), rows)
	par.For(len(shards), workers, func(si int) { shards[si].ok = shards[si].parse(cols, dst[si], extraFields) })
	var vr valueRange
	for si := range shards {
		if !shards[si].ok {
			return nil, false
		}
		vr.merge(shards[si].valueRange)
	}
	t.minV, t.maxV = vr.minV, vr.maxV
	t.setColumns(cols, workers)
	return t, true
}

// splittable reports whether data lies in the subset of CSV that
// readCSVSharded parses: no quote, and no '\r' except one that ends a line
// (encoding/csv drops those; any other stays in its field).
func splittable(data []byte) bool {
	if bytes.IndexByte(data, '"') >= 0 {
		return false
	}
	for i := 0; ; {
		j := bytes.IndexByte(data[i:], '\r')
		if j < 0 {
			return true
		}
		i += j + 1
		if i < len(data) && data[i] != '\n' {
			return false
		}
	}
}

// cutLine splits off data's first line, without its '\n' and a '\r'
// before it. Empty lines are no records: callers skip them, as
// encoding/csv does.
func cutLine(data []byte) (line, rest []byte) {
	line, rest = data, nil
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line, rest = data[:i], data[i+1:]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, rest
}

// cutField splits off the first field of a record's remaining text; more
// reports whether another field follows it.
func cutField(text []byte) (field, rest []byte, more bool) {
	if i := bytes.IndexByte(text, ','); i >= 0 {
		return text[:i], text[i+1:], true
	}
	return text, nil, false
}

// numField parses the numeric field at the start of a record's remaining
// text and splits it off as cutField does. A plain decimal is read in a
// single scan (parseDecimal); any other field goes to strconv.ParseFloat
// with the spaces around it ignored, as the sequential parser does.
func numField(text []byte) (v float64, rest []byte, more, ok bool) {
	if v, n, ok := parseDecimal(text); ok {
		if n < len(text) {
			return v, text[n+1:], true, true
		}
		return v, nil, false, true
	}
	field, rest, more := cutField(text)
	v, err := strconv.ParseFloat(string(bytes.TrimSpace(field)), 64)
	return v, rest, more, err == nil
}

// pow10 holds 10^k for the k ≤ 19 parseDecimal divides by; a float64
// holds every power of ten up to 10^22 exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// parseDecimal reads a plain decimal — an optional sign, then digits with
// at most one '.' among them — from the start of text up to the first ','
// or the end, and returns its value and its length. It reports ok=false
// for any other field (an exponent, hex, inf or nan, underscores, spaces,
// no digit) and for a decimal of more than 19 digits or a mantissa above
// 2^53. Otherwise the value is m / 10^k with m ≤ 2^53 and k ≤ 19, both
// exactly representable, and one IEEE division rounds it correctly, so v
// is bit for bit what strconv.ParseFloat returns (Clinger's fast path,
// strconv's own atof64exact).
func parseDecimal(text []byte) (v float64, n int, ok bool) {
	i, neg := 0, false
	if len(text) > 0 && (text[0] == '-' || text[0] == '+') {
		neg, i = text[0] == '-', 1
	}
	var m uint64
	digits, dot := 0, -1 // dot: digits before the '.', -1 before one is seen
	for ; i < len(text) && text[i] != ','; i++ {
		switch c := text[i]; {
		case c-'0' < 10:
			m = m*10 + uint64(c-'0')
			digits++
		case c == '.' && dot < 0:
			dot = digits
		default:
			return 0, 0, false
		}
	}
	if digits == 0 || digits > 19 || m > 1<<53 {
		return 0, 0, false
	}
	v = float64(m)
	if dot >= 0 {
		v /= pow10[digits-dot]
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// csvShard is one shard of readCSVSharded: its bytes, its groups in local
// first-seen order with their row counts, and its value range.
type csvShard struct {
	data   []byte
	index  map[string]int // group name → local index
	names  []string
	counts []int
	valueRange
	ok bool
}

// group returns the local index of the record's group field. With add it
// registers a new name; without, the name must be known.
func (s *csvShard) group(field []byte, add bool) int {
	name := bytes.TrimSpace(field)
	li, ok := s.index[string(name)]
	if !ok && add {
		li = len(s.names)
		n := string(name)
		s.index[n] = li
		s.names = append(s.names, n)
		s.counts = append(s.counts, 0)
	}
	return li
}

// count is pass 1: it counts the shard's rows per group. It fails on a
// record without a value field.
func (s *csvShard) count() bool {
	s.index = map[string]int{}
	for rest := s.data; len(rest) > 0; {
		var line []byte
		if line, rest = cutLine(rest); len(line) == 0 {
			continue
		}
		comma := bytes.IndexByte(line, ',')
		if comma < 0 {
			return false
		}
		s.counts[s.group(line[:comma], true)]++
	}
	return true
}

// parse is pass 2: it parses the shard's value and extra fields into cols
// (cols[0] the value column, cols[1+e] extra e), next[li] being the row
// where local group li's next value goes.
// It fails on a field that does not parse, a record missing a declared
// extra field, or a value checkValue rejects.
func (s *csvShard) parse(cols [][]float64, next []int, extraFields []int) bool {
	for rest := s.data; len(rest) > 0; {
		var line []byte
		if line, rest = cutLine(rest); len(line) == 0 {
			continue
		}
		comma := bytes.IndexByte(line, ',')
		li := s.group(line[:comma], false)
		v, tail, more, ok := numField(line[comma+1:])
		if !ok || !validValue(v) {
			return false
		}
		s.valueRange.add(v)
		row := next[li]
		next[li]++
		cols[0][row] = v
		f := 2 // index of the field tail starts with, if more
		for e, want := range extraFields {
			for ; f < want && more; f++ {
				_, tail, more = cutField(tail)
			}
			if !more {
				return false
			}
			var x float64
			if x, tail, more, ok = numField(tail); !ok {
				return false
			}
			f++
			cols[1+e][row] = x
		}
	}
	return true
}
