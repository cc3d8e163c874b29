// Columnar (group, value) storage. A Table packs every group's values
// contiguously into one dense column so the batched draw path runs over
// cache-friendly memory, and carries the GroupBy bookkeeping (first-seen
// group order, offsets, value range) that ingestion from raw rows or CSV
// needs. Tables are the bridge between real workloads — log lines, query
// results, CSV exports — and the sampling algorithms, which consume them
// as zero-copy SliceGroup views over column segments.
//
// Ingestion is sharded: BuildTable and ReadCSV split their input into
// per-worker shards, stage each shard's groups in parallel, and merge the
// shards in input order. The merge is stable — group order is the global
// first-seen order and every group's rows keep their file order — so the
// produced table is byte-identical to a sequential build no matter how
// many workers ran or in what order shards completed.
package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
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
// col[offsets[i]:offsets[i+1]], groups ordered by first appearance in the
// ingested rows. A table may additionally carry named extra numeric
// columns, row-aligned with the value column and packed in the same group
// order; they exist to be filtered on (Filter / Query.Where), never
// aggregated. Construct with a TableBuilder, BuildTable, or ReadCSV.
type Table struct {
	names   []string
	col     []float64
	offsets []int
	groups  []Group
	minV    float64
	maxV    float64

	valueName  string      // ingested name of the value column ("value" default)
	extraNames []string    // extra column names, in ingestion order
	extras     [][]float64 // extras[e] is row-aligned with col

	// bcols replaces col/extras for compressed (v2) segment tables:
	// bcols[0] is the value column, bcols[1+e] extra e, all decoding
	// through one shared block cache. Column and ExtraColumn materialize
	// on demand; draw paths read through per-group block windows.
	bcols []*blockColumn
}

// K returns the number of distinct groups.
func (t *Table) K() int { return len(t.names) }

// NumRows returns the total number of ingested rows.
func (t *Table) NumRows() int {
	if t.col == nil && len(t.offsets) > 0 {
		return t.offsets[len(t.offsets)-1]
	}
	return len(t.col)
}

// Names returns the group labels in first-seen order. The slice is owned
// by the table.
func (t *Table) Names() []string { return t.names }

// Column returns group i's packed values. On plain tables the slice
// aliases the table's column storage (callers must not mutate it); on
// compressed segment tables it is materialized by decoding the group's
// blocks, so each call allocates — tooling and verification use it, draw
// paths never do.
func (t *Table) Column(i int) []float64 {
	if t.bcols != nil {
		return t.materializeRange(t.bcols[0], t.offsets[i], t.offsets[i+1])
	}
	return t.col[t.offsets[i]:t.offsets[i+1]]
}

// materializeRange decodes rows [lo, hi) of a compressed column into a
// fresh slice. Corrupt blocks degrade to zeros and surface through
// SegmentTable.Err, like every cache read.
func (t *Table) materializeRange(bc *blockColumn, lo, hi int) []float64 {
	out := make([]float64, 0, hi-lo)
	w := newBlockWindow(bc, int64(lo), hi-lo)
	w.scan(func(v float64) { out = append(out, v) })
	return out
}

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

// ExtraColumn returns the named extra column, row-aligned with the packed
// value column (group i's rows occupy the same offsets). The slice aliases
// table storage; callers must not mutate it.
func (t *Table) ExtraColumn(name string) ([]float64, bool) {
	for e, n := range t.extraNames {
		if n == name {
			if t.bcols != nil {
				return t.materializeRange(t.bcols[1+e], 0, t.NumRows()), true
			}
			return t.extras[e], true
		}
	}
	return nil, false
}

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
// declared extra columns — those rows carry more fields; use AddRow.
func (b *TableBuilder) Add(group string, value float64) {
	if err := b.AddRow(group, value); err != nil {
		panic(err.Error())
	}
}

// AddRow ingests one raw row, extras matching the builder's extra columns
// positionally.
func (b *TableBuilder) AddRow(group string, value float64, extras ...float64) error {
	if len(extras) != len(b.stage.extraNames) {
		return fmt.Errorf("dataset: row has %d extra values, builder declared %d extra columns %v",
			len(extras), len(b.stage.extraNames), b.stage.extraNames)
	}
	b.stage.add(group, value, extras)
	return nil
}

// Len returns the number of rows ingested so far.
func (b *TableBuilder) Len() int { return b.stage.rows }

// Build packs the accumulated rows into a Table. The per-group staging
// slices are released; the builder can be reused afterwards (it restarts
// empty, keeping its declared columns). Negative values are rejected
// because every algorithm requires values in [0, c].
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
	index  map[string]int
	names  []string
	cols   [][]float64
	extras [][][]float64 // [group][extra][row], parallel to cols
	rows   int
	minV   float64
	maxV   float64
	neg    bool
	negV   float64

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
		s.cols = append(s.cols, nil)
		if len(s.extraNames) > 0 {
			s.extras = append(s.extras, make([][]float64, len(s.extraNames)))
		}
	}
	s.cols[i] = append(s.cols[i], value)
	for e, v := range extras {
		s.extras[i][e] = append(s.extras[i][e], v)
	}
	if s.rows == 0 || value < s.minV {
		s.minV = value
	}
	if s.rows == 0 || value > s.maxV {
		s.maxV = value
	}
	if value < 0 && !s.neg {
		s.neg = true
		s.negV = value
	}
	s.rows++
}

// mergeStages packs input-ordered shard stages into one Table. Iterating
// shards in input order makes the merge stable: the global group order is
// the true first-seen order over the concatenated input, and each group's
// values are concatenated in input order, so the result does not depend on
// how the shards were scheduled. Column packing and per-group mean
// computation fan out over workers (group destinations are disjoint).
func mergeStages(stages []*tableStage, workers int) (*Table, error) {
	total := 0
	for _, s := range stages {
		total += s.rows
	}
	if total == 0 {
		return nil, fmt.Errorf("dataset: table has no rows")
	}
	for _, s := range stages {
		if s.neg {
			return nil, fmt.Errorf("dataset: table holds negative value %v; shift values into [0, c]", s.negV)
		}
	}

	t := &Table{valueName: stages[0].valueName, extraNames: stages[0].extraNames}
	for _, s := range stages[1:] {
		if s.valueName != t.valueName || !equalStrings(s.extraNames, t.extraNames) {
			return nil, fmt.Errorf("dataset: ingestion shards disagree on column schema (%q%v vs %q%v)",
				t.valueName, t.extraNames, s.valueName, s.extraNames)
		}
	}
	seeded := false
	for _, s := range stages {
		if s.rows == 0 {
			continue
		}
		if !seeded {
			t.minV, t.maxV = s.minV, s.maxV
			seeded = true
			continue
		}
		if s.minV < t.minV {
			t.minV = s.minV
		}
		if s.maxV > t.maxV {
			t.maxV = s.maxV
		}
	}

	// Global first-seen group order, and each shard's local→global map.
	index := map[string]int{}
	locals := make([][]int, len(stages))
	lengths := []int{}
	for si, s := range stages {
		locals[si] = make([]int, len(s.names))
		for li, name := range s.names {
			gi, ok := index[name]
			if !ok {
				gi = len(t.names)
				index[name] = gi
				t.names = append(t.names, name)
				lengths = append(lengths, 0)
			}
			locals[si][li] = gi
			lengths[gi] += len(s.cols[li])
		}
	}

	t.offsets = make([]int, len(t.names)+1)
	for gi, n := range lengths {
		t.offsets[gi+1] = t.offsets[gi] + n
	}
	t.col = make([]float64, total)
	t.extras = make([][]float64, len(t.extraNames))
	for e := range t.extras {
		t.extras[e] = make([]float64, total)
	}
	t.groups = make([]Group, len(t.names))

	// Lay out every (shard, local group) segment: walking shards in input
	// order hands each segment the next destination within its group's
	// column, which is exactly the stable merge — and makes the pack one
	// linear pass over the segments instead of a per-group rescan of every
	// shard (high-cardinality ingests have K within a constant factor of
	// the row count, so anything superlinear in K is superlinear in rows).
	type segment struct{ si, li, dst int }
	var segs []segment
	next := append([]int(nil), t.offsets[:len(t.names)]...)
	for si, s := range stages {
		for li, gi := range locals[si] {
			segs = append(segs, segment{si, li, next[gi]})
			next[gi] += len(s.cols[li])
		}
	}

	// Copy segments, then build the group views, each in parallel: the
	// segment destinations are disjoint by construction, and every group
	// owns a disjoint column slice, so neither fan-out needs locks.
	par.For(len(segs), workers, func(j int) {
		sg := segs[j]
		s := stages[sg.si]
		copy(t.col[sg.dst:], s.cols[sg.li])
		for e := range t.extras {
			copy(t.extras[e][sg.dst:], s.extras[sg.li][e])
		}
	})
	par.For(len(t.names), workers, func(gi int) {
		t.groups[gi] = &TableGroup{
			SliceGroup: *NewSliceGroup(t.names[gi], t.col[t.offsets[gi]:t.offsets[gi+1]]),
			table:      t,
			index:      gi,
		}
	})
	return t, nil
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
// CPUs for large inputs; workers == 1 forces the sequential path. Inputs
// containing quoted fields fall back to the sequential parser (a quoted
// field may hide a record separator, so byte-split points cannot be
// trusted), as does any input a shard fails to parse — the sequential
// rerun reports the canonical error with its record number.
func ReadCSVWorkers(r io.Reader, workers int) (*Table, error) {
	if workers == 1 {
		// Explicit sequential parse streams straight from r — no whole-
		// input buffer.
		return readCSVSequential(r)
	}
	if workers == 0 {
		// Auto mode peeks up to the sharding threshold before committing
		// memory: small inputs stream through the sequential parser
		// without ever being slurped whole; anything larger is worth both
		// the buffer (sharding needs byte-splittable input) and the fan-
		// out.
		head := make([]byte, autoShardMinBytes)
		n, err := io.ReadFull(r, head)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return readCSVSequential(bytes.NewReader(head[:n]))
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: csv: %w", err)
		}
		rest, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("dataset: csv: %w", err)
		}
		return readCSVData(append(head[:n], rest...), runtime.GOMAXPROCS(0))
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: csv: %w", err)
	}
	return readCSVData(data, workers)
}

// readCSVData parses in-memory CSV bytes, sharding when workers and the
// content allow it and falling back to the sequential parser otherwise.
func readCSVData(data []byte, workers int) (*Table, error) {
	if workers > 1 && !bytes.ContainsRune(data, '"') {
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

// readCSVSharded parses quote-free CSV bytes in parallel shards split at
// newline boundaries. It reports ok=false when any shard hits a malformed
// record, in which case the caller redoes the sequential pass to produce
// the canonical error.
func readCSVSharded(data []byte, workers int) (*Table, bool) {
	// Replicate the sequential header rule up front: the first record is a
	// header iff its value column does not parse, and a header fixes the
	// column schema (value name, extra filterable columns) every shard
	// stage must share.
	head := csv.NewReader(bytes.NewReader(data))
	head.FieldsPerRecord = -1
	head.TrimLeadingSpace = true
	rec, err := head.Read()
	if err != nil || len(rec) < 2 {
		return nil, false
	}
	valueName, extraNames, extraFields, isHeader := csvSchema(rec)
	if isHeader {
		data = data[head.InputOffset():]
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

	nshards := len(bounds) - 1
	stages := make([]*tableStage, nshards)
	failed := make([]bool, nshards)
	par.For(nshards, workers, func(si int) {
		cr := csv.NewReader(bytes.NewReader(data[bounds[si]:bounds[si+1]]))
		cr.FieldsPerRecord = -1
		cr.TrimLeadingSpace = true
		s := newTableStageCols(valueName, extraNames)
		scratch := make([]float64, 0, len(extraFields))
		for {
			rec, err := cr.Read()
			if err == io.EOF {
				break
			}
			if err != nil || len(rec) < 2 {
				failed[si] = true
				return
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(rec[1]), 64)
			if err != nil {
				failed[si] = true
				return
			}
			extras, err := csvExtras(rec, extraFields, extraNames, 0, scratch)
			if err != nil {
				failed[si] = true
				return
			}
			s.add(strings.TrimSpace(rec[0]), v, extras)
		}
		stages[si] = &s
	})
	for _, f := range failed {
		if f {
			return nil, false
		}
	}
	t, err := mergeStages(stages, workers)
	if err != nil {
		// Canonical error wording (negative value, empty input) comes from
		// the sequential pass.
		return nil, false
	}
	return t, true
}
