package rapidviz

import (
	"io"
	"os"

	"repro/internal/dataset"
)

// Row is one raw record of a GROUP BY ingestion: a group label and the
// value the query aggregates.
type Row = dataset.Row

// Table is a columnar (group, value) store produced by ingestion. Every
// group's values are packed contiguously, so the engine's batched sampling
// runs over dense memory; Groups() returns the zero-copy sampling groups
// ready to pass to Engine.Run or Engine.Stream. The groups are immutable —
// each run keeps its draw state to itself — so one table's Groups() can
// serve any number of concurrent queries.
type Table = dataset.Table

// TableView is a predicate-filtered view of a Table, produced by
// Table.Filter: the surviving groups restricted to their selected rows,
// sharing the table's packed columns. Engine queries normally filter via
// Query.Where (which plans and caches views internally); use Filter
// directly when you want to inspect a selection — its cardinalities,
// value bound, surviving groups — or reuse one across engines.
type TableView = dataset.View

// TableBuilder accumulates raw rows incrementally (streaming ingestion)
// and groups them into a Table on Build. Construct with NewTableBuilder,
// or NewTableBuilderColumns for rows that carry extra filterable columns.
type TableBuilder = dataset.TableBuilder

// NewTableBuilder returns an empty streaming ingestion builder.
func NewTableBuilder() *TableBuilder { return dataset.NewTableBuilder() }

// NewTableBuilderColumns returns a streaming ingestion builder whose rows
// carry a named aggregated value column plus one numeric extra column per
// extraName. Extra columns are never aggregated; they exist for
// Query.Where predicates (Where("dist", OpGE, 500)). Add rows with
// TableBuilder.AddRow, whose extras match extraNames positionally.
func NewTableBuilderColumns(valueName string, extraNames ...string) *TableBuilder {
	return dataset.NewTableBuilderColumns(valueName, extraNames...)
}

// NewTableUniverse ingests raw (group, value) rows into a columnar table,
// grouping them by label in first-seen order. It is the one-call path from
// a real workload — query results, log records — to a universe of sampling
// groups:
//
//	table, err := rapidviz.NewTableUniverse(rows)
//	// handle err ...
//	q := rapidviz.Query{BatchSize: 64, Bound: table.MaxValue()}
//	res, err := engine.Run(ctx, q, table.Groups())
//
// Pass Bound: table.MaxValue() — the builder tracked the value range
// during ingestion, so a query with no Bound would rescan every column to
// re-infer it on each run.
//
// Values must be finite and non-negative (every algorithm requires values
// in [0, c]); shift, clamp or drop them before ingesting otherwise.
func NewTableUniverse(rows []Row) (*Table, error) {
	return dataset.BuildTable(rows)
}

// TableFromCSV ingests group,value records from r. The first column is the
// group label and the second the numeric value; a header row is detected
// automatically when its value column does not parse as a number, and
// names the value column and any extra filterable columns (without a
// header, extra fields are ignored). A value that is negative, NaN or
// infinite is an error. Large inputs are parsed in parallel shards across
// all CPUs and laid out in file order, so the table is byte-identical to a
// sequential read.
func TableFromCSV(r io.Reader) (*Table, error) {
	return dataset.ReadCSV(r)
}

// TableFromCSVFile ingests a CSV file by path, sharding the parse across
// all CPUs like TableFromCSV. The file's size sizes the one buffer the
// sharded parse reads it into.
func TableFromCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f)
}

// SegmentTable is a Table whose columns live in on-disk segment files,
// memory-mapped rather than heap-allocated: rows are paged in by the OS
// only as draws touch them, so tables far larger than RAM stay queryable
// with a resident set proportional to the sampled working set. It embeds
// *Table — every engine path (Run, Stream, Where filters, the serving
// layer) works on it unchanged and produces bit-for-bit the results the
// in-memory table would. Produce segment directories with
// Table.WriteSegments, cmd/datagen -out, or vizsample -write-segments;
// Close unmaps the columns (outstanding draws must be finished first).
type SegmentTable = dataset.SegmentTable

// OpenSegments opens a columnar segment directory written by
// Table.WriteSegments (or the datagen/vizsample writers) as a queryable
// table. Opening is lazy: only the manifest is read and validated — no
// column data is faulted in — so open cost is independent of table size.
// Use SegmentTable.VerifyChecksums to force a full integrity pass. Both
// segment formats open transparently: raw v1 columns serve zero-copy
// mmapped draws, compressed v2 columns (SegmentOptions.Compress) decode
// through a bounded block cache — either way draw streams are bit-for-bit
// identical to the in-memory table's.
func OpenSegments(dir string) (*SegmentTable, error) {
	return dataset.OpenSegments(dir)
}

// SegmentOptions selects the on-disk segment format for
// Table.WriteSegmentsOptions: the zero value writes raw (v1) columns,
// Compress writes block-compressed (v2) columns with per-block zone maps
// that Table.Filter uses to skip blocks no row of which can match.
type SegmentOptions = dataset.SegmentOptions

// TableFromCSVWorkers is TableFromCSV with an explicit parallelism bound.
// Sharded parsing (workers > 1, or 0 for all CPUs on inputs of 512 KiB or
// more) holds the whole input in memory once, to split it at record
// boundaries, plus the table's final columns, which it parses every value
// straight into; workers == 1 streams through the sequential parser
// instead, with memory proportional to the staged columns only — the right
// mode for inputs near the machine's memory budget. The produced table is
// byte-identical in every mode.
func TableFromCSVWorkers(r io.Reader, workers int) (*Table, error) {
	return dataset.ReadCSVWorkers(r, workers)
}
