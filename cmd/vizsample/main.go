// Command vizsample runs one ordering-guaranteed visualization query over a
// CSV file of (group, value) rows and prints the resulting bar chart next
// to the exact answer, with the sampling saving.
//
// Usage:
//
//	vizsample -csv data.csv [-delta 0.05] [-resolution 0] [-algo ifocus]
//	          [-agg avg] [-bound hoeffding] [-batch 64] [-workers 0]
//	          [-timeout 30s] [-stream] [-where "col>=v,col<v"]
//	vizsample -demo              # run on a built-in synthetic dataset
//	vizsample -segments dir      # query an on-disk columnar segment table
//	vizsample -csv data.csv -write-segments dir   # ingest once, then exit
//
// -segments opens a columnar segment directory (written by
// -write-segments, datagen -out, or Table.WriteSegments) instead of
// ingesting a CSV: columns are memory-mapped, rows page in only as draws
// touch them, and results are bit-for-bit identical to the in-memory
// table for the same query and seed — the path for tables larger than
// RAM. -write-segments ingests the input (-csv or -demo), writes it as a
// segment directory, and exits; pair it with any ingestion flags.
//
// -bound picks the concentration inequality behind the confidence
// intervals: hoeffding (the paper's schedule, default), bernstein
// (variance-adaptive empirical-Bernstein — per-group intervals that
// shrink with the observed spread, typically several-fold fewer samples
// on low-variance columns), or bernstein-finite (bernstein plus a
// finite-population correction).
//
// -algo selects the sampling strategy (ifocus | irefine | roundrobin |
// scan | noindex), -agg the aggregate (avg | sum | count), -batch the
// number of samples drawn per contentious group per round (1 = the
// paper-exact scalar schedule; larger blocks trade a few extra samples for
// a several-fold throughput gain), -workers the goroutines fanning out
// each round's per-group draws (0 = all idle engine workers; results are
// identical for every value), -growth an optional geometric block growth
// factor, -timeout bounds the run via context cancellation, and -stream
// prints each group the moment its estimate settles.
//
// -where restricts the query to the rows matching a comma-separated
// predicate conjunction: typed comparisons "col OP number" (OP one of
// < <= > >= == !=; "value" — or the CSV header's value-column name, or a
// header-declared extra column — names the column) plus group inclusion
// "group in A|B|C". The exact baseline is filtered identically, so the
// printed saving compares like with like. The -demo dataset carries an
// "elapsed" extra column (scheduled flight minutes), so e.g.
// -where "elapsed>=150" charts the delays of long-haul flights only.
//
// The CSV is ingested into a columnar table: the first column is the group
// label and the second the numeric value; a header row is detected and
// skipped automatically, and header fields past the value column declare
// extra numeric columns that -where can filter on.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/workload"
)

func main() {
	var (
		csvPath    = flag.String("csv", "", "CSV file of group,value rows")
		demo       = flag.Bool("demo", false, "use a built-in synthetic flight-delay dataset")
		delta      = flag.Float64("delta", 0.05, "failure probability")
		resolution = flag.Float64("resolution", 0, "visual resolution r (0 = exact ordering)")
		algo       = flag.String("algo", "ifocus", "ifocus | irefine | roundrobin | scan | noindex")
		agg        = flag.String("agg", "avg", "avg | sum | count")
		boundKind  = flag.String("bound", "hoeffding", "confidence bound: hoeffding | bernstein | bernstein-finite (variance-adaptive bounds need far fewer samples on low-spread data)")
		seed       = flag.Uint64("seed", 1, "random seed")
		batch      = flag.Int("batch", 0, "samples per contentious group per round (0/1 = paper-exact scalar rounds)")
		workers    = flag.Int("workers", 0, "goroutines drawing per-group blocks each round (0 = all idle engine workers; identical results at any value)")
		growth     = flag.Float64("growth", 0, "geometric per-round block growth factor (0/1 = fixed blocks)")
		timeout    = flag.Duration("timeout", 0, "abort the query after this long (0 = no limit)")
		maxDraws   = flag.Int64("maxdraws", 0, "cap total draws (0 = unlimited; the cap voids the guarantee)")
		stream     = flag.Bool("stream", false, "print each group the moment its estimate settles")
		where      = flag.String("where", "", `predicate filter, e.g. "elapsed>=150,value<600" or "group in AA|DL" (comma = AND)`)
		segments   = flag.String("segments", "", "query an on-disk columnar segment directory (mmap-backed; instead of -csv/-demo)")
		writeSegs  = flag.String("write-segments", "", "ingest (-csv or -demo), write the table as a segment directory, and exit")
		compress   = flag.Bool("compress", false, "with -write-segments: write block-compressed (v2) segments with zone maps")
		blockLen   = flag.Int("block-len", 0, "with -compress: values per block (default 64Ki)")
	)
	flag.Parse()

	preds, err := parseWhere(*where)
	if err != nil {
		fatal(err)
	}

	var table *rapidviz.Table
	switch {
	case *segments != "":
		if *csvPath != "" || *demo {
			fatal(fmt.Errorf("-segments replaces ingestion; drop -csv/-demo"))
		}
		st, err := rapidviz.OpenSegments(*segments)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		table = st.Table
	case *demo:
		table, err = demoTable(*seed)
	case *csvPath != "":
		table, err = rapidviz.TableFromCSVFile(*csvPath)
	default:
		fmt.Fprintln(os.Stderr, "vizsample: need -csv FILE, -demo, or -segments DIR")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	if *writeSegs != "" {
		opts := rapidviz.SegmentOptions{Compress: *compress, BlockLen: *blockLen}
		if err := table.WriteSegmentsOptions(*writeSegs, opts); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "vizsample: wrote %d groups to %s\n", len(table.Groups()), *writeSegs)
		return
	}
	// The ingestion builder tracked the value range, so the queries below
	// need not rescan the columns to infer a bound. (The ingested max also
	// bounds every filtered subset.)
	groups, bound := table.Groups(), table.MaxValue()

	q := rapidviz.Query{
		Delta:           *delta,
		Resolution:      *resolution,
		Bound:           bound,
		ConfidenceBound: *boundKind,
		Seed:            *seed,
		MaxDraws:        *maxDraws,
		BatchSize:       *batch,
		RoundGrowth:     *growth,
		Workers:         *workers,
		Where:           preds,
	}
	switch *algo {
	case "ifocus":
		q.Algorithm = rapidviz.AlgoIFocus
	case "irefine":
		q.Algorithm = rapidviz.AlgoIRefine
	case "roundrobin":
		q.Algorithm = rapidviz.AlgoRoundRobin
	case "scan":
		q.Algorithm = rapidviz.AlgoScan
	case "noindex":
		q.Algorithm = rapidviz.AlgoNoIndex
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}
	switch *agg {
	case "avg":
		q.Aggregate = rapidviz.AggAvg
	case "sum":
		q.Aggregate = rapidviz.AggSum
	case "count":
		q.Aggregate = rapidviz.AggCount
	default:
		fatal(fmt.Errorf("unknown aggregate %q", *agg))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{})
	if err != nil {
		fatal(err)
	}

	var res *rapidviz.Result
	if *stream {
		settled := 0
		for ev := range eng.Stream(ctx, q, groups) {
			switch {
			case ev.Partial != nil:
				settled++
				fmt.Printf("  settled %2d/%d: %-12s %.3f ±%.3f (round %d)\n",
					settled, len(groups), ev.Partial.Group, ev.Partial.Estimate, ev.Partial.HalfWidth, ev.Partial.Round)
			case ev.Err != nil:
				fatal(ev.Err)
			default:
				res = ev.Result
			}
		}
		if res == nil {
			fatal(fmt.Errorf("stream ended without a result (canceled?)"))
		}
	} else {
		res, err = eng.Run(ctx, q, groups)
		if err != nil {
			fatal(err)
		}
	}

	// The exact baseline carries the same filter, so the reported saving
	// compares the filtered query against a filtered scan.
	exact, err := eng.Run(ctx, rapidviz.Query{Algorithm: rapidviz.AlgoScan, Bound: bound, Where: preds}, groups)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s/%s (delta=%.3g", *algo, *agg, *delta)
	if *boundKind != "" && *boundKind != "hoeffding" {
		fmt.Printf(", bound=%s", *boundKind)
	}
	if len(preds) > 0 {
		fmt.Printf(", where %s", *where)
	}
	if *resolution > 0 {
		fmt.Printf(", r=%g", *resolution)
	}
	fmt.Printf(") — %d samples of %d values (%.3f%%)\n\n",
		res.TotalSamples, exact.TotalSamples,
		100*float64(res.TotalSamples)/float64(exact.TotalSamples))
	fmt.Print(res.Render())
	fmt.Println("\nexact AVG (full scan):")
	fmt.Print(exact.Render())
}

// demoTable builds a small materialized flight-delay table. The arrival
// delay is the aggregated value; the scheduled elapsed minutes ride along
// as an extra column so -where can filter (e.g. "elapsed>=150" keeps
// long-haul flights only).
func demoTable(seed uint64) (*rapidviz.Table, error) {
	b := rapidviz.NewTableBuilderColumns("arrdelay", "elapsed")
	err := workload.FlightsRows(200_000, seed, func(r workload.FlightRow) error {
		return b.AddRow(r.Airline, r.ArrDelay, r.Elapsed)
	})
	if err != nil {
		return nil, err
	}
	return b.Build()
}

// whereOps lists the comparison spellings longest-first, so ">=" is tried
// before ">".
var whereOps = []struct {
	text string
	op   rapidviz.PredicateOp
}{
	{">=", rapidviz.OpGE}, {"<=", rapidviz.OpLE}, {"!=", rapidviz.OpNE},
	{"==", rapidviz.OpEQ}, {">", rapidviz.OpGT}, {"<", rapidviz.OpLT},
	{"=", rapidviz.OpEQ},
}

// parseWhere parses the -where mini-language: a comma-separated
// conjunction of "col OP number" comparisons and "group in A|B|C"
// inclusion clauses.
func parseWhere(s string) ([]rapidviz.Predicate, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var preds []rapidviz.Predicate
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(clause, "group in "); ok {
			var names []string
			for _, n := range strings.Split(rest, "|") {
				if n = strings.TrimSpace(n); n != "" {
					names = append(names, n)
				}
			}
			if len(names) == 0 {
				return nil, fmt.Errorf(`empty group list in %q`, clause)
			}
			preds = append(preds, rapidviz.WhereGroups(names...))
			continue
		}
		matched := false
		for _, cand := range whereOps {
			col, valText, ok := strings.Cut(clause, cand.text)
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(valText), 64)
			if err != nil {
				return nil, fmt.Errorf("bad constant in %q: %w", clause, err)
			}
			preds = append(preds, rapidviz.Where(strings.TrimSpace(col), cand.op, v))
			matched = true
			break
		}
		if !matched {
			return nil, fmt.Errorf(`cannot parse clause %q (want "col>=42" or "group in A|B")`, clause)
		}
	}
	return preds, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vizsample:", err)
	os.Exit(1)
}
