// Command rapidvizd serves ordering-guaranteed visualization queries over
// HTTP and WebSocket from a single binary: JSON query submission on
// POST /api/query, streamed partials with converging error bars on
// GET /api/stream, Prometheus metrics on GET /metrics, and an embedded
// live dashboard on /.
//
// Usage:
//
//	rapidvizd -csv data.csv [-addr :8080]
//	rapidvizd -demo [-rows 200000] [-seed 1]
//	rapidvizd -segments dir      # serve an on-disk columnar segment
//	                             # table (mmap-backed; larger than RAM).
//	                             # Raw (v1) and block-compressed (v2,
//	                             # written with -compress by datagen or
//	                             # vizsample) directories both serve
//	                             # identically — queries over compressed
//	                             # columns decode through a bounded block
//	                             # cache and return bit-identical results.
//
// Serving knobs:
//
//	-workers N        engine admission capacity (0 = max(8, GOMAXPROCS));
//	                  at most N queries sample concurrently, the rest
//	                  queue and their wait is exported on /metrics
//	-deadline D       default per-query deadline for requests that set none
//	-maxdeadline D    hard clamp on requested deadlines
//	-maxrounds N      per-query round budget (0 = unlimited); requests
//	                  asking for more are capped, which voids the guarantee
//	                  exactly as a client-side cap would
//	-maxdraws N       per-query draw budget, clamped like -maxrounds
//	-cache N          whole-query result cache entries (0 = 256, <0 = off)
//
// The dashboard at / submits queries over the WebSocket stream and renders
// per-group error bars that converge live as sampling rounds complete.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"repro"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		csvPath     = flag.String("csv", "", "CSV file of group,value[,extra...] rows")
		demo        = flag.Bool("demo", false, "serve a built-in synthetic flight-delay dataset")
		rows        = flag.Int64("rows", 200_000, "rows for the -demo dataset")
		seed        = flag.Uint64("seed", 1, "seed for the -demo dataset")
		workers     = flag.Int("workers", 0, "concurrent query limit (0 = max(8, GOMAXPROCS))")
		deadline    = flag.Duration("deadline", 30*time.Second, "default per-query deadline")
		maxDeadline = flag.Duration("maxdeadline", 2*time.Minute, "maximum per-query deadline")
		maxRounds   = flag.Int("maxrounds", 0, "per-query round budget (0 = unlimited)")
		maxDraws    = flag.Int64("maxdraws", 0, "per-query draw budget (0 = unlimited)")
		cache       = flag.Int("cache", 0, "result cache entries (0 = 256, negative = disabled)")
		segments    = flag.String("segments", "", "serve an on-disk columnar segment directory (mmap-backed; instead of -csv/-demo)")
	)
	flag.Parse()

	var (
		table *rapidviz.Table
		err   error
	)
	switch {
	case *segments != "":
		var st *rapidviz.SegmentTable
		st, err = rapidviz.OpenSegments(*segments)
		if err == nil {
			defer st.Close()
			table = st.Table
		}
	case *demo:
		table, err = demoTable(*rows, *seed)
	case *csvPath != "":
		table, err = rapidviz.TableFromCSVFile(*csvPath)
	default:
		fmt.Fprintln(os.Stderr, "rapidvizd: need -csv FILE, -demo, or -segments DIR")
		os.Exit(2)
	}
	if err != nil {
		log.Fatalf("rapidvizd: %v", err)
	}

	srv, err := serve.New(serve.Config{
		Table:           table,
		Workers:         *workers,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		MaxRoundsBudget: *maxRounds,
		MaxDrawsBudget:  *maxDraws,
		CacheEntries:    *cache,
	})
	if err != nil {
		log.Fatalf("rapidvizd: %v", err)
	}
	defer srv.Close()

	log.Printf("rapidvizd: serving %d rows in %d groups on %s", table.NumRows(), table.K(), *addr)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		log.Fatalf("rapidvizd: %v", err)
	}
}

// demoTable builds the synthetic flight-delay table also used by
// cmd/vizsample: arrival delay is the value, scheduled elapsed minutes
// ride along as a filterable extra column.
func demoTable(rows int64, seed uint64) (*rapidviz.Table, error) {
	b := rapidviz.NewTableBuilderColumns("arrdelay", "elapsed")
	err := workload.FlightsRows(rows, seed, func(r workload.FlightRow) error {
		return b.AddRow(r.Airline, r.ArrDelay, r.Elapsed)
	})
	if err != nil {
		return nil, err
	}
	return b.Build()
}
