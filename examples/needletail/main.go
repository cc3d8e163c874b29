// Needletail demonstrates the storage substrate directly: build a
// bitmap-indexed row store over synthetic flight records, run IFOCUS
// (through the public Engine/Query API, under a context deadline) and
// SCAN against it, apply an ad-hoc selection predicate (§6.3.3 of the
// paper), and report the simulated I/O / CPU cost split and the index
// compression ratio.
//
//	go run ./examples/needletail
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/needletail"
	"repro/internal/needletail/disksim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func main() {
	const rows = 300_000
	device := disksim.MustNew(disksim.DefaultCostModel())
	schema := needletail.Schema{
		GroupColumn:  "airline",
		ValueColumns: []string{"elapsed", "arrdelay", "depdelay"},
	}

	fmt.Printf("loading %d flight rows into a bitmap-indexed row store...\n", rows)
	b := needletail.NewTableBuilder(schema, device)
	err := workload.FlightsRows(rows, 42, func(r workload.FlightRow) error {
		return b.Append(r.Airline, r.Elapsed, r.ArrDelay, r.DepDelay)
	})
	if err != nil {
		log.Fatal(err)
	}
	table, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	compressed, plain := table.CompressedIndexWords()
	fmt.Printf("index: %d groups, RLE-compressed to %d of %d words (%.1fx)\n",
		len(table.GroupNames()), compressed, plain, float64(plain)/float64(compressed))

	store, err := needletail.NewEngine(table, "arrdelay", workload.FlightBound)
	if err != nil {
		log.Fatal(err)
	}

	// IFOCUS over the store's groups through the public engine, with a 1%
	// visual resolution and a deadline: the sampling loop polls the
	// context every round, so a wedged device can't wedge the query.
	viz, err := rapidviz.NewEngine(rapidviz.EngineConfig{})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	device.Reset()
	run, err := viz.Run(ctx, rapidviz.Query{
		Bound:      workload.FlightBound,
		Resolution: workload.FlightBound / 100,
		Seed:       9,
	}, store.Universe().Groups)
	if err != nil {
		log.Fatal(err)
	}
	st := device.Stats()
	fmt.Printf("\nIFOCUS(r=1%%): %d samples, simulated %.3fs I/O + %.3fs CPU\n",
		run.TotalSamples, st.IOSeconds, st.CPUSeconds)

	// SCAN for comparison.
	device.Reset()
	exact := store.Scan()
	st = device.Stats()
	fmt.Printf("SCAN:         %d rows,    simulated %.3fs I/O + %.3fs CPU\n",
		rows, st.IOSeconds, st.CPUSeconds)

	names := table.GroupNames()
	fmt.Println("\nairline  ifocus-est  exact")
	for i := range names {
		fmt.Printf("%-8s %9.2f  %5.2f\n", names[i], run.Estimates[i], exact[i])
	}

	// Ad-hoc selection predicate: among *long* flights only (elapsed >
	// 2h), sample the arrival delay of one airline. The predicate bitmap
	// is built with one sequential pass and then composes with each group
	// index by one bitwise AND.
	pred := table.PredicateBitmap(schema.ColumnIndex("elapsed"), func(v float64) bool { return v > 120 })
	where, err := store.UniverseWhere(pred)
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range where.Groups {
		if g.Name() != names[0] {
			continue
		}
		rng := xrand.New(77)
		const probes = 2000
		sum := 0.0
		for range probes {
			sum += g.Draw(rng)
		}
		fmt.Printf("\npredicate demo: avg arrival delay of %s on flights >2h ≈ %.2f min (%d samples)\n",
			names[0], sum/probes, probes)
	}
}
