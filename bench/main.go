// Command bench is the repository's benchmark: five fixed-list workloads
// driven through the public API, every answer checked against an exact
// scan, end-to-end metrics from an untraced run and per-layer metrics from
// a traced one. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "the only source of randomness: data, predicates, query seeds, client lists")
		seconds  = flag.Float64("seconds", runSeconds, "scales each workload's fixed pass count, which is sized for 15")
		trace    = flag.Int("trace", 0, "1 runs the traced, decomposed pass and prints the per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1, write each workload's spans as JSON to this path plus .<workload>.json")
		tmp      = flag.String("tmp", ".bench_build/tmp", "directory for segment files, created and emptied as needed")
		list     = flag.Bool("list", false, "print the declared workloads and metrics (BENCHMARK.json) and exit")
		aa       = flag.Int("aa", 0, "A/A self-check: run the whole benchmark 2N times and compare the two halves")
	)
	flag.Parse()
	if *list {
		out, err := json.MarshalIndent(declared(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		return
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloadSpecs {
			names = append(names, w.Name)
		}
	}
	if *aa > 0 {
		if err := selfCheck(*aa, names, *seed, *seconds, *tmp); err != nil {
			fatal(err)
		}
		return
	}
	for _, name := range names {
		cfg := config{workload: name, seed: *seed, seconds: *seconds, scale: 1, tmpRoot: *tmp}
		specs, run := endToEnd, measure
		if *trace != 0 {
			out := ""
			if *traceOut != "" {
				out = *traceOut + "." + name + ".json"
			}
			specs, run = perLayer, func(cfg config) (*report, error) { return traced(cfg, out) }
		}
		rep, err := run(cfg)
		if err != nil {
			fatal(err)
		}
		printReport(rep, specs, *seed)
		if *trace == 0 && rep.timedS < *seconds/misSizedFactor {
			fatal(fmt.Errorf("%s: timed phase took %.1f s, under a third of the %.0f s it is sized for: the pass count is mis-sized", name, rep.timedS, *seconds))
		}
		if rep.totalS > maxRunSeconds {
			fatal(fmt.Errorf("%s: the run took %.1f s, over the %d s cap", name, rep.totalS, maxRunSeconds))
		}
		fmt.Println(resultLine(rep, specs))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printReport writes the header line and every metric by name with its
// unit to standard error; standard output carries only the result line.
func printReport(rep *report, specs []metricSpec, seed uint64) {
	fmt.Fprintf(os.Stderr, "# %s nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d clients=%d ops_per_pass=%d passes=%d pooled_ops=%d timed_s=%.2f total_s=%.2f calib_ms=%.1f/%.1f\n",
		rep.workload, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), seed,
		rep.clients, rep.ops, rep.passes, rep.pooled, rep.timedS, rep.totalS, rep.calibMs[0], rep.calibMs[1])
	for _, s := range specs {
		fmt.Fprintf(os.Stderr, "%-46s %14.4f %s\n", s.Name, rep.metrics[s.Name], s.Unit)
	}
	failedFrac := 0.0
	if rep.attempted > 0 {
		failedFrac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(os.Stderr, "%-46s %14.4f ratio (%d of %d)\n", "failed_frac", failedFrac, rep.failed, rep.attempted)
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "  failed:", f)
	}
}

// resultLine renders the one-line JSON result the driver reads.
func resultLine(rep *report, specs []metricSpec) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, rep.failed == 0, rep.attempted, rep.failed)
	for i, s := range specs {
		if i > 0 {
			b.WriteString(", ")
		}
		v, ok := rep.metrics[s.Name]
		if !ok {
			fatal(fmt.Errorf("%s: metric %s was declared but not measured", rep.workload, s.Name))
		}
		val, err := json.Marshal(v)
		if err != nil {
			fatal(fmt.Errorf("%s: metric %s = %v: %w", rep.workload, s.Name, v, err))
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, s.Name, val, s.Unit)
	}
	b.WriteString("}}")
	return b.String()
}
