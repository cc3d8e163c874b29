package main

// The benchmark's declared surface: workload names with the reason each
// exists, end-to-end metrics with direction and regression bound, and the
// per-layer metrics of the traced run. BENCHMARK.json at the repo root is
// exactly `-list`'s output; bench_test.go holds the two together.

// Benchmark protocol constants.
const (
	// runSeconds is how long one run's timed phase is sized to last; see
	// timedPasses.
	runSeconds = 15
	// misSizedFactor and maxRunSeconds make mis-sizing loud: a timed phase
	// shorter than the requested length over this factor, or a whole run
	// this long, exits non-zero. The factor is 3, not the issue's 1.5 (10 s
	// of 15): pass counts are constants, so a later change that speeds a
	// workload up 1.6x would otherwise turn its own gain into a failed run.
	misSizedFactor = 3
	maxRunSeconds  = 170
	// minPooledOps is the fewest operations the time metrics are computed
	// over, so that p90 has 12 samples beyond it.
	minPooledOps = 120
	// setupRepeats is how many times set-up runs; setup_s is their median.
	setupRepeats = 3

	resolution = 2.0
	delta      = 0.05
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// timedPasses is how many whole passes of its fixed list a workload's timed
// phase runs, sized so that the phase takes about runSeconds on the 2-vCPU
// host this was written on (15 s in its fast state, 20 s in its slow one).
var timedPasses = map[string]int{
	"mem_order":    20, // x 30 operations
	"round_bound":  40, // x 12
	"seg_filtered": 15, // x 15
	"serve_mix":    90, // x 30
	"ingest_write": 8,  // x 16
}

var workloadSpecs = []workloadSpec{
	{"mem_order", "Paper's main setting: in-memory 3M rows, auto batch, one worker; dataset draw kernels, xrand and per-query draw-state set-up do the work, core settle and serve almost none."},
	{"round_bound", "Same core driver the other way round: BatchSize=1 on 1M rows makes tens of thousands of tiny rounds, so core settle and conc radius dominate and the draw kernel matters little."},
	{"seg_filtered", "Compressed segment table larger than the 32 MiB block LRU, every query filtered: filter planning, bitmap select, block decode, colcodec, mmapfile and the adaptive fan-out do the work."},
	{"serve_mix", "Dashboard path: in-process server, real TCP and WebSocket, 2 closed-loop clients, 60% unique, 20% repeated, 20% twin queries; serve, admission and broker; fits every cache."},
	{"ingest_write", "Write side of the layers seg_filtered reads: parse CSV, build, write compressed segments, open, verify, first chart, delete; a heavier encoding that speeds reads shows its cost here."},
}

// endToEnd is what a user of the system sees. failed_frac from the issue
// is not a metric here: the driver's contract carries failures in the
// result's attempted/failed fields and forbids metrics that are always 0.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"query_ms_p50", "ms", "lower", 0.25},
	{"query_ms_p90", "ms", "lower", 0.25},
	{"first_partial_ms_p50", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"alloc_kb_per_query", "KiB", "lower", 0.05},
	{"samples_per_query", "count", "lower", 0.03},
	{"stored_bytes_per_row", "B", "lower", 0.02},
}

// perLayer metrics come from the traced run only (layer = module).
var perLayer = []metricSpec{
	{Name: "engine.run_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.where_plan_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.where_cached_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.view_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.admission_wait_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "engine.broker_reduction_x", Unit: "x", Better: "higher"},
	{Name: "core.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.rounds_per_query", Unit: "count", Better: "lower"},
	{Name: "core.settle_us_per_round", Unit: "us", Better: "lower"},
	{Name: "core.draw_share_of_run", Unit: "ratio", Better: "lower"},
	{Name: "core.scan_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.sample_vs_scan_x", Unit: "x", Better: "higher"},
	{Name: "conc.radius_ns.hoeffding", Unit: "ns", Better: "lower"},
	{Name: "conc.radius_ns.bernstein", Unit: "ns", Better: "lower"},
	{Name: "dataset.draw_ns_per_sample.slice", Unit: "ns", Better: "lower"},
	{Name: "dataset.draw_ns_per_sample.filtered_bitmap", Unit: "ns", Better: "lower"},
	{Name: "dataset.draw_ns_per_sample.filtered_index", Unit: "ns", Better: "lower"},
	{Name: "dataset.draw_ns_per_sample.block", Unit: "ns", Better: "lower"},
	{Name: "dataset.draw_setup_us_p50", Unit: "us", Better: "lower"},
	{Name: "dataset.filter_plan_ms_p50.x", Unit: "ms", Better: "lower"},
	{Name: "dataset.filter_plan_ms_p50.t", Unit: "ms", Better: "lower"},
	{Name: "dataset.broker_fill_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "dataset.csv_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "dataset.write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "dataset.open_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "bitmap.select_ns", Unit: "ns", Better: "lower"},
	{Name: "colcodec.decode_ns_per_value.for", Unit: "ns", Better: "lower"},
	{Name: "colcodec.decode_ns_per_value.delta", Unit: "ns", Better: "lower"},
	{Name: "colcodec.decode_ns_per_value.dict", Unit: "ns", Better: "lower"},
	{Name: "colcodec.decode_ns_per_value.raw", Unit: "ns", Better: "lower"},
	{Name: "colcodec.encode_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "colcodec.ratio", Unit: "x", Better: "higher"},
	{Name: "xrand.int64n_ns", Unit: "ns", Better: "lower"},
	{Name: "par.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "par.auto_vs_pinned_x", Unit: "x", Better: "lower"},
	{Name: "mmapfile.open_us", Unit: "us", Better: "lower"},
	{Name: "serve.ws_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.accepted_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.replay_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.events_per_query", Unit: "count", Better: "lower"},
	{Name: "serve.wire_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "serve.source_run_frac", Unit: "ratio", Better: "lower"},
	{Name: "serve.source_shared_frac", Unit: "ratio", Better: "higher"},
	{Name: "serve.source_cached_frac", Unit: "ratio", Better: "higher"},
	{Name: "runtime.gc_cycles_per_query", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "machine.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.coverage_frac", Unit: "ratio", Better: "higher"},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func declared() manifest {
	return manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
