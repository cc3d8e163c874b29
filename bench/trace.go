package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	rapidviz "repro"
	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// The traced run decomposes each operation of one pass from outside: the
// benchmark itself calls, in turn, the steps Engine.Stream makes (resolve
// the filter, take a view, core.Run), wraps each call in a span, and then
// times the same query through the neighbouring layers (a replay of its
// draws alone, Engine.Run, the WebSocket server) so that differences
// between spans isolate one layer each. Spans inside the program are a
// later change (ROADMAP item 5).

// span is one timed call. Spans of one operation share Op; Parent is the
// span that made the call (0 for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes the span and returns its duration in ms.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return float64(s.End-s.Start) / 1e6
}

// stageMs sums, per operation, the self times (a span's duration minus its
// children's) of the spans named in stages.
func (t *tracer) stageMs(ops int, stages []string) []float64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	perOp := make([]float64, ops)
	for _, s := range t.spans {
		if slices.Contains(stages, s.Name) {
			perOp[s.Op] += float64(s.End-s.Start-child[s.ID]) / 1e6
		}
	}
	return perOp
}

func (t *tracer) write(path string) error {
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// stageSpans are the steps that make up an operation as a caller sees it;
// their self times should add up to the untraced operation. Every other
// span re-times the query through another layer for comparison.
var stageSpans = []string{
	"dataset.csv_parse", "dataset.write", "dataset.open", "dataset.verify",
	"engine.resolve", "dataset.view", "core.run",
}

// queryTrace is what decomposing one query measured.
type queryTrace struct {
	q       rapidviz.Query
	names   []string // groups sampled, index-aligned with counts
	counts  []int64
	rounds  int
	samples int64

	coreMs, replayMs, engineMs float64
	setupUs                    float64
	ws, wsReplay               opResult
}

// traceEnv is what a decomposed query runs against.
type traceEnv struct {
	tr    *tracer
	eng   *rapidviz.Engine
	srv   *wsServer
	table *rapidviz.Table
}

// coreSpec is the core.Spec Engine.run builds for q (for the query shapes
// the workloads use). workers is the engine's capacity, which a lone dense
// query is offered in full.
func coreSpec(q rapidviz.Query, workers int) core.Spec {
	opts := core.DefaultOptions()
	opts.Delta = q.Delta
	opts.Resolution = q.Resolution
	opts.Bound = conc.Kind(q.ConfidenceBound)
	opts.BatchSize = q.BatchSize
	if q.BatchSize == 0 {
		opts.BatchSize = core.BatchAuto
	}
	spec := core.Spec{Guarantee: q.Guarantee, T: q.T, Opts: opts}
	switch {
	case q.Workers > 0:
		spec.Workers = q.Workers
	case q.BatchSize == 0 || q.BatchSize >= 64:
		spec.Workers = workers
	}
	return spec
}

// freshGroups returns draw-state-fresh groups for q over table: the
// filter's (already planned) view, or the table's own.
func freshGroups(eng *rapidviz.Engine, q rapidviz.Query, table *rapidviz.Table) ([]rapidviz.Group, error) {
	if len(q.Where) == 0 {
		return table.View(), nil
	}
	return eng.ResolveGroups(q, table.Groups())
}

// newReplaySampler builds the sampler core's round driver would build for
// q: per-group streams based on the first word of the seed's generator,
// block kernels on, moments on for the variance-adaptive bounds.
func newReplaySampler(groups []rapidviz.Group, q rapidviz.Query) *dataset.Sampler {
	u := dataset.NewUniverse(q.Bound, groups...)
	s := dataset.NewStreamSampler(u, xrand.New(q.Seed).Uint64(), true)
	s.EnableBlockKernels()
	if q.ConfidenceBound == rapidviz.BoundBernstein || q.ConfidenceBound == rapidviz.BoundBernsteinFinite {
		s.EnableMoments(true)
	}
	return s
}

// roundBlock is the round driver's block size for round m (1-based).
func roundBlock(q rapidviz.Query, m int) int {
	if q.BatchSize > 0 {
		return q.BatchSize
	}
	if m > 7 {
		return 4096
	}
	return 64 << (m - 1)
}

// replayDraws re-draws a finished query's samples and nothing else: the
// per-group counts it ended with fix its whole batch schedule (every
// active group draws the round's block until it has its count), so a fresh
// sampler walked through that schedule does the query's draw-layer work —
// sampler set-up, RNG, permutation, gather, moments — without core's
// settle logic. counts maps group name to samples; groups absent from it
// draw nothing and counts are clamped to the group's size, so a schedule
// recorded on one backing can be replayed on another. It returns the time
// in ms and the samples drawn.
func replayDraws(groups []rapidviz.Group, q rapidviz.Query, counts map[string]int64) (float64, int64) {
	start := time.Now()
	s := newReplaySampler(groups, q)
	want := make([]int64, len(groups))
	for i, g := range groups {
		want[i] = min(counts[g.Name()], g.Size())
	}
	have := make([]int64, len(groups))
	var buf []float64
	var total int64
	for m, active := 1, true; active; m++ {
		active = false
		block := int64(roundBlock(q, m))
		for i := range groups {
			n := min(block, want[i]-have[i])
			if n <= 0 {
				continue
			}
			active = true
			if n == 1 {
				s.Draw(i)
			} else if _, ok := s.DrawBlockSum(i, int(n)); !ok {
				if int64(cap(buf)) < n {
					buf = make([]float64, n)
				}
				s.DrawBatch(i, buf[:n])
			}
			have[i] += n
			total += n
		}
	}
	return msSince(start), total
}

func countsByName(names []string, counts []int64) map[string]int64 {
	m := make(map[string]int64, len(names))
	for i, n := range names {
		m[n] = counts[i]
	}
	return m
}

// query decomposes one query under parent span root.
func (env *traceEnv) query(root, op int, q rapidviz.Query) (queryTrace, error) {
	tr, ctx := env.tr, context.Background()
	qt := queryTrace{q: q}

	// The steps Engine.Stream makes.
	id := tr.begin("engine.resolve", root, op)
	groups, err := env.eng.ResolveGroups(q, env.table.Groups())
	tr.end(id)
	if err != nil {
		return qt, err
	}
	id = tr.begin("dataset.view", root, op)
	if len(q.Where) == 0 {
		groups = env.table.View()
	}
	u := dataset.NewUniverse(q.Bound, groups...)
	tr.end(id)
	// core.Run and Engine.Run take turns going first, so whatever the
	// first of two identical runs pays (cold caches, the garbage of the
	// previous operation) cancels in the median of their difference.
	var res *rapidviz.Result
	engineRun := func() error {
		id := tr.begin("engine.run", root, op)
		res, err = env.eng.Run(ctx, q, env.table.View())
		qt.engineMs = tr.end(id)
		return err
	}
	if op%2 == 1 {
		if err := engineRun(); err != nil {
			return qt, err
		}
	}
	id = tr.begin("core.run", root, op)
	rr, err := core.Run(ctx, u, xrand.New(q.Seed), coreSpec(q, env.eng.Capacity()))
	qt.coreMs = tr.end(id)
	if err != nil {
		return qt, err
	}
	if op%2 == 0 {
		if err := engineRun(); err != nil {
			return qt, err
		}
	}
	// The two must agree bit for bit, or the steps above are not the steps
	// the engine makes.
	if res.TotalSamples != rr.TotalSamples || res.Rounds != rr.Rounds || fmt.Sprint(res.Estimates) != fmt.Sprint(rr.Estimates) {
		return qt, fmt.Errorf("op %d: Engine.Run and the decomposed core.Run disagree (%d vs %d samples)", op, res.TotalSamples, rr.TotalSamples)
	}
	for _, g := range groups {
		qt.names = append(qt.names, g.Name())
	}
	qt.counts, qt.rounds, qt.samples = rr.SampleCounts, rr.Rounds, rr.TotalSamples

	// Draw-state set-up alone: view, sampler, first block of every group.
	id = tr.begin("dataset.draw_setup", root, op)
	groups, err = freshGroups(env.eng, q, env.table)
	if err != nil {
		return qt, err
	}
	s := newReplaySampler(groups, q)
	for i := range groups {
		if n := roundBlock(q, 1); n == 1 {
			s.Draw(i)
		} else {
			s.DrawBlockSum(i, n)
		}
	}
	qt.setupUs = tr.end(id) * 1000

	// The query's draws alone.
	groups, err = freshGroups(env.eng, q, env.table)
	if err != nil {
		return qt, err
	}
	id = tr.begin("dataset.draw_replay", root, op)
	ms, drawn := replayDraws(groups, q, countsByName(qt.names, qt.counts))
	tr.end(id)
	qt.replayMs = ms
	if drawn != qt.samples {
		return qt, fmt.Errorf("op %d: replay drew %d samples, the query %d: the schedule model is wrong", op, drawn, qt.samples)
	}

	// And through the server, then once more for the cached replay. The
	// server's engine plans the filter first so both sides skip planning.
	if _, err := env.srv.srv.Engine().ResolveGroups(q, env.table.Groups()); err != nil {
		return qt, err
	}
	id = tr.begin("serve.ws", root, op)
	qt.ws = wsQuery(env.srv.url, q)
	tr.end(id)
	id = tr.begin("serve.ws_replay", root, op)
	qt.wsReplay = wsQuery(env.srv.url, q)
	tr.end(id)
	if qt.ws.err != nil {
		return qt, qt.ws.err
	}
	return qt, qt.wsReplay.err
}

// decompose runs one pass of the list decomposed.
func (fx *fixture) decompose(tr *tracer) ([]queryTrace, []opResult, error) {
	eng, _, err := newEngine()
	if err != nil {
		return nil, nil, err
	}
	env := &traceEnv{tr: tr, eng: eng, table: fx.table}
	if fx.name != "ingest_write" {
		if env.srv, err = startServer(fx.table); err != nil {
			return nil, nil, err
		}
		defer env.srv.stop()
	}
	var qts []queryTrace
	var cycles []opResult
	for i, o := range fx.ops {
		root := tr.begin("op", 0, i)
		var qt queryTrace
		if fx.name == "ingest_write" {
			qt, err = fx.decomposeIngest(env, root, i, o, &cycles)
		} else {
			qt, err = env.query(root, i, o.q)
		}
		tr.end(root)
		if err != nil {
			return nil, nil, err
		}
		qts = append(qts, qt)
	}
	return qts, cycles, nil
}

// decomposeIngest is one ingest_write operation decomposed: the cycle's
// stages as spans, then the query on the table the cycle produced.
func (fx *fixture) decomposeIngest(env *traceEnv, root, i int, o op, cycles *[]opResult) (queryTrace, error) {
	dir := filepath.Join(fx.tmp, fmt.Sprintf("traced-%d", i))
	defer os.RemoveAll(dir)
	seg, r, err := fx.ingestSpans(env.tr, root, i, dir)
	if err != nil {
		return queryTrace{}, err
	}
	defer seg.Close()
	*cycles = append(*cycles, r)
	env.table = seg.Table
	if env.eng, _, err = newEngine(); err != nil {
		return queryTrace{}, err
	}
	if env.srv, err = startServer(seg.Table); err != nil {
		return queryTrace{}, err
	}
	defer env.srv.stop()
	return env.query(root, i, o.q)
}

// ingestSpans is ingest with each stage recorded as a span.
func (fx *fixture) ingestSpans(tr *tracer, root, op int, dir string) (*rapidviz.SegmentTable, opResult, error) {
	// The stage times ingest takes are the spans; record them after the
	// fact so the cycle is the very code the untraced operation runs.
	start := int64(time.Since(tr.t0))
	seg, r, err := ingest(fx.csv, dir)
	if err != nil {
		return nil, r, err
	}
	at := start
	for _, st := range []struct {
		name string
		ms   float64
	}{{"dataset.csv_parse", r.parseMs}, {"dataset.write", r.writeMs}, {"dataset.open", r.openMs}, {"dataset.verify", r.verifyMs}} {
		end := at + int64(st.ms*1e6)
		tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: root, Op: op, Name: st.name, Start: at, End: end})
		at = end
	}
	return seg, r, nil
}

// referencePasses is how many untraced passes the traced run times for
// comparison; per-operation and per-pass medians are taken over them.
const referencePasses = 3

// traced is the traced run: reference passes (untraced, for the overhead
// and the pass-level counters), the decomposed pass, then the layer probes.
func traced(cfg config, out string) (*report, error) {
	begin := time.Now()
	rep := &report{workload: cfg.workload, metrics: map[string]float64{}}
	rep.calibMs[0] = calibMs(cfg.scale)
	fx, err := setup(cfg.workload, cfg.seed, cfg.scale, cfg.tmpRoot)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	m := rep.metrics

	if _, err := fx.pass(); err != nil {
		return nil, err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var ref *passStats
	var refWalls []float64
	refOps := make([][]float64, len(fx.ops))
	for i := 0; i < referencePasses; i++ {
		start := time.Now()
		if ref, err = fx.pass(); err != nil {
			return nil, err
		}
		refWalls = append(refWalls, msSince(start))
		for j, r := range ref.results {
			refOps[j] = append(refOps[j], r.ms)
		}
		fx.verify(ref, rep)
	}
	runtime.ReadMemStats(&ms1)
	refMs := median(refWalls)
	n := float64(len(fx.ops))
	rep.ops, rep.passes, rep.clients, rep.timedS = len(fx.ops), referencePasses, fx.clients, sum(refWalls)/1000
	m["runtime.gc_cycles_per_query"] = float64(ms1.NumGC-ms0.NumGC) / n / referencePasses
	m["runtime.gc_pause_ms_per_query"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / n / referencePasses
	m["engine.view_cache_hit_ratio"] = ratio(float64(ref.view.Hits), float64(ref.view.Hits+ref.view.Misses), 0)
	m["engine.admission_wait_ms_p99"] = ref.admissionP99Ms
	m["engine.broker_reduction_x"] = ratio(float64(ref.broker.SamplesServed), float64(ref.broker.SamplesDrawn), 1)

	tr := &tracer{t0: time.Now()}
	start := time.Now()
	qts, cycles, err := fx.decompose(tr)
	if err != nil {
		return nil, err
	}
	tracedMs := msSince(start)
	// Coverage compares like with like: the operations whose stage spans
	// ran before any other copy of the query (the even ones; on the odd
	// ones Engine.Run goes first and leaves core.Run warm caches), against
	// the same operations' untraced latencies.
	stages, untraced := 0.0, 0.0
	for i, ms := range tr.stageMs(len(fx.ops), stageSpans) {
		if i%2 == 0 {
			stages += ms
			untraced += median(refOps[i])
		}
	}
	m["trace.coverage_frac"] = stages / untraced
	m["trace_overhead_frac"] = tracedMs/refMs - 1

	var coreMs, overheadUs, setupUs, wsOver, accepted, replayMs []float64
	var rounds, sumCore, sumReplay float64
	wsOps := make([]opResult, 0, len(qts))
	for _, qt := range qts {
		coreMs = append(coreMs, qt.coreMs)
		overheadUs = append(overheadUs, (qt.engineMs-qt.coreMs)*1000)
		setupUs = append(setupUs, qt.setupUs)
		rounds += float64(qt.rounds)
		sumCore += qt.coreMs
		sumReplay += qt.replayMs
		if qt.ws.source == "run" {
			wsOver = append(wsOver, qt.ws.ms-qt.engineMs)
		}
		accepted = append(accepted, qt.ws.acceptedMs)
		replayMs = append(replayMs, qt.wsReplay.ms)
		wsOps = append(wsOps, qt.ws)
	}
	m["core.run_ms_p50"] = median(coreMs)
	m["core.rounds_per_query"] = rounds / n
	m["core.settle_us_per_round"] = (sumCore - sumReplay) * 1000 / rounds
	m["core.draw_share_of_run"] = sumReplay / sumCore
	m["engine.run_overhead_us_p50"] = median(overheadUs)
	m["dataset.draw_setup_us_p50"] = median(setupUs)
	m["serve.ws_overhead_ms_p50"] = median(wsOver)
	m["serve.accepted_ms_p50"] = median(accepted)
	m["serve.replay_ms_p50"] = median(replayMs)
	// The wire-level mix is the reference pass's where that pass went over
	// the wire (serve_mix: two concurrent clients); elsewhere it is the
	// decomposed pass's one WebSocket query per operation.
	if fx.name == "serve_mix" {
		wsOps = ref.results
	}
	var events, wire float64
	sources := map[string]float64{}
	for _, r := range wsOps {
		events += float64(r.events)
		wire += float64(r.wireBytes)
		sources[r.source]++
	}
	m["serve.events_per_query"] = events / float64(len(wsOps))
	m["serve.wire_bytes_per_query"] = wire / float64(len(wsOps))
	for _, s := range []string{"run", "shared", "cached"} {
		m["serve.source_"+s+"_frac"] = sources[s] / float64(len(wsOps))
	}

	if err := fx.probes(cfg, qts, cycles, m); err != nil {
		return nil, err
	}
	m["core.sample_vs_scan_x"] = ratio(m["core.scan_ms_p50"], m["core.run_ms_p50"], 0)
	rep.calibMs[1] = calibMs(cfg.scale)
	m["machine.calib_ms"] = (rep.calibMs[0] + rep.calibMs[1]) / 2
	rep.totalS = time.Since(begin).Seconds()
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", cfg.workload, name, v)
		}
	}
	if out != "" {
		if err := tr.write(out); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// ratio is a/b, or def when b is zero (nothing to divide by: no lookups,
// no broker).
func ratio(a, b, def float64) float64 {
	if b == 0 {
		return def
	}
	return a / b
}
