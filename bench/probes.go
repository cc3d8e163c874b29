package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	rapidviz "repro"
	"repro/internal/bitmap"
	"repro/internal/colcodec"
	"repro/internal/conc"
	"repro/internal/dataset"
	"repro/internal/mmapfile"
	"repro/internal/par"
	"repro/internal/xrand"
)

// Layer probes: each calls one module's public function in a loop on
// inputs made from the seed and the workload's own table, so a per-layer
// number exists on every workload, including those whose list barely
// touches the layer.

// probeSink keeps probe results alive.
var probeSink float64

// perCall times fn over n iterations and returns ns per iteration.
func perCall(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// probeReplays is how many of the pass's recorded schedules each backing
// replays, and probeRepeats how often a planning probe repeats.
const (
	probeReplays = 6
	probeRepeats = 7
)

func (fx *fixture) probes(cfg config, qts []queryTrace, cycles []opResult, m map[string]float64) error {
	rng := xrand.New(cfg.seed ^ 0x51ed270b7a3c94e5)
	k := fx.cols.k()
	// reps shrinks a probe's iteration count with the smoke test's scale.
	reps := func(n int) int { return max(4, int(float64(n)*cfg.scale)) }

	// conc: one radius per call, at growing sample counts.
	var mom conc.Moments
	for i := 0; i < 1000; i++ {
		mom.Add(100 * rng.Float64())
	}
	for _, kind := range []conc.Kind{conc.KindHoeffding, conc.KindBernstein} {
		b, err := conc.NewBound(kind, 100, k, delta, 1)
		if err != nil {
			return err
		}
		m["conc.radius_ns."+string(kind)] = perCall(reps(200_000), func(i int) { probeSink += b.Radius(i+2, 300_000, &mom) })
	}

	// xrand, par, bitmap.
	m["xrand.int64n_ns"] = perCall(reps(4_000_000), func(int) { probeSink += float64(rng.Int64n(300_000)) })
	workers := runtime.GOMAXPROCS(0)
	m["par.dispatch_us"] = perCall(reps(20_000), func(int) { par.ForWorkers(k, workers, func(int, int) {}) }) / 1000
	bm := bitmap.New(300_000)
	for i := 0; i < bm.Len(); i++ {
		if rng.Intn(2) == 0 {
			bm.Set(i)
		}
	}
	bm.Index()
	ranks := make([]int32, 4096)
	var selErr error
	perBatch := perCall(reps(400), func(int) {
		for j := range ranks {
			ranks[j] = int32(rng.Intn(bm.Count()))
		}
		if err := bm.SelectBatch(ranks); err != nil {
			selErr = err
		}
	})
	fill := perCall(reps(400), func(int) {
		for j := range ranks {
			ranks[j] = int32(rng.Intn(bm.Count()))
		}
	})
	if selErr != nil {
		return selErr
	}
	m["bitmap.select_ns"] = (perBatch - fill) / float64(len(ranks))

	if err := fx.codecProbes(rng, reps(40), m); err != nil {
		return err
	}
	if err := fx.planProbes(rng, m); err != nil {
		return err
	}
	if err := fx.drawProbes(cfg, qts, m); err != nil {
		return err
	}
	if err := fx.runProbes(qts, m); err != nil {
		return err
	}
	return fx.ingestProbes(cfg, cycles, m)
}

// codecProbes decodes one block per codec and encodes the workload's own
// value column.
func (fx *fixture) codecProbes(rng *xrand.RNG, decodes int, m map[string]float64) error {
	// One block per codec: x (uniform integers) packs best as frame of
	// reference, t (ordinals) as deltas, a handful of irrational levels as
	// a dictionary, and arbitrary reals not at all.
	n := min(blockRows, fx.cols.offsets[1])
	blocks := map[string][]float64{"for": fx.cols.x[:n], "delta": fx.cols.t[:n], "dict": make([]float64, n), "raw": make([]float64, n)}
	levels := make([]float64, 16)
	for i := range levels {
		levels[i] = math.Sqrt(float64(i + 2))
	}
	for i := 0; i < n; i++ {
		blocks["dict"][i] = levels[rng.Intn(len(levels))]
		blocks["raw"][i] = rng.Float64() * math.Pi
	}
	dst := make([]float64, n)
	for want, vals := range blocks {
		enc, codec := colcodec.EncodeBlock(nil, vals)
		if codec.Name() != want {
			return fmt.Errorf("codec probe: block meant for %s was encoded as %s", want, codec.Name())
		}
		var decErr error
		ns := perCall(decodes, func(int) {
			if _, _, _, err := colcodec.DecodeBlock(dst, enc); err != nil {
				decErr = err
			}
		})
		if decErr != nil {
			return decErr
		}
		m["colcodec.decode_ns_per_value."+want] = ns / float64(n)
	}
	encoded, values := 0, 0
	start := time.Now()
	for lo := 0; lo < fx.cols.rows() && lo < 8*blockRows; lo += blockRows {
		hi := min(lo+blockRows, fx.cols.rows())
		enc, _ := colcodec.EncodeBlock(nil, fx.cols.value[lo:hi])
		encoded += len(enc)
		values += hi - lo
	}
	m["colcodec.encode_ns_per_value"] = float64(time.Since(start)) / float64(values)
	m["colcodec.ratio"] = float64(8*values) / float64(encoded)
	return nil
}

// freshPredicates returns an x constant and a t range no earlier call
// returned.
func (fx *fixture) freshPredicates(rng *xrand.RNG, i int) (x, t []rapidviz.Predicate) {
	per := fx.cols.rows() / fx.cols.k()
	lo := rng.Intn(per/2) + i
	x = []rapidviz.Predicate{rapidviz.Where("x", rapidviz.OpLT, 200.5+float64(i)+float64(50*rng.Intn(10)))}
	t = []rapidviz.Predicate{rapidviz.Where("t", rapidviz.OpGE, float64(lo)+0.5), rapidviz.Where("t", rapidviz.OpLT, float64(lo+per*2/5))}
	return x, t
}

// planProbes times filter planning on the queried table: Table.Filter
// directly, then through the engine's view cache, cold and warm.
func (fx *fixture) planProbes(rng *xrand.RNG, m map[string]float64) error {
	var planX, planT, cold, warm []float64
	eng, _, err := newEngine()
	if err != nil {
		return err
	}
	for i := 0; i < probeRepeats; i++ {
		x, t := fx.freshPredicates(rng, i)
		start := time.Now()
		if _, err := fx.table.Filter(x...); err != nil {
			return err
		}
		planX = append(planX, msSince(start))
		start = time.Now()
		if _, err := fx.table.Filter(t...); err != nil {
			return err
		}
		planT = append(planT, msSince(start))

		q := rapidviz.Query{Where: x}
		start = time.Now()
		if _, err := eng.ResolveGroups(q, fx.table.Groups()); err != nil {
			return err
		}
		cold = append(cold, msSince(start))
		start = time.Now()
		if _, err := eng.ResolveGroups(q, fx.table.Groups()); err != nil {
			return err
		}
		warm = append(warm, msSince(start)*1000)
	}
	m["dataset.filter_plan_ms_p50.x"] = median(planX)
	m["dataset.filter_plan_ms_p50.t"] = median(planT)
	m["engine.where_plan_ms_p50"] = median(cold)
	m["engine.where_cached_us_p50"] = median(warm)
	return nil
}

// drawProbes replays the pass's first recorded schedules over each draw
// backing of the workload's rows, and computes the compressed bytes those
// draws would touch.
func (fx *fixture) drawProbes(cfg config, qts []queryTrace, m map[string]float64) error {
	if fx.mem == nil {
		var err error
		if fx.mem, err = fx.cols.buildTable(); err != nil {
			return err
		}
	}
	seg, dir := fx.seg, ""
	if seg == nil {
		// The list runs in memory; the block backing needs a segment copy.
		dir = filepath.Join(fx.tmp, "probe-segments")
		if err := fx.mem.WriteSegmentsOptions(dir, rapidviz.SegmentOptions{Compress: true}); err != nil {
			return err
		}
		var err error
		if seg, err = rapidviz.OpenSegments(dir); err != nil {
			return err
		}
		defer seg.Close()
	} else {
		dir = seg.Dir()
	}
	dense, err := fx.mem.Filter(rapidviz.Where("x", rapidviz.OpLT, 500)) // 1/2 of rows: bitmap selection
	if err != nil {
		return err
	}
	sparse, err := fx.mem.Filter(rapidviz.Where("x", rapidviz.OpLT, 20)) // 1/50 of rows: index selection
	if err != nil {
		return err
	}
	backings := []struct {
		name   string
		groups func() []rapidviz.Group
	}{
		{"slice", fx.mem.View},
		{"filtered_bitmap", dense.View},
		{"filtered_index", sparse.View},
		{"block", seg.Table.View},
	}
	qts = qts[:min(probeReplays, len(qts))]
	for _, b := range backings {
		ms, samples := 0.0, int64(0)
		for _, qt := range qts {
			dms, n := replayDraws(b.groups(), qt.q, countsByName(qt.names, qt.counts))
			ms += dms
			samples += n
		}
		m["dataset.draw_ns_per_sample."+b.name] = ms * 1e6 / float64(samples)
	}

	// Broker: the same first blocks drawn into a retained prefix and copied.
	u := dataset.NewUniverse(100, fx.mem.View()...)
	broker := dataset.NewBroker(u, xrand.New(cfg.seed).Uint64(), true)
	dst := make([]float64, 4096)
	blocks := int(min(4, u.Groups[0].Size()/4096+1))
	start := time.Now()
	for i := range u.Groups {
		for b := 0; b < blocks; b++ {
			broker.Fill(i, int64(b*len(dst)), dst)
		}
	}
	m["dataset.broker_fill_ns_per_sample"] = float64(time.Since(start)) / float64(broker.Served())

	// Computed, not measured: the expected number of distinct compressed
	// blocks of the value column each recorded query's draws fall in
	// (uniform draws over the filter's selection), at the column's mean
	// encoded block size, per sample.
	info, err := os.Stat(dataset.SegmentValuePath(dir))
	if err != nil {
		return err
	}
	blockBytes := float64(info.Size()) / math.Ceil(float64(fx.cols.rows())/blockRows)
	touched, samples := 0.0, 0.0
	for _, qt := range qts {
		tr, err := fx.oracle.truth(qt.q.Where)
		if err != nil {
			return err
		}
		for g, sel := range tr.blockSel {
			selected := 0
			for _, s := range sel {
				selected += s
			}
			for _, s := range sel {
				touched += 1 - math.Pow(1-float64(s)/float64(selected), float64(qt.counts[g]))
			}
			samples += float64(qt.counts[g])
		}
	}
	m["dataset.bytes_per_sample"] = touched * blockBytes / samples

	mapStart := time.Now()
	opens := max(4, int(200*cfg.scale))
	for i := 0; i < opens; i++ {
		mp, err := mmapfile.Open(dataset.SegmentValuePath(dir))
		if err != nil {
			return err
		}
		mp.Close()
	}
	m["mmapfile.open_us"] = float64(time.Since(mapStart)) / float64(opens) / 1000
	return nil
}

// runProbes times the exact scan, and the pass's first queries with the
// fan-out left to the engine against pinned to one worker.
func (fx *fixture) runProbes(qts []queryTrace, m map[string]float64) error {
	eng, _, err := newEngine()
	if err != nil {
		return err
	}
	ctx := context.Background()
	var scans []float64
	for i := 0; i < probeRepeats; i++ {
		start := time.Now()
		if _, err := eng.Run(ctx, rapidviz.Query{Algorithm: rapidviz.AlgoScan, Bound: 100}, fx.table.View()); err != nil {
			return err
		}
		scans = append(scans, msSince(start))
	}
	m["core.scan_ms_p50"] = median(scans)

	auto, pinned := 0.0, 0.0
	for _, qt := range qts[:min(probeReplays, len(qts))] {
		q := qt.q
		if _, err := eng.ResolveGroups(q, fx.table.Groups()); err != nil { // plan outside the timing
			return err
		}
		for _, w := range []int{0, 1} {
			q.Workers = w
			start := time.Now()
			if _, err := eng.Run(ctx, q, fx.table.View()); err != nil {
				return err
			}
			if w == 0 {
				auto += msSince(start)
			} else {
				pinned += msSince(start)
			}
		}
	}
	m["par.auto_vs_pinned_x"] = auto / pinned
	return nil
}

// ingestProbes reports the ingest cycle's stages: ingest_write's own
// traced cycles, or a few cycles of the same file elsewhere.
func (fx *fixture) ingestProbes(cfg config, cycles []opResult, m map[string]float64) error {
	rows := fx.cols.rows()
	if len(cycles) == 0 {
		cols := genColumns(cfg.seed, 10, scaled(ingestRows, cfg.scale, 10))
		csv := cols.csv()
		rows = cols.rows()
		for i := 0; i < 3; i++ {
			dir := filepath.Join(fx.tmp, fmt.Sprintf("probe-cycle-%d", i))
			seg, r, err := ingest(csv, dir)
			if err != nil {
				return err
			}
			seg.Close()
			os.RemoveAll(dir)
			cycles = append(cycles, r)
		}
	}
	var parse, write, open, verify []float64
	for _, r := range cycles {
		parse = append(parse, r.parseMs)
		write = append(write, r.writeMs)
		open = append(open, r.openMs)
		verify = append(verify, r.verifyMs)
	}
	m["dataset.csv_rows_per_s"] = float64(rows) / (median(parse) / 1000)
	m["dataset.write_mb_per_s"] = float64(rows) * 24 / 1e6 / (median(write) / 1000)
	m["dataset.open_ms"] = median(open)
	m["dataset.verify_ms"] = median(verify)
	return nil
}
