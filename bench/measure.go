package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"
)

// config is what one run of one workload is asked to do.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	scale    float64
	tmpRoot  string
}

// report is one run's outcome.
type report struct {
	workload  string
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string // first few, for the log

	// ops is the list's length, pooled how many timed operations the time
	// metrics were computed over.
	ops, passes, pooled, clients int
	timedS                       float64
	totalS                       float64
	calibMs                      [2]float64 // before, after
}

// prepare sets the workload up setupRepeats times and keeps the last
// fixture; setup_s is the median, so one slow page-cache flush or GC does
// not decide it.
func prepare(cfg config) (*fixture, float64, error) {
	var fx *fixture
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if fx != nil {
			fx.close()
			fx = nil
			runtime.GC() // the previous copy must not count against this one
		}
		start := time.Now()
		var err error
		fx, err = setup(cfg.workload, cfg.seed, cfg.scale, cfg.tmpRoot)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return fx, median(times), nil
}

// verify checks every result of a pass against the oracle.
func (fx *fixture) verify(ps *passStats, rep *report) {
	for i, r := range ps.results {
		rep.attempted++
		err := r.err
		if err == nil {
			err = fx.oracle.check(fx.ops[i].q, r.res)
		}
		if err != nil {
			rep.failed++
			if len(rep.failures) < 5 {
				rep.failures = append(rep.failures, fmt.Sprintf("op %d: %v", i, err))
			}
		}
	}
}

// passCount is how many passes the timed phase runs: the workload's
// constant, in proportion when seconds is not the declared run length.
// Never the clock: a faster program must not buy itself more passes.
func passCount(cfg config) int {
	return max(2, int(float64(timedPasses[cfg.workload])*cfg.seconds/runSeconds+0.5))
}

// keptPasses is how many of the fastest passes the time metrics pool: a
// quarter of them, or as many more as it takes to pool minPooledOps.
func keptPasses(passes, opsPerPass int) int {
	return min(passes, max((passes+3)/4, (minPooledOps+opsPerPass-1)/opsPerPass))
}

// measure is the untraced run: set-up, one untimed warm-up pass, then a
// fixed number of whole passes of the fixed list.
func measure(cfg config) (*report, error) {
	begin := time.Now()
	rep := &report{workload: cfg.workload, metrics: map[string]float64{}}
	rep.calibMs[0] = calibMs(cfg.scale)
	fx, setupS, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	defer fx.close()

	if _, err := fx.pass(); err != nil { // warm-up: caches fill, lazy set-up finishes
		return nil, err
	}
	runtime.GC()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	passes := make([]*passStats, passCount(cfg))
	wallS, cpuMs := make([]float64, len(passes)), make([]float64, len(passes))
	for i := range passes {
		cpu0, t0 := cpuTime(), time.Now()
		if passes[i], err = fx.pass(); err != nil {
			return nil, err
		}
		wallS[i] = time.Since(t0).Seconds()
		cpuMs[i] = float64(cpuTime()-cpu0) / float64(time.Millisecond)
	}
	rep.timedS = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)

	// Time metrics pool every operation of the fastest quarter of the
	// passes (by pass wall time), or of as many more as it takes to pool
	// minPooledOps. This host's speed flips between states every few
	// seconds and a whole pass can run 25 % slower than the next, so a
	// statistic over all passes measures which states the run happened to
	// meet. Every pass is the same list against the same caches, so the
	// fastest passes are the program in the host's better state, and
	// whatever happens in every pass (a GC cycle every few queries, an
	// eviction per cold predicate) is in the pool at its true rate.
	byWall := make([]int, len(passes))
	for i := range byWall {
		byWall[i] = i
	}
	slices.SortFunc(byWall, func(a, b int) int { return cmp.Compare(wallS[a], wallS[b]) })
	keep := keptPasses(len(passes), len(fx.ops))
	var ms, firstMs []float64
	keptWallS, keptCPUMs := 0.0, 0.0
	for _, i := range byWall[:keep] {
		for _, r := range passes[i].results {
			ms = append(ms, r.ms)
			firstMs = append(firstMs, r.firstMs)
		}
		keptWallS += wallS[i]
		keptCPUMs += cpuMs[i]
	}
	samples := 0.0
	for _, ps := range passes {
		fx.verify(ps, rep)
		for _, r := range ps.results {
			if r.res != nil {
				samples += float64(r.res.TotalSamples)
			}
		}
	}
	n := float64(len(passes) * len(fx.ops))
	rep.ops, rep.passes, rep.pooled, rep.clients = len(fx.ops), len(passes), len(ms), fx.clients
	m := rep.metrics
	m["setup_s"] = setupS
	m["query_ms_p50"] = median(ms)
	m["query_ms_p90"] = quantile(ms, 0.9)
	m["first_partial_ms_p50"] = median(firstMs)
	m["queries_per_s"] = float64(len(ms)) / keptWallS
	m["cpu_ms_per_query"] = keptCPUMs / float64(len(ms))
	m["alloc_kb_per_query"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / n
	m["samples_per_query"] = samples / n
	m["stored_bytes_per_row"] = fx.storedBytesPerRow
	rep.calibMs[1] = calibMs(cfg.scale)
	rep.totalS = time.Since(begin).Seconds()
	return rep, nil
}
