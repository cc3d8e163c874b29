package rapidviz

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// defaultSeed seeds non-deterministic queries that set no seed of their
// own, so runs are reproducible by default. Vary Query.Seed (or set
// Query.Deterministic with an explicit seed) for independent runs.
const defaultSeed uint64 = 0x5eedf00d

// autoParallelMinBatch is the smallest BatchSize at which a query with no
// explicit Workers automatically fans its rounds across the pool: dense
// blocks amortize the per-round fan-out dispatch, one-sample rounds do
// not.
const autoParallelMinBatch = 64

// EngineConfig holds an Engine's validated defaults. The zero value is
// usable: δ=0.05, bound inferred per query, seed 0x5eedf00d, and one
// worker per CPU. Queries that leave Delta or Bound at zero inherit the
// engine's.
type EngineConfig struct {
	// Delta is the default failure probability. Zero means 0.05.
	Delta float64
	// Bound is the default value bound c. Zero defers to per-query bounds
	// or inference from materialized groups.
	Bound float64
	// Seed is the seed of non-deterministic queries that set none. Zero
	// means 0x5eedf00d.
	Seed uint64
	// Workers bounds the engine's admission concurrency: at most Workers
	// queries execute at once (further Run calls wait for a slot,
	// honoring their context). Intra-query fan-out sizes itself to the
	// pool too: short-lived per-group work — bound inference, exact
	// scans — reserves the currently idle slots for its duration, and
	// each sampling query's round fan-out is sized to the idle capacity
	// at the moment it starts (advisory, so long queries never hoard
	// slots; traffic arriving mid-query may transiently oversubscribe).
	// An explicit Query.Workers overrides the sizing entirely. Zero
	// means runtime.GOMAXPROCS(0).
	Workers int
	// OnAdmission, when non-nil, observes every admitted query: it is
	// called once per Run/Stream with the time the call spent waiting for
	// a worker slot (zero when a slot was free). It runs on the query's
	// goroutine before any work starts, so keep it cheap; serving layers
	// use it to record admission-latency distributions. Calls that are
	// canceled while waiting are not reported.
	OnAdmission func(wait time.Duration)
}

// Engine executes Queries over groups. It is cheap to construct, safe for
// concurrent use, and reusable across any number of queries: construct one
// per service (or use DefaultEngine) and call Run from as many goroutines
// as you like — the bounded worker pool keeps heavy concurrent traffic
// from oversubscribing the host.
type Engine struct {
	cfg EngineConfig
	sem chan struct{}

	// views caches predicate selections: one dataset.View per (table,
	// canonical predicate fingerprint), so repeated Where queries reuse
	// the selection vectors and pay the planning once. Entries hold
	// selection state only — draw state lives in each run's sampler — so
	// cached views are safe to share across concurrent queries. The cache
	// is bounded: when a store would exceed
	// maxCachedViews the whole cache is flushed and rebuilt from live
	// traffic, so neither the selections nor the tables they pin can
	// accumulate without limit (a service that re-ingests its table
	// periodically sheds the old table's entries at the next flush).
	// Lookups are lock-free; viewMu serializes only the store/flush path,
	// which runs at most once per distinct filter.
	views     sync.Map // whereKey -> *dataset.View
	viewMu    sync.Mutex
	viewCount atomic.Int32

	// View-cache introspection counters (see ViewCacheStats): lookups that
	// reused a cached selection, lookups that planned a new one, and
	// entries dropped by overflow flushes.
	viewHits      atomic.Int64
	viewMisses    atomic.Int64
	viewEvictions atomic.Int64

	// inflight counts queries currently holding a worker slot (admitted
	// Run/Stream calls, from slot acquisition to release).
	inflight atomic.Int64
}

// maxCachedViews bounds the engine's selection cache; overflowing it
// flushes the cache rather than disabling caching.
const maxCachedViews = 64

// whereKey identifies one cached selection.
type whereKey struct {
	table *dataset.Table
	fp    string
}

// NewEngine validates cfg and returns an Engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Delta == 0 {
		cfg.Delta = 0.05
	}
	if cfg.Delta <= 0 || cfg.Delta >= 1 {
		return nil, fmt.Errorf("rapidviz: engine Delta must be in (0,1), got %v", cfg.Delta)
	}
	if cfg.Bound < 0 {
		return nil, fmt.Errorf("rapidviz: engine Bound must be non-negative, got %v", cfg.Bound)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("rapidviz: engine Workers must be non-negative, got %d", cfg.Workers)
	}
	if cfg.Seed == 0 {
		cfg.Seed = defaultSeed
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		cfg: cfg,
		sem: make(chan struct{}, cfg.Workers),
	}, nil
}

// defaultEngine is the engine DefaultEngine returns, built on first use.
var defaultEngine = sync.OnceValue(func() *Engine {
	e, err := NewEngine(EngineConfig{})
	if err != nil {
		panic(err) // unreachable: the zero config is valid
	}
	return e
})

// DefaultEngine returns a shared engine with the zero EngineConfig, for
// callers that need no configuration of their own.
func DefaultEngine() *Engine { return defaultEngine() }

// Run executes q over groups and returns the complete result. It blocks
// until the query finishes, a worker slot never frees, or ctx is canceled
// — cancellation and deadlines are honored between sampling rounds, so Run
// returns promptly with ctx.Err() even mid-query. A nil ctx means
// context.Background().
//
// The engine and the groups are both safe for concurrent use: a run keeps
// its draw state to itself, so any number of Run calls — consecutive or
// concurrent — may pass the same group set, such as one Table.Groups().
func (e *Engine) Run(ctx context.Context, q Query, groups []Group) (*Result, error) {
	return e.run(ctx, q, groups, nil)
}

// Stream executes q like Run but returns immediately with a channel of
// events: one Event per group the moment its estimate settles (the paper's
// partial-results extension, §6.2.2), then exactly one terminal Event
// carrying the Result or error, after which the channel is closed. The
// terminal event is always delivered — including ctx.Err() on
// cancellation. The channel is buffered for the worst case (one partial
// per group plus the terminal event), so the query never blocks on a slow
// or departed consumer and abandoning the channel cannot leak the query
// goroutine or its worker slot.
func (e *Engine) Stream(ctx context.Context, q Query, groups []Group) <-chan Event {
	if ctx == nil {
		ctx = context.Background()
	}
	ch := make(chan Event, len(groups)+1)
	go func() {
		defer close(ch)
		res, err := e.run(ctx, q, groups, func(name string, i int, est float64, round int, eps float64) {
			p := &Partial{Group: name, Index: i, Estimate: est, Round: round, HalfWidth: eps}
			select {
			case ch <- Event{Partial: p}:
			case <-ctx.Done():
				// Only reachable if an algorithm settles a group more than
				// once (none does today): never block a canceled run.
			}
		})
		// At most len(groups) partials precede this send, so a buffer slot
		// is guaranteed: terminal delivery cannot block or be lost.
		ch <- Event{Result: res, Err: err}
	}()
	return ch
}

// run is the one execution path behind Run and Stream: resolve any Where
// filter to a (cached) table view, normalize and validate the query,
// acquire a worker slot, build the universe, and dispatch through
// core.Run.
func (e *Engine) run(ctx context.Context, q Query, groups []Group, onPartial func(name string, i int, est float64, round int, eps float64)) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Take a worker slot before normalization: predicate planning walks
	// every predicate column and bound inference scans every materialized
	// group, so both must count against the engine's concurrency budget,
	// and an already-canceled context must not pay for them.
	var admitted time.Time
	if e.cfg.OnAdmission != nil {
		admitted = time.Now()
	}
	select {
	case e.sem <- struct{}{}:
		e.inflight.Add(1)
		defer func() {
			e.inflight.Add(-1)
			<-e.sem
		}()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if e.cfg.OnAdmission != nil {
		e.cfg.OnAdmission(time.Since(admitted))
	}

	if len(q.Where) > 0 {
		filtered, err := e.whereGroups(q.Where, groups)
		if err != nil {
			return nil, err
		}
		groups = filtered
	}

	q, err := e.normalize(q, groups)
	if err != nil {
		return nil, err
	}

	u := dataset.NewUniverse(q.Bound, groups...)
	rng := xrand.New(e.seed(q))
	spec, err := e.spec(q, u, groups)
	if err != nil {
		return nil, err
	}
	if onPartial != nil {
		// Bind names to the groups actually sampled: a Where filter may
		// have dropped groups, so indices into the caller's slice would be
		// wrong.
		run := groups
		spec.Opts.OnPartial = func(i int, est float64, round int, eps float64) {
			onPartial(run[i].Name(), i, est, round, eps)
		}
	}
	// Intra-query fan-out. An explicit Query.Workers is used verbatim (the
	// user asked for exactly that parallelism). Otherwise exact scans —
	// short-lived — reserve the currently idle slots for their duration,
	// while sampling queries size their round fan-out to the idle capacity
	// *without* reserving it: a long query must not hoard slots, or a
	// staggered second query would block until the first finishes instead
	// of starting immediately. The trade is that traffic arriving mid-query
	// can transiently oversubscribe Workers goroutines until the earlier
	// query's rounds finish; the Go scheduler absorbs this, and results are
	// unaffected either way (worker invariance).
	switch {
	case q.Workers > 0:
		spec.Workers = q.Workers
	case q.Algorithm == AlgoScan:
		workers, release := e.borrowWorkers()
		spec.Workers = workers
		defer release()
	case q.BatchSize == 0 || q.BatchSize >= autoParallelMinBatch || q.RoundGrowth > 1:
		// Auto fan-out only pays for dense rounds: at the scalar schedule
		// the per-round pool dispatch dwarfs the one-sample draws it
		// would parallelize (measured several-fold slower), so small
		// explicit BatchSize keeps the inline path unless the query
		// explicitly asks for workers. BatchSize 0 (the auto-batch
		// doubling schedule) and RoundGrowth qualify because their blocks
		// grow dense within a few rounds. The worker count sizes a cap,
		// not a commitment: the core driver's per-round volume gate still
		// runs rounds of fewer than 1024 planned draws inline, so handing
		// workers to a query that turns out to run small rounds costs
		// nothing.
		spec.Workers = e.idleWorkers()
	}
	rr, err := core.Run(ctx, u, rng, spec)
	if err != nil {
		return nil, err
	}
	return e.result(groups, rr), nil
}

// BrokerStats holds a shared-sample broker's counters. The engine runs no
// broker — every query draws its own per-group streams (DESIGN §11) — so
// both are always zero; the type stays because the benchmark module still
// reads it.
type BrokerStats struct {
	// SamplesDrawn counts samples physically drawn by brokers.
	SamplesDrawn int64 `json:"samples_drawn"`
	// SamplesServed counts samples brokers delivered to queries.
	SamplesServed int64 `json:"samples_served"`
}

// BrokerStats returns the zero value: the engine runs no sample broker.
func (e *Engine) BrokerStats() BrokerStats { return BrokerStats{} }

// whereGroups resolves a Where conjunction against table-backed groups:
// it validates that the groups are one table's full group set in table
// order, then returns the groups of the table's filtered view — cached
// per (table, predicate fingerprint), so only the first query with a given
// filter plans it. Planning lives in dataset.Table.Filter: group-inclusion
// predicates answer from the group index without touching rows; value
// predicates compare in place on the stored column blocks, with zone maps
// skipping whole blocks, and decode nothing.
func (e *Engine) whereGroups(preds []Predicate, groups []Group) ([]Group, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("rapidviz: no groups")
	}
	var table *dataset.Table
	for i, g := range groups {
		tb, ok := g.(dataset.TableBacked)
		if !ok {
			return nil, fmt.Errorf("rapidviz: Where requires table-backed groups (pass Table.Groups); group %q (%T) carries no table", g.Name(), g)
		}
		if i == 0 {
			table = tb.Table()
		} else if tb.Table() != table {
			return nil, fmt.Errorf("rapidviz: Where requires all groups to come from one table; group %q belongs to another", g.Name())
		}
		if tb.GroupIndex() != i {
			return nil, fmt.Errorf("rapidviz: Where requires the table's full group set in table order; restrict groups with WhereGroups instead of slicing")
		}
	}
	if table.K() != len(groups) {
		return nil, fmt.Errorf("rapidviz: Where requires the table's full group set (table has %d groups, got %d); restrict groups with WhereGroups instead of slicing", table.K(), len(groups))
	}

	key := whereKey{table: table, fp: dataset.FingerprintPredicates(preds)}
	if cached, ok := e.views.Load(key); ok {
		e.viewHits.Add(1)
		return cached.(*dataset.View).Groups(), nil
	}
	e.viewMisses.Add(1)
	view, err := table.Filter(preds...)
	if err != nil {
		return nil, err
	}
	e.viewMu.Lock()
	if count := e.viewCount.Load(); count >= maxCachedViews {
		e.views.Range(func(k, _ any) bool {
			e.views.Delete(k)
			return true
		})
		e.viewCount.Store(0)
		e.viewEvictions.Add(int64(count))
	}
	if _, loaded := e.views.LoadOrStore(key, view); !loaded {
		e.viewCount.Add(1)
	}
	e.viewMu.Unlock()
	return view.Groups(), nil
}

// ResolveGroups returns the groups q will actually sample over the given
// group set: for Where queries, the filter's surviving groups in table
// order (resolved through the engine's selection cache, so the later run
// reuses the scan); otherwise the input unchanged. Serving layers use it
// to label streamed per-round traces, whose slices are index-aligned with
// the resolved groups rather than the caller's.
func (e *Engine) ResolveGroups(q Query, groups []Group) ([]Group, error) {
	if len(q.Where) == 0 {
		return groups, nil
	}
	return e.whereGroups(q.Where, groups)
}

// idleWorkers returns the parallelism currently available to a query —
// its own slot plus the instantaneous number of idle slots — without
// reserving anything. Used to size the sampling driver's round fan-out:
// advisory, so a lone query spreads over the whole pool while later
// arrivals still get admitted immediately.
func (e *Engine) idleWorkers() int {
	return 1 + cap(e.sem) - len(e.sem)
}

// borrowWorkers reserves however many worker slots are currently idle (at
// most Workers−1, never blocking) for intra-query fan-out, and returns the
// total parallelism available to the caller — its own slot plus the
// borrowed ones — with a release function. Charging fan-out against the
// same semaphore keeps queries plus fan-out at or below Workers in total;
// use it only around short-lived work (scans, bound inference), since
// held slots keep other queries queued.
func (e *Engine) borrowWorkers() (int, func()) {
	extra := 0
	for extra < e.cfg.Workers-1 {
		select {
		case e.sem <- struct{}{}:
			extra++
			continue
		default:
		}
		break
	}
	return extra + 1, func() {
		for i := 0; i < extra; i++ {
			<-e.sem
		}
	}
}

// CacheStats reports cumulative counters of an engine-internal cache.
type CacheStats struct {
	// Hits counts lookups answered from the cache.
	Hits int64 `json:"hits"`
	// Misses counts lookups that paid the underlying computation.
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped to keep the cache bounded.
	Evictions int64 `json:"evictions"`
	// Entries is the current number of cached entries.
	Entries int64 `json:"entries"`
}

// ViewCacheStats reports the predicate-view cache's cumulative hit, miss,
// and eviction counters plus its current size, for observability surfaces
// like rapidvizd's /metrics endpoint. Safe to call concurrently with
// queries; the counters are monotone but mutually unsynchronized, so a
// snapshot taken under traffic may be transiently inconsistent by a few
// lookups.
func (e *Engine) ViewCacheStats() CacheStats {
	return CacheStats{
		Hits:      e.viewHits.Load(),
		Misses:    e.viewMisses.Load(),
		Evictions: e.viewEvictions.Load(),
		Entries:   int64(e.viewCount.Load()),
	}
}

// InFlight returns the number of queries currently holding one of the
// engine's worker slots (admitted, not yet finished).
func (e *Engine) InFlight() int { return int(e.inflight.Load()) }

// Capacity returns the engine's admission concurrency: the resolved
// EngineConfig.Workers, i.e. the maximum number of simultaneously
// executing queries.
func (e *Engine) Capacity() int { return cap(e.sem) }

// seed resolves the query's seed per the engine's RNG policy: an explicit
// Deterministic seed is used verbatim (0 included); otherwise a nonzero
// Query.Seed wins and zero falls back to the engine default.
func (e *Engine) seed(q Query) uint64 {
	switch {
	case q.Deterministic:
		return q.Seed
	case q.Seed != 0:
		return q.Seed
	default:
		return e.cfg.Seed
	}
}

// normalize merges engine defaults into q and validates the result,
// reporting precise errors at the public boundary rather than deep inside
// the sampling internals.
func (e *Engine) normalize(q Query, groups []Group) (Query, error) {
	if len(groups) == 0 {
		return q, fmt.Errorf("rapidviz: no groups")
	}
	if q.Delta == 0 {
		q.Delta = e.cfg.Delta
	}
	if q.Bound == 0 {
		q.Bound = e.cfg.Bound
	}

	if q.Delta <= 0 || q.Delta >= 1 {
		return q, fmt.Errorf("rapidviz: Delta must be in (0,1), got %v", q.Delta)
	}
	if q.Bound < 0 {
		return q, fmt.Errorf("rapidviz: Bound must be non-negative, got %v", q.Bound)
	}
	if q.Resolution < 0 {
		return q, fmt.Errorf("rapidviz: Resolution must be non-negative, got %v", q.Resolution)
	}
	if q.MaxRounds < 0 {
		return q, fmt.Errorf("rapidviz: MaxRounds must be non-negative, got %d", q.MaxRounds)
	}
	if q.MaxDraws < 0 {
		return q, fmt.Errorf("rapidviz: MaxDraws must be non-negative, got %d", q.MaxDraws)
	}
	if q.Workers < 0 {
		return q, fmt.Errorf("rapidviz: Workers must be non-negative, got %d", q.Workers)
	}
	if q.BatchSize < 0 {
		return q, fmt.Errorf("rapidviz: BatchSize must be non-negative, got %d", q.BatchSize)
	}
	if q.RoundGrowth != 0 && !(q.RoundGrowth >= 1 && !math.IsInf(q.RoundGrowth, 1)) {
		return q, fmt.Errorf("rapidviz: RoundGrowth must be 0 or a finite value >= 1, got %v", q.RoundGrowth)
	}
	kind, err := conc.ParseKind(q.ConfidenceBound)
	if err != nil {
		return q, fmt.Errorf("rapidviz: ConfidenceBound %q is not one of %q, %q, %q",
			q.ConfidenceBound, BoundHoeffding, BoundBernstein, BoundBernsteinFinite)
	}
	q.ConfidenceBound = string(kind)
	switch q.Guarantee {
	case GuaranteeOrder, GuaranteeTrend:
	case GuaranteeTopT:
		if q.T < 1 || q.T > len(groups) {
			return q, fmt.Errorf("rapidviz: GuaranteeTopT needs 1 <= T <= %d groups, got T=%d", len(groups), q.T)
		}
	case GuaranteeValues:
		if q.MaxError <= 0 {
			return q, fmt.Errorf("rapidviz: GuaranteeValues needs a positive MaxError, got %v", q.MaxError)
		}
	case GuaranteeMistakes:
		if q.CorrectPairs <= 0 || q.CorrectPairs > 1 {
			return q, fmt.Errorf("rapidviz: GuaranteeMistakes needs CorrectPairs in (0,1], got %v", q.CorrectPairs)
		}
	case GuaranteeAdjacency:
		if len(q.Adjacency) != len(groups) {
			return q, fmt.Errorf("rapidviz: GuaranteeAdjacency needs one adjacency list per group (%d), got %d", len(groups), len(q.Adjacency))
		}
	default:
		return q, fmt.Errorf("rapidviz: unknown guarantee %v", q.Guarantee)
	}
	if q.SubGroups < 0 {
		return q, fmt.Errorf("rapidviz: SubGroups must be non-negative, got %d", q.SubGroups)
	}
	if q.SubGroups > 0 {
		if q.Aggregate != AggAvg || q.Guarantee != GuaranteeOrder {
			return q, fmt.Errorf("rapidviz: SubGroups queries estimate AVG cells under the ordering guarantee only")
		}
		if q.ConfidenceBound != BoundHoeffding {
			return q, fmt.Errorf("rapidviz: SubGroups queries support the default %q bound only (cells are discovered as tuples land, so no per-cell moments exist); got %q", BoundHoeffding, q.ConfidenceBound)
		}
		for _, g := range groups {
			cg, ok := g.(CellGroup)
			if !ok {
				return q, fmt.Errorf("rapidviz: SubGroups queries need cell groups (see GroupFromCells); group %q carries no secondary key", g.Name())
			}
			if cg.NumCells() > q.SubGroups {
				return q, fmt.Errorf("rapidviz: group %q has %d cells, more than SubGroups=%d", g.Name(), cg.NumCells(), q.SubGroups)
			}
		}
	}
	if q.Aggregate == AggAvgPair {
		for _, g := range groups {
			if _, ok := g.(dataset.PairGroup); !ok {
				return q, fmt.Errorf("rapidviz: AggAvgPair needs pair groups (see GroupFromPairs); group %q carries one attribute", g.Name())
			}
		}
		if q.Bound == 0 {
			return q, fmt.Errorf("rapidviz: AggAvgPair requires an explicit Bound covering both attributes")
		}
	}

	for _, g := range groups {
		if _, ok := g.(*funcGroup); ok {
			q.WithReplacement = true
			if q.Bound == 0 {
				return q, fmt.Errorf("rapidviz: func-backed group %q requires an explicit Bound", g.Name())
			}
		}
	}
	if q.Bound == 0 {
		bound, err := e.inferBound(groups)
		if err != nil {
			return q, err
		}
		q.Bound = bound
	}
	return q, nil
}

// inferBound computes max value over materialized groups, rejecting
// negative values, with the per-group scans fanned out across the worker
// pool. Inference requires every group to be scannable.
func (e *Engine) inferBound(groups []Group) (float64, error) {
	workers, release := e.borrowWorkers()
	defer release()
	maxes := make([]float64, len(groups))
	errs := make([]error, len(groups))
	core.ParallelFor(len(groups), workers, func(i int) {
		sc, ok := groups[i].(dataset.Scannable)
		if !ok {
			errs[i] = fmt.Errorf("rapidviz: cannot infer a value bound for group %q; set Bound", groups[i].Name())
			return
		}
		max, neg := 0.0, 0.0
		hasNeg := false
		sc.Scan(func(v float64) {
			if v < 0 && !hasNeg {
				hasNeg = true
				neg = v
			}
			if v > max {
				max = v
			}
		})
		if hasNeg {
			errs[i] = fmt.Errorf("rapidviz: group %q has negative value %v; shift values into [0, c]", groups[i].Name(), neg)
			return
		}
		maxes[i] = max
	})
	bound := 0.0
	for i := range groups {
		if errs[i] != nil {
			return 0, errs[i]
		}
		if maxes[i] > bound {
			bound = maxes[i]
		}
	}
	if bound == 0 {
		bound = 1
	}
	return bound, nil
}

// spec translates a normalized query into the core dispatch description.
func (e *Engine) spec(q Query, u *dataset.Universe, groups []Group) (core.Spec, error) {
	opts := core.DefaultOptions()
	opts.Delta = q.Delta
	opts.Resolution = q.Resolution
	opts.WithReplacement = q.WithReplacement
	opts.MaxRounds = q.MaxRounds
	opts.MaxDraws = q.MaxDraws
	opts.BatchSize = q.BatchSize
	if q.BatchSize == 0 {
		// BatchSize 0 means auto: the round driver's deterministic
		// doubling schedule (64 → 4096). Queries that need the paper's
		// one-sample rounds ask for BatchSize=1 explicitly.
		opts.BatchSize = core.BatchAuto
	}
	opts.RoundGrowth = q.RoundGrowth
	opts.Bound = conc.Kind(q.ConfidenceBound)
	if q.OnRound != nil {
		hook := q.OnRound
		opts.OnRound = func(m int, eps float64, epsByGroup []float64, active []bool, estimates []float64, total int64) {
			hook(RoundTrace{
				Round:         m,
				Epsilon:       eps,
				GroupEpsilons: epsByGroup,
				Active:        active,
				Estimates:     estimates,
				TotalSamples:  total,
			})
		}
	}

	spec := core.Spec{
		Algorithm:    q.Algorithm,
		Aggregate:    q.Aggregate,
		Guarantee:    q.Guarantee,
		T:            q.T,
		MaxError:     q.MaxError,
		CorrectPairs: q.CorrectPairs,
		Adjacency:    core.Adjacency(q.Adjacency),
		Opts:         opts,
	}
	if q.SubGroups > 0 {
		cells := make([]CellGroup, len(groups))
		for i, g := range groups {
			cells[i] = g.(CellGroup) // validated in normalize
		}
		spec.Cells = &cellSource{groups: cells, kz: q.SubGroups, c: q.Bound}
	}
	if q.Aggregate == AggNormalizedSum || q.Aggregate == AggNormalizedCount {
		if u.TotalSize() == 0 {
			return core.Spec{}, fmt.Errorf("rapidviz: %v needs known group sizes to simulate membership sampling", q.Aggregate)
		}
		spec.Fractions = dataset.NewMembershipFractionEstimator(u)
	}
	return spec, nil
}

// result maps a core run result onto the public shape.
func (e *Engine) result(groups []Group, rr *core.RunResult) *Result {
	names := make([]string, len(groups))
	for i, g := range groups {
		names[i] = g.Name()
	}
	res := &Result{
		Names:           names,
		Estimates:       rr.Estimates,
		SampleCounts:    rr.SampleCounts,
		TotalSamples:    rr.TotalSamples,
		Epsilon:         rr.FinalEpsilon,
		Rounds:          rr.Rounds,
		Capped:          rr.Capped,
		SecondEstimates: rr.SecondEstimates,
		CellEstimates:   rr.CellEstimates,
		CellCounts:      rr.CellCounts,
	}
	for _, i := range rr.TopMembers {
		res.Top = append(res.Top, names[i])
	}
	return res
}
