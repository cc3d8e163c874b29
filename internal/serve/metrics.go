package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// admissionBuckets are the upper bounds (seconds) of the admission-wait
// histogram exposed on /metrics: log-spaced from 100µs to 10s, matching
// the range between "slot was free" and "badly oversubscribed".
var admissionBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// maxAdmissionSamples bounds the raw admission-wait reservoir backing
// exact quantiles (the benchmark's p99). Beyond the cap, new samples overwrite
// old ones round-robin — enough fidelity for a bounded load run.
const maxAdmissionSamples = 1 << 19

// Metrics aggregates the server's observable counters. All methods are
// safe for concurrent use.
type Metrics struct {
	// Query lifecycle.
	queriesTotal  atomic.Int64 // subscriptions accepted (any source)
	queryErrors   atomic.Int64 // terminal error events delivered to fresh runs
	streamsActive atomic.Int64 // live WebSocket streams

	// Work performed, accumulated at each fresh execution's terminal.
	samplesTotal atomic.Int64
	roundsTotal  atomic.Int64

	// Whole-query result cache.
	cacheHits      atomic.Int64 // replayed from the result cache
	cacheShared    atomic.Int64 // attached to an identical in-flight query
	cacheMisses    atomic.Int64 // fresh executions
	cacheEvictions atomic.Int64

	// Admission-wait distribution, fed by the engine's OnAdmission hook.
	admMu      sync.Mutex
	admCounts  []int64 // one per bucket, cumulative style computed at render
	admSum     float64
	admCount   int64
	admSamples []float64 // raw reservoir for exact quantiles
	admNext    int       // overwrite cursor once the reservoir is full
}

// NewMetrics returns an empty metrics aggregate.
func NewMetrics() *Metrics {
	return &Metrics{admCounts: make([]int64, len(admissionBuckets)+1)}
}

// ObserveAdmission records one admitted query's slot wait.
func (m *Metrics) ObserveAdmission(wait time.Duration) {
	sec := wait.Seconds()
	i := sort.SearchFloat64s(admissionBuckets, sec)
	m.admMu.Lock()
	m.admCounts[i]++
	m.admSum += sec
	m.admCount++
	if len(m.admSamples) < maxAdmissionSamples {
		m.admSamples = append(m.admSamples, sec)
	} else {
		m.admSamples[m.admNext] = sec
		m.admNext = (m.admNext + 1) % maxAdmissionSamples
	}
	m.admMu.Unlock()
}

// AdmissionQuantile returns the q-quantile (0 ≤ q ≤ 1) of the recorded
// admission waits in seconds, computed exactly over the reservoir. Returns
// 0 when nothing has been recorded.
func (m *Metrics) AdmissionQuantile(q float64) float64 {
	m.admMu.Lock()
	samples := append([]float64(nil), m.admSamples...)
	m.admMu.Unlock()
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	i := int(q * float64(len(samples)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(samples) {
		i = len(samples) - 1
	}
	return samples[i]
}

// AdmissionCount returns the number of admissions recorded.
func (m *Metrics) AdmissionCount() int64 {
	m.admMu.Lock()
	defer m.admMu.Unlock()
	return m.admCount
}

// SamplesTotal returns the cumulative samples drawn by fresh executions.
func (m *Metrics) SamplesTotal() int64 { return m.samplesTotal.Load() }

// Snapshot is a point-in-time copy of the server's counters, shaped for
// JSON reports and assertions in tests.
type Snapshot struct {
	QueriesTotal   int64 `json:"queries_total"`
	QueryErrors    int64 `json:"query_errors"`
	StreamsActive  int64 `json:"streams_active"`
	SamplesTotal   int64 `json:"samples_total"`
	RoundsTotal    int64 `json:"rounds_total"`
	CacheHits      int64 `json:"cache_hits"`
	CacheShared    int64 `json:"cache_shared"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	AdmissionCount int64 `json:"admission_count"`
}

// Snapshot returns the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	m.admMu.Lock()
	admCount := m.admCount
	m.admMu.Unlock()
	return Snapshot{
		QueriesTotal:   m.queriesTotal.Load(),
		QueryErrors:    m.queryErrors.Load(),
		StreamsActive:  m.streamsActive.Load(),
		SamplesTotal:   m.samplesTotal.Load(),
		RoundsTotal:    m.roundsTotal.Load(),
		CacheHits:      m.cacheHits.Load(),
		CacheShared:    m.cacheShared.Load(),
		CacheMisses:    m.cacheMisses.Load(),
		CacheEvictions: m.cacheEvictions.Load(),
		AdmissionCount: admCount,
	}
}

// engineStats is the subset of engine observability /metrics renders;
// decoupled from the concrete engine type for testability.
type engineStats struct {
	inflight, capacity            int
	viewHits, viewMisses          int64
	viewEvictions, viewEntries    int64
	flightsActive, cacheEntries   int
	tableRows                     int
	tableGroups, uptimeSecondsInt int64
}

// WriteProm renders the Prometheus text exposition format (type 0.0.4).
func (m *Metrics) writeProm(w io.Writer, s engineStats) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("rapidvizd_queries_total", "Query subscriptions accepted (fresh, shared, and cached).", m.queriesTotal.Load())
	counter("rapidvizd_query_errors_total", "Fresh executions that ended in an error (deadline, cancellation, validation).", m.queryErrors.Load())
	gauge("rapidvizd_queries_inflight", "Queries currently holding an engine worker slot.", int64(s.inflight))
	gauge("rapidvizd_engine_workers", "Engine admission capacity (maximum concurrent queries).", int64(s.capacity))
	gauge("rapidvizd_streams_active", "Live WebSocket query streams.", m.streamsActive.Load())
	gauge("rapidvizd_flights_active", "Distinct query executions currently running or queued.", int64(s.flightsActive))

	counter("rapidvizd_samples_total", "Tuples drawn across all fresh executions (rate() gives samples/sec).", m.samplesTotal.Load())
	counter("rapidvizd_rounds_total", "Sampling rounds across all fresh executions (rate() gives rounds/sec).", m.roundsTotal.Load())

	counter("rapidvizd_querycache_hits_total", "Queries answered by replaying the whole-query result cache.", m.cacheHits.Load())
	counter("rapidvizd_querycache_shared_total", "Queries attached to an identical in-flight execution.", m.cacheShared.Load())
	counter("rapidvizd_querycache_misses_total", "Queries requiring a fresh execution.", m.cacheMisses.Load())
	counter("rapidvizd_querycache_evictions_total", "Whole-query cache entries evicted by the size bound.", m.cacheEvictions.Load())
	gauge("rapidvizd_querycache_entries", "Whole-query cache entries currently held.", int64(s.cacheEntries))

	counter("rapidvizd_viewcache_hits_total", "Predicate-view cache hits (engine selection cache).", s.viewHits)
	counter("rapidvizd_viewcache_misses_total", "Predicate-view cache misses.", s.viewMisses)
	counter("rapidvizd_viewcache_evictions_total", "Predicate-view cache entries dropped by overflow flushes.", s.viewEvictions)
	gauge("rapidvizd_viewcache_entries", "Predicate-view cache entries currently held.", s.viewEntries)

	gauge("rapidvizd_table_rows", "Rows in the served table.", int64(s.tableRows))
	gauge("rapidvizd_table_groups", "Groups in the served table.", s.tableGroups)
	gauge("rapidvizd_uptime_seconds", "Seconds since the server started.", s.uptimeSecondsInt)

	// Admission-wait histogram, cumulative per Prometheus convention.
	m.admMu.Lock()
	counts := append([]int64(nil), m.admCounts...)
	sum, count := m.admSum, m.admCount
	m.admMu.Unlock()
	name := "rapidvizd_admission_wait_seconds"
	fmt.Fprintf(w, "# HELP %s Time admitted queries spent waiting for an engine worker slot.\n# TYPE %s histogram\n", name, name)
	cum := int64(0)
	for i, ub := range admissionBuckets {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, ub, cum)
	}
	cum += counts[len(admissionBuckets)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, sum)
	fmt.Fprintf(w, "%s_count %d\n", name, count)
}
