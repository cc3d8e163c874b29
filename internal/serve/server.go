// Package serve exposes a rapidviz Engine over HTTP and WebSocket: JSON
// query submission, streamed partials with per-group error bars, per-
// request deadlines and draw budgets mapped onto the engine's context-
// cancellation and worker-admission machinery, a whole-query result cache
// with single-flight collapsing, Prometheus metrics, and an embedded live
// dashboard. cmd/rapidvizd is the single-binary server around it.
package serve

import (
	"context"
	"embed"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"time"

	"repro"
)

//go:embed static
var staticFS embed.FS

// Config configures a Server. Table is required; everything else has a
// serving-appropriate default.
type Config struct {
	// Table is the one columnar table this server answers queries over.
	Table *rapidviz.Table

	// Workers is the engine's admission concurrency: at most Workers
	// queries execute simultaneously, the rest queue (admission wait is
	// exported on /metrics). Zero means GOMAXPROCS, floored at 8 — a
	// serving default that favors fairness between interactive streams
	// over single-query latency.
	Workers int

	// DefaultDeadline bounds queries that request no deadline; zero means
	// 30s. MaxDeadline clamps every request; zero means 2m.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// MaxRoundsBudget and MaxDrawsBudget clamp the per-query sampling
	// budgets (Query.MaxRounds / Query.MaxDraws): requests asking for
	// more — or for no limit — are capped to the budget, which voids the
	// guarantee exactly as a client-side cap would (Result.Capped reports
	// it). Zero leaves the corresponding budget unlimited.
	MaxRoundsBudget int
	MaxDrawsBudget  int64

	// CacheEntries bounds the whole-query result cache; zero means 256.
	// Negative disables caching.
	CacheEntries int

	// TraceInterval throttles per-round "round" events on streams that
	// request traces; zero means 50ms.
	TraceInterval time.Duration
}

// Server serves one table. Create with New, mount via Handler.
type Server struct {
	cfg     Config
	eng     *rapidviz.Engine
	table   *rapidviz.Table
	metrics *Metrics
	flights *flightTable
	mux     *http.ServeMux

	baseCtx context.Context
	stop    context.CancelFunc
	started time.Time
}

// New validates cfg and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Table == nil {
		return nil, errors.New("serve: Config.Table is required")
	}
	if cfg.Workers == 0 {
		cfg.Workers = defaultWorkers()
	}
	if cfg.DefaultDeadline == 0 {
		cfg.DefaultDeadline = 30 * time.Second
	}
	if cfg.MaxDeadline == 0 {
		cfg.MaxDeadline = 2 * time.Minute
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 256
	}
	if cfg.TraceInterval == 0 {
		cfg.TraceInterval = 50 * time.Millisecond
	}
	metrics := NewMetrics()
	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{
		Workers:     cfg.Workers,
		OnAdmission: metrics.ObserveAdmission,
	})
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		eng:     eng,
		table:   cfg.Table,
		metrics: metrics,
		flights: newFlightTable(cfg.CacheEntries),
		baseCtx: ctx,
		stop:    stop,
		started: time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("GET /api/table", s.handleTable)
	mux.HandleFunc("POST /api/query", s.handleQuery)
	mux.HandleFunc("GET /api/stream", s.handleStream)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	s.mux = mux
	return s, nil
}

// defaultWorkers sizes the admission pool for serving: sampling queries
// are CPU-bound but interactive dashboards care about fairness, so the
// pool runs several queries per core rather than strictly one.
func defaultWorkers() int {
	n := 8
	if p := runtime.GOMAXPROCS(0); p > n {
		n = p
	}
	return n
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Engine exposes the underlying engine, for callers that read its stats.
func (s *Server) Engine() *rapidviz.Engine { return s.eng }

// Metrics exposes the server's metrics aggregate.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close cancels every in-flight execution.
func (s *Server) Close() { s.stop() }

// clamp applies the server's admission budgets to a parsed query.
func (s *Server) clamp(q rapidviz.Query) rapidviz.Query {
	if b := s.cfg.MaxRoundsBudget; b > 0 && (q.MaxRounds == 0 || q.MaxRounds > b) {
		q.MaxRounds = b
	}
	if b := s.cfg.MaxDrawsBudget; b > 0 && (q.MaxDraws == 0 || q.MaxDraws > b) {
		q.MaxDraws = b
	}
	return q
}

// subscribe resolves one accepted request to an event subscription:
// cache replay, attachment to an identical in-flight execution, or a
// fresh flight. The returned accepted event is already queued first.
func (s *Server) subscribe(q rapidviz.Query, deadline time.Duration) (*flightSub, error) {
	q = s.clamp(q)
	key := s.eng.Fingerprint(q)
	s.metrics.queriesTotal.Add(1)

	for {
		rec, active := s.flights.lookup(key)
		if rec != nil {
			s.metrics.cacheHits.Add(1)
			sub := &flightSub{signal: make(chan struct{}, 1)}
			accepted := rec.accepted
			accepted.Source = SourceCached
			sub.push(accepted)
			for _, ev := range rec.events {
				sub.push(ev)
			}
			sub.mu.Lock()
			sub.closed = true // replay is complete; next() drains the queue
			sub.mu.Unlock()
			return sub, nil
		}
		if active != nil {
			sub := &flightSub{signal: make(chan struct{}, 1)}
			accepted := active.accepted
			accepted.Source = SourceShared
			sub.push(accepted)
			if active.attach(sub) {
				s.metrics.cacheShared.Add(1)
				return sub, nil
			}
			continue // completed while attaching; the cache has it now
		}

		// Fresh execution. Resolve the group labels up front so accepted
		// events and round traces can be labeled (Where may drop groups).
		resolved, err := s.eng.ResolveGroups(q, s.table.Groups())
		if err != nil {
			return nil, err
		}
		names := make([]string, len(resolved))
		for i, g := range resolved {
			names[i] = g.Name()
		}
		accepted := Event{Type: "accepted", Groups: names, Fingerprint: key, Source: SourceRun}
		ctx, cancel := context.WithTimeout(s.baseCtx, deadline)
		f := &flight{
			key:      key,
			accepted: accepted,
			subs:     make(map[*flightSub]struct{}),
			cancel:   cancel,
		}
		if got, owned := s.flights.start(key, f); !owned {
			cancel()
			_ = got
			continue // raced with an identical query; attach to theirs
		}
		s.metrics.cacheMisses.Add(1)
		sub := &flightSub{signal: make(chan struct{}, 1)}
		sub.push(accepted)
		if !f.attach(sub) {
			// Unreachable: the flight has not started.
			cancel()
			return nil, errors.New("serve: new flight already done")
		}
		go s.runFlight(ctx, cancel, f, q)
		return sub, nil
	}
}

// runFlight executes one query and broadcasts its event stream.
func (s *Server) runFlight(ctx context.Context, cancel context.CancelFunc, f *flight, q rapidviz.Query) {
	defer cancel()

	// Throttled per-round traces: every subscriber that asked for traces
	// sees the same sequence, index-aligned with the accepted names.
	var lastTrace time.Time
	q.OnRound = func(tr rapidviz.RoundTrace) {
		now := time.Now()
		if !lastTrace.IsZero() && now.Sub(lastTrace) < s.cfg.TraceInterval {
			return
		}
		lastTrace = now
		copied := tr
		copied.GroupEpsilons = append([]float64(nil), tr.GroupEpsilons...)
		copied.Active = append([]bool(nil), tr.Active...)
		copied.Estimates = append([]float64(nil), tr.Estimates...)
		f.broadcast(Event{Type: "round", Round: &copied})
	}

	var terminal Event
	for ev := range s.eng.Stream(ctx, q, s.table.Groups()) {
		switch {
		case ev.Partial != nil:
			f.broadcast(Event{Type: "partial", Partial: ev.Partial})
		case ev.Err != nil:
			terminal = Event{Type: "error", Error: ev.Err.Error()}
		default:
			terminal = Event{Type: "result", Result: ev.Result}
		}
	}

	cacheable := terminal.Type == "result"
	if cacheable {
		s.metrics.samplesTotal.Add(terminal.Result.TotalSamples)
		s.metrics.roundsTotal.Add(int64(terminal.Result.Rounds))
	} else {
		s.metrics.queryErrors.Add(1)
	}
	// Retire the flight before broadcasting the terminal event: a
	// subscriber that reacts to the terminal by immediately re-submitting
	// must find the cache entry, not a drained flight.
	f.mu.Lock()
	rec := &recording{accepted: f.accepted, events: append([]Event(nil), f.events...)}
	f.mu.Unlock()
	rec.events = append(rec.events, terminal)
	evicted := s.flights.complete(f.key, rec, cacheable)
	if evicted > 0 {
		s.metrics.cacheEvictions.Add(int64(evicted))
	}
	f.broadcast(terminal)
}

// handleIndex serves the embedded dashboard.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	page, err := staticFS.ReadFile("static/index.html")
	if err != nil {
		http.Error(w, "dashboard not embedded", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(page)
}

// tableInfo is the /api/table response: what the dashboard needs to build
// a query form.
type tableInfo struct {
	Groups       []string `json:"groups"`
	Rows         int      `json:"rows"`
	ValueColumn  string   `json:"value_column"`
	ExtraColumns []string `json:"extra_columns,omitempty"`
	MaxValue     float64  `json:"max_value"`
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	info := tableInfo{
		Groups:       s.table.Names(),
		Rows:         s.table.NumRows(),
		ValueColumn:  s.table.ValueColumnName(),
		ExtraColumns: s.table.ExtraColumnNames(),
		MaxValue:     s.table.MaxValue(),
	}
	writeJSON(w, http.StatusOK, info)
}

// queryResponse is the POST /api/query response body.
type queryResponse struct {
	Fingerprint string             `json:"fingerprint"`
	Source      string             `json:"source"`
	Result      *rapidviz.Result   `json:"result,omitempty"`
	Partials    []rapidviz.Partial `json:"partials,omitempty"`
	Error       string             `json:"error,omitempty"`
}

// handleQuery runs one request to completion and returns the result plus
// the settle order (the partials), for clients that don't stream.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, wsMaxMessage)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, queryResponse{Error: "bad request: " + err.Error()})
		return
	}
	q, err := req.Query()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, queryResponse{Error: err.Error()})
		return
	}
	sub, err := s.subscribe(q, req.deadline(s.cfg.DefaultDeadline, s.cfg.MaxDeadline))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, queryResponse{Error: err.Error()})
		return
	}
	defer sub.unsubscribe()

	var resp queryResponse
	for {
		ev, ok := sub.next(r.Context())
		if !ok {
			writeJSON(w, http.StatusServiceUnavailable, queryResponse{Error: "query abandoned: " + r.Context().Err().Error()})
			return
		}
		switch ev.Type {
		case "accepted":
			resp.Fingerprint, resp.Source = ev.Fingerprint, ev.Source
		case "partial":
			resp.Partials = append(resp.Partials, *ev.Partial)
		case "result":
			resp.Result = ev.Result
			writeJSON(w, http.StatusOK, resp)
			return
		case "error":
			resp.Error = ev.Error
			writeJSON(w, http.StatusUnprocessableEntity, resp)
			return
		}
	}
}

// handleStream upgrades to WebSocket, reads one QueryRequest, and streams
// the query's event sequence: accepted, throttled round traces (when
// requested), settle partials, then exactly one terminal result or error,
// followed by a clean close.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	conn, err := UpgradeWS(w, r)
	if err != nil {
		return // UpgradeWS already replied
	}
	defer conn.Close()
	s.metrics.streamsActive.Add(1)
	defer s.metrics.streamsActive.Add(-1)

	fail := func(msg string) {
		conn.WriteText(encodeEvent(Event{Type: "error", Error: msg}))
		conn.WriteClose(1008, "")
	}
	first, err := conn.ReadMessage()
	if err != nil {
		return
	}
	var req QueryRequest
	if err := json.Unmarshal(first, &req); err != nil {
		fail("bad request: " + err.Error())
		return
	}
	q, err := req.Query()
	if err != nil {
		fail(err.Error())
		return
	}
	sub, err := s.subscribe(q, req.deadline(s.cfg.DefaultDeadline, s.cfg.MaxDeadline))
	if err != nil {
		fail(err.Error())
		return
	}
	defer sub.unsubscribe()

	// A hijacked connection's request context does not observe client
	// departure, so a reader goroutine watches the socket: any incoming
	// close frame — or a dead peer — cancels the subscription, which in
	// turn cancels the shared execution if nobody else is listening.
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	go func() {
		for {
			if _, err := conn.ReadMessage(); err != nil {
				cancel()
				return
			}
		}
	}()

	for {
		ev, ok := sub.next(ctx)
		if !ok {
			return // client departed
		}
		if ev.Type == "round" && !req.Traces {
			continue
		}
		if err := conn.WriteText(encodeEvent(ev)); err != nil {
			return
		}
		if ev.terminal() {
			conn.WriteClose(1000, "")
			return
		}
	}
}

// handleMetrics renders the Prometheus exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	active, cached := s.flights.stats()
	vs := s.eng.ViewCacheStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writeProm(w, engineStats{
		inflight:         s.eng.InFlight(),
		capacity:         s.eng.Capacity(),
		viewHits:         vs.Hits,
		viewMisses:       vs.Misses,
		viewEvictions:    vs.Evictions,
		viewEntries:      vs.Entries,
		flightsActive:    active,
		cacheEntries:     cached,
		tableRows:        s.table.NumRows(),
		tableGroups:      int64(s.table.K()),
		uptimeSecondsInt: int64(time.Since(s.started).Seconds()),
	})
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	// A failed encode means the client left; the status is already out.
	_ = json.NewEncoder(w).Encode(v)
}
