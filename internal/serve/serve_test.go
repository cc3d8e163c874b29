package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// testTable builds a small skewed table: group g_i holds values around
// 10*(i+1) with a "qty" extra column, so orderings settle quickly and
// Where filters have something to cut.
func testTable(t *testing.T, groups, rowsPer int) *rapidviz.Table {
	t.Helper()
	b := rapidviz.NewTableBuilderColumns("price", "qty")
	rng := rand.New(rand.NewPCG(42, 99))
	for g := 0; g < groups; g++ {
		name := fmt.Sprintf("g%02d", g)
		mean := 10 * float64(g+1)
		for r := 0; r < rowsPer; r++ {
			v := mean + rng.Float64()*4 - 2
			if err := b.AddRow(name, v, float64(r%10)); err != nil {
				t.Fatal(err)
			}
		}
	}
	table, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Table == nil {
		cfg.Table = testTable(t, 6, 400)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func wsURL(ts *httptest.Server) string {
	return "ws" + strings.TrimPrefix(ts.URL, "http") + "/api/stream"
}

// streamQuery drives one WebSocket query to its terminal event and
// returns the full event sequence.
func streamQuery(t *testing.T, url string, req QueryRequest) []Event {
	t.Helper()
	conn, err := DialWS(url, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	blob, _ := json.Marshal(req)
	if err := conn.WriteText(blob); err != nil {
		t.Fatalf("send: %v", err)
	}
	var events []Event
	for {
		msg, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("read after %d events: %v", len(events), err)
		}
		var ev Event
		if err := json.Unmarshal(msg, &ev); err != nil {
			t.Fatalf("decode: %v", err)
		}
		events = append(events, ev)
		if ev.terminal() {
			return events
		}
	}
}

// TestHTTPSmoke exercises the plain-HTTP surface end to end: table info,
// a blocking query with partials, health, and the metrics exposition.
func TestHTTPSmoke(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Table description.
	resp, err := http.Get(ts.URL + "/api/table")
	if err != nil {
		t.Fatal(err)
	}
	var info tableInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(info.Groups) != 6 || info.Rows != 2400 || info.ValueColumn != "price" {
		t.Fatalf("unexpected table info: %+v", info)
	}

	// Blocking query.
	body, _ := json.Marshal(QueryRequest{Delta: 0.1, BatchSize: 64, Seed: 7})
	resp, err = http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, qr.Error)
	}
	if qr.Result == nil || len(qr.Result.Estimates) != 6 {
		t.Fatalf("missing result: %+v", qr)
	}
	if len(qr.Partials) != 6 {
		t.Fatalf("want 6 partials (one per settled group), got %d", len(qr.Partials))
	}
	if qr.Fingerprint == "" || qr.Source != SourceRun {
		t.Fatalf("fingerprint %q source %q", qr.Fingerprint, qr.Source)
	}
	// Estimates must be ordered like the true means (10, 20, ..., 60).
	for i := 1; i < len(qr.Result.Estimates); i++ {
		if qr.Result.Estimates[i] <= qr.Result.Estimates[i-1] {
			t.Fatalf("estimates out of order: %v", qr.Result.Estimates)
		}
	}

	// Health and metrics.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"rapidvizd_queries_total 1",
		"rapidvizd_querycache_misses_total 1",
		"rapidvizd_samples_total",
		"rapidvizd_admission_wait_seconds_count 1",
		"rapidvizd_table_rows 2400",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestHTTPQueryValidation checks the wire boundary rejects bad requests.
func TestHTTPQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"aggregate": "median"}`,
		`{"algorithm": "quantum"}`,
		`{"where": [{"op": "~", "value": 1}]}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/api/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: want 400, got %d", body, resp.StatusCode)
		}
	}
}

// TestStreamEventSequence validates the streamed protocol: accepted
// first, round traces when asked, every group settling exactly once, one
// terminal result, clean close.
func TestStreamEventSequence(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceInterval: time.Nanosecond})
	events := streamQuery(t, wsURL(ts), QueryRequest{Delta: 0.1, BatchSize: 32, Seed: 3, Traces: true})

	if events[0].Type != "accepted" || len(events[0].Groups) != 6 {
		t.Fatalf("first event not a 6-group accepted: %+v", events[0])
	}
	var rounds, partials int
	settled := map[string]bool{}
	for _, ev := range events[1:] {
		switch ev.Type {
		case "round":
			rounds++
		case "partial":
			partials++
			if settled[ev.Partial.Group] {
				t.Fatalf("group %q settled twice", ev.Partial.Group)
			}
			settled[ev.Partial.Group] = true
			if ev.Partial.HalfWidth <= 0 {
				t.Fatalf("partial without a half-width: %+v", ev.Partial)
			}
		}
	}
	if rounds == 0 {
		t.Fatal("asked for traces, saw no round events")
	}
	if partials != 6 {
		t.Fatalf("want 6 settle partials, got %d", partials)
	}
	last := events[len(events)-1]
	if last.Type != "result" || last.Result == nil {
		t.Fatalf("terminal event: %+v", last)
	}
}

// TestSingleFlightSharing submits the same query from many concurrent
// streams: exactly one fresh execution may run, everyone gets the same
// result, and the sharing shows up on /metrics.
func TestSingleFlightSharing(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	req := QueryRequest{Delta: 0.05, BatchSize: 16, Seed: 11}

	const n = 12
	results := make([]*rapidviz.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			events := streamQuery(t, wsURL(ts), req)
			last := events[len(events)-1]
			results[i] = last.Result
		}(i)
	}
	wg.Wait()

	for i, res := range results {
		if res == nil {
			t.Fatalf("client %d got no result", i)
		}
		if fmt.Sprint(res.Estimates) != fmt.Sprint(results[0].Estimates) {
			t.Fatalf("client %d diverged: %v vs %v", i, res.Estimates, results[0].Estimates)
		}
	}
	snap := srv.Metrics().Snapshot()
	if snap.CacheMisses != 1 {
		t.Fatalf("want exactly 1 fresh execution, got %d (shared %d, hits %d)",
			snap.CacheMisses, snap.CacheShared, snap.CacheHits)
	}
	if snap.CacheShared+snap.CacheHits != n-1 {
		t.Fatalf("want %d shared+cached, got shared %d hits %d", n-1, snap.CacheShared, snap.CacheHits)
	}

	// The sharing is observable on the exposition endpoint.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), "rapidvizd_querycache_misses_total 1") {
		t.Error("metrics do not show the single fresh execution")
	}

	// A later identical query replays from the cache.
	events := streamQuery(t, wsURL(ts), req)
	if events[0].Source != SourceCached {
		t.Fatalf("follow-up source %q, want cached", events[0].Source)
	}
}

// TestConcurrentMixedQueries runs many clients across a mixed workload —
// IFOCUS, round-robin, Where-filtered, and empirical-Bernstein queries —
// over one shared table, checking isolation: every stream sees its own
// group set and a coherent terminal. Run under -race in CI.
func TestConcurrentMixedQueries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	variants := []QueryRequest{
		{Algorithm: "ifocus", Delta: 0.1, BatchSize: 32, Seed: 1},
		{Algorithm: "roundrobin", Delta: 0.1, BatchSize: 32, Seed: 2},
		{Algorithm: "ifocus", Delta: 0.1, BatchSize: 32, Seed: 3,
			Where: []WirePredicate{{Column: "qty", Op: ">=", Value: 5}}},
		{Algorithm: "ifocus", ConfidenceBound: "bernstein", Delta: 0.1, BatchSize: 32, Seed: 4},
		{Algorithm: "ifocus", Delta: 0.1, BatchSize: 32, Seed: 5,
			Where: []WirePredicate{{Groups: []string{"g00", "g02", "g04"}}}},
	}
	const clientsPerVariant = 6
	type outcome struct {
		variant int
		events  []Event
	}
	outcomes := make(chan outcome, len(variants)*clientsPerVariant)
	var wg sync.WaitGroup
	for v := range variants {
		for c := 0; c < clientsPerVariant; c++ {
			wg.Add(1)
			go func(v int) {
				defer wg.Done()
				outcomes <- outcome{v, streamQuery(t, wsURL(ts), variants[v])}
			}(v)
		}
	}
	wg.Wait()
	close(outcomes)

	wantGroups := []int{6, 6, 6, 6, 3} // variant 4 keeps three groups
	estimates := map[int]string{}
	for o := range outcomes {
		accepted, last := o.events[0], o.events[len(o.events)-1]
		if len(accepted.Groups) != wantGroups[o.variant] {
			t.Fatalf("variant %d accepted %d groups, want %d",
				o.variant, len(accepted.Groups), wantGroups[o.variant])
		}
		if last.Type != "result" {
			t.Fatalf("variant %d terminal %q: %s", o.variant, last.Type, last.Error)
		}
		got := fmt.Sprint(last.Result.Estimates)
		if prev, seen := estimates[o.variant]; seen && prev != got {
			t.Fatalf("variant %d nondeterministic: %s vs %s", o.variant, prev, got)
		}
		estimates[o.variant] = got
	}
}

// TestRoundsBudgetClamp checks the server-side budget caps greedy
// requests and the cap is reported in the result.
func TestRoundsBudgetClamp(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRoundsBudget: 2})
	events := streamQuery(t, wsURL(ts), QueryRequest{Delta: 0.01, BatchSize: 1, Seed: 9})
	last := events[len(events)-1]
	if last.Type != "result" {
		t.Fatalf("terminal %q: %s", last.Type, last.Error)
	}
	if !last.Result.Capped || last.Result.Rounds > 2 {
		t.Fatalf("budget did not cap: capped=%v rounds=%d", last.Result.Capped, last.Result.Rounds)
	}
}

// TestWSAcceptVector pins the RFC 6455 handshake transform to the
// specification's worked example.
func TestWSAcceptVector(t *testing.T) {
	if got := wsAccept("dGhlIHNhbXBsZSBub25jZQ=="); got != "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" {
		t.Fatalf("wsAccept = %q", got)
	}
}

// TestWSUpgradeRejections checks the handshake gate.
func TestWSUpgradeRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name    string
		headers map[string]string
		status  int
	}{
		{"plain GET", nil, http.StatusBadRequest},
		{"wrong version", map[string]string{
			"Connection": "Upgrade", "Upgrade": "websocket",
			"Sec-WebSocket-Version": "8", "Sec-WebSocket-Key": "AQIDBAUGBwgJCgsMDQ4PEA==",
		}, http.StatusUpgradeRequired},
		{"missing key", map[string]string{
			"Connection": "Upgrade", "Upgrade": "websocket",
			"Sec-WebSocket-Version": "13",
		}, http.StatusBadRequest},
	} {
		req, _ := http.NewRequest("GET", ts.URL+"/api/stream", nil)
		for k, v := range tc.headers {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

// TestStreamClientAbandonment opens a stream, reads the accepted event,
// and drops the socket: the server must cancel the abandoned execution
// and settle back to zero in-flight queries.
func TestStreamClientAbandonment(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheEntries: -1})
	conn, err := DialWS(wsURL(ts), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// A slow query: tiny batches, tight delta.
	blob, _ := json.Marshal(QueryRequest{Delta: 0.001, BatchSize: 1, Seed: 21})
	if err := conn.WriteText(blob); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadMessage(); err != nil { // accepted
		t.Fatal(err)
	}
	conn.Close() // vanish without a close handshake

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		active, _ := srv.flights.stats()
		if active == 0 && srv.Engine().InFlight() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	active, _ := srv.flights.stats()
	t.Fatalf("abandoned query not reaped: %d flights active, %d in flight",
		active, srv.Engine().InFlight())
}

// TestDistinctFingerprintsRunSeparately pins the flight table's key: two
// concurrent queries that differ only in δ have distinct fingerprints, so
// neither attaches to the other's flight — both run fresh, and both
// return results.
func TestDistinctFingerprintsRunSeparately(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	reqs := []QueryRequest{
		{Delta: 0.05, BatchSize: 64, Seed: 21},
		{Delta: 0.2, BatchSize: 64, Seed: 21},
	}

	var wg sync.WaitGroup
	results := make([]*rapidviz.Result, len(reqs))
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req QueryRequest) {
			defer wg.Done()
			events := streamQuery(t, wsURL(ts), req)
			results[i] = events[len(events)-1].Result
		}(i, req)
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			t.Fatalf("query %d got no result", i)
		}
	}
	if snap := srv.Metrics().Snapshot(); snap.CacheMisses != 2 {
		t.Fatalf("distinct fingerprints must not collapse: %d fresh executions", snap.CacheMisses)
	}
}

// TestServedQueryAllocatesPerBatch bounds what a served query allocates by
// its rounds, not its samples: on a default server, queries that each draw
// at least 100 k samples allocate less than one byte per sample. Any
// per-query copy of the drawn values (8 B a sample) fails it.
func TestServedQueryAllocatesPerBatch(t *testing.T) {
	// Four groups of 100 k rows whose means sit half a unit apart: telling
	// them apart takes most of every group.
	b := rapidviz.NewTableBuilder()
	rng := rand.New(rand.NewPCG(7, 11))
	for g := 0; g < 4; g++ {
		name := fmt.Sprintf("g%d", g)
		for r := 0; r < 100_000; r++ {
			b.Add(name, 50+0.5*float64(g)+rng.Float64()*20-10)
		}
	}
	table, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Table: table})
	query := func(seed uint64) *rapidviz.Result {
		t.Helper()
		body, _ := json.Marshal(QueryRequest{Seed: seed})
		resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr queryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || qr.Result == nil {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, qr.Error)
		}
		return qr.Result
	}

	query(100) // warm-up: fills the groups' draw-state free lists
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var samples int64
	for seed := uint64(1); seed <= 8; seed++ {
		res := query(seed)
		if res.TotalSamples < 100_000 {
			t.Fatalf("seed %d drew %d samples; the test needs at least 100 000", seed, res.TotalSamples)
		}
		samples += res.TotalSamples
	}
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("8 queries drew %d samples and allocated %d B (%.3f B a sample)", samples, grew, float64(grew)/float64(samples))
	if grew >= uint64(samples) {
		t.Fatal("want < 1 B allocated a sample")
	}
}
