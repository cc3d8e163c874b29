package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	rapidviz "repro"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// ingestRows is the size of the CSV file one ingest_write operation parses.
const ingestRows = 300_000

// op is one operation of a workload's fixed list.
type op struct {
	// q is the query as the engine sees it; the oracle and the traced
	// run's decomposition both start from it.
	q rapidviz.Query
	// meet makes serve_mix's clients submit their op at this index of
	// their lists together (a dashboard refreshing two panels), which is
	// what lets the broker share draws.
	meet bool
}

// opResult is what the caller of one operation observed.
type opResult struct {
	ms      float64 // submission to terminal result
	firstMs float64 // submission to the first settled bar (terminal if none)
	res     *rapidviz.Result
	err     error

	// WebSocket operations only.
	source     string
	acceptedMs float64
	events     int
	wireBytes  int

	// ingest_write operations only: the cycle's stages, in ms.
	parseMs, writeMs, openMs, verifyMs float64
	writtenBytes                       int64
}

// passStats is one whole pass over the list plus what the pass's engine
// counted while serving it.
type passStats struct {
	results        []opResult
	view           rapidviz.CacheStats
	broker         rapidviz.BrokerStats
	admissionP99Ms float64
}

// fixture is a workload after set-up: data, tables and the fixed list.
type fixture struct {
	name   string
	cols   *columns
	oracle *oracle
	// table is what the list's queries run on; mem is the in-memory table
	// of the same rows (the same pointer unless table is segment-backed;
	// nil on ingest_write until the traced run's probes build it).
	table *rapidviz.Table
	mem   *rapidviz.Table
	seg   *rapidviz.SegmentTable
	// csv is ingest_write's input file, held in memory.
	csv []byte

	// ops is the fixed list; serve_mix's holds client 0's list, then
	// client 1's.
	ops               []op
	clients           int
	storedBytesPerRow float64
	tmp               string
}

func (fx *fixture) close() {
	if fx.seg != nil {
		fx.seg.Close()
	}
	os.RemoveAll(fx.tmp)
}

// baseQuery is the shape every list starts from: AVG, full ordering,
// IFOCUS, auto batch, Hoeffding, r = 2, δ = 0.05, explicit bound c.
func baseQuery(seed uint64) rapidviz.Query {
	return rapidviz.Query{Resolution: resolution, Delta: delta, Bound: 100, Seed: seed | 1}
}

func scaled(n int, scale float64, k int) int {
	n = int(float64(n) * scale)
	if n < 400*k {
		n = 400 * k
	}
	return n
}

// setup builds the named workload from seed. scale shrinks the tables for
// the smoke test; the benchmark proper runs at 1.
func setup(name string, seed uint64, scale float64, tmpRoot string) (*fixture, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, name+"-")
	if err != nil {
		return nil, err
	}
	fx := &fixture{name: name, tmp: tmp, clients: 1}
	// Query seeds, predicates and client lists come from their own stream,
	// so resizing a table never reshuffles the list.
	rng := xrand.New(seed ^ 0x6c62272e07bb0142)
	switch name {
	case "mem_order":
		err = fx.inMemory(seed, 10, scaled(3_000_000, scale, 10))
		for i := 0; i < 30; i++ {
			q := baseQuery(rng.Uint64())
			q.Workers = 1
			fx.ops = append(fx.ops, op{q: q})
		}
	case "round_bound":
		err = fx.inMemory(seed, 20, scaled(1_000_000, scale, 20))
		// Four shapes in three cost clusters (order and trend both run to
		// the resolution exit, Bernstein takes half as long, top-3 an
		// eighth), weighted 2:5:2:3 so that p50 and p90 each fall well
		// inside one cluster rather than on the gap between two.
		for _, shape := range []int{1, 0, 3, 1, 2, 1, 3, 0, 1, 2, 3, 1} {
			q := baseQuery(rng.Uint64())
			q.Workers = 1
			q.BatchSize = 1
			switch shape {
			case 1:
				q.ConfidenceBound = rapidviz.BoundBernstein
			case 2:
				q.Guarantee = rapidviz.GuaranteeTrend
			case 3:
				q.ConfidenceBound = rapidviz.BoundBernsteinFinite
				q.Guarantee = rapidviz.GuaranteeTopT
				q.T = 3
			}
			fx.ops = append(fx.ops, op{q: q})
		}
	case "seg_filtered":
		if err = fx.inMemory(seed, 10, scaled(3_000_000, scale, 10)); err != nil {
			break
		}
		if err = fx.openSegment(); err != nil {
			break
		}
		// Selectivities are a fixed ladder in seed-drawn order with a little
		// jitter, not free draws: five draws are too few to average out, and
		// a query's cost follows its selectivity.
		per := fx.cols.rows() / fx.cols.k()
		ladder := rng.Perm(5)
		for i := 0; i < 15; i++ {
			q := baseQuery(rng.Uint64())
			step := float64(ladder[i/3])
			switch i % 3 {
			case 0: // fresh constant on unclustered x: zone maps cannot help
				q.Where = []rapidviz.Predicate{rapidviz.Where("x", rapidviz.OpLT, 340+80*step+float64(rng.Intn(20)))}
			case 1: // fresh range on clustered t: zone maps skip blocks
				lo := rng.Intn(per / 2)
				hi := lo + int(float64(per)*(0.32+0.04*step)) + rng.Intn(1+per/100)
				q.Where = []rapidviz.Predicate{
					rapidviz.Where("t", rapidviz.OpGE, float64(lo)),
					rapidviz.Where("t", rapidviz.OpLT, float64(hi)),
				}
			default: // an earlier predicate again (x and t by turns): view-cache hit
				q.Where = fx.ops[i-2+(i/3)%2].q.Where
			}
			fx.ops = append(fx.ops, op{q: q})
		}
	case "serve_mix":
		err = fx.inMemory(seed, 10, scaled(1_000_000, scale, 10))
		fx.clients = 2
		const perClient = 15
		lists := make([][]op, fx.clients)
		for j := 0; j < perClient; j++ {
			twin := rng.Uint64()
			for c := range lists {
				q := baseQuery(rng.Uint64())
				var o op
				switch j % 5 {
				case 3: // one of this client's earlier queries again: cached
					q = lists[c][rng.Intn(j)].q
				case 4: // the other client's query with another δ: same draws
					q = baseQuery(twin)
					q.Delta = delta - 0.01*float64(c)
					o.meet = true
				}
				o.q = q
				lists[c] = append(lists[c], o)
			}
		}
		for _, l := range lists {
			fx.ops = append(fx.ops, l...)
		}
	case "ingest_write":
		fx.cols = genColumns(seed, 10, scaled(ingestRows, scale, 10))
		fx.oracle = newOracle(fx.cols)
		fx.csv = fx.cols.csv()
		// Sixteen query seeds, not fewer: a query here ends after one of two
		// sample counts (the last 4096-draw round is needed or not), and
		// samples_per_query is the list's average of that coin.
		for i := 0; i < 16; i++ {
			q := baseQuery(rng.Uint64())
			q.Workers = 1
			fx.ops = append(fx.ops, op{q: q})
		}
		// One cycle outside the list gives the traced run a table to
		// decompose queries on, and the stored size.
		var r opResult
		fx.seg, r, err = ingest(fx.csv, filepath.Join(fx.tmp, "kept"))
		if err == nil {
			fx.table = fx.seg.Table
			fx.storedBytesPerRow = float64(r.writtenBytes) / float64(fx.cols.rows())
		}
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		fx.close()
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	return fx, nil
}

// inMemory generates the workload's rows and ingests them.
func (fx *fixture) inMemory(seed uint64, k, rows int) error {
	fx.cols = genColumns(seed, k, rows)
	fx.oracle = newOracle(fx.cols)
	t, err := fx.cols.buildTable()
	if err != nil {
		return err
	}
	fx.table, fx.mem = t, t
	fx.storedBytesPerRow = 8 * 3
	return nil
}

// openSegment writes mem as a compressed segment directory and makes the
// reopened table the one queries run on.
func (fx *fixture) openSegment() error {
	dir := filepath.Join(fx.tmp, "segments")
	if err := fx.mem.WriteSegmentsOptions(dir, rapidviz.SegmentOptions{Compress: true}); err != nil {
		return err
	}
	seg, err := rapidviz.OpenSegments(dir)
	if err != nil {
		return err
	}
	size, err := dirSize(dir)
	if err != nil {
		seg.Close()
		return err
	}
	fx.seg, fx.table = seg, seg.Table
	fx.storedBytesPerRow = float64(size) / float64(fx.cols.rows())
	return nil
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// newEngine returns an engine with empty caches whose admission waits are
// recorded the way rapidvizd records them.
func newEngine() (*rapidviz.Engine, *serve.Metrics, error) {
	m := serve.NewMetrics()
	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{OnAdmission: m.ObserveAdmission})
	return eng, m, err
}

// pass runs the whole list once, closed loop, against fresh engine-level
// caches (a new Engine or Server): every pass then meets the same mix of
// cold and repeated work, which is what makes count metrics repeat exactly
// however many passes a run fits. Table-level state — the decoded-block
// LRU, the OS page cache — stays warm across passes.
func (fx *fixture) pass() (*passStats, error) {
	switch fx.name {
	case "serve_mix":
		return fx.servePass()
	case "ingest_write":
		ps := &passStats{results: make([]opResult, len(fx.ops))}
		for i, o := range fx.ops {
			ps.results[i] = fx.ingestOp(o, i)
		}
		return ps, nil
	}
	eng, adm, err := newEngine()
	if err != nil {
		return nil, err
	}
	ps := &passStats{results: make([]opResult, len(fx.ops))}
	for i, o := range fx.ops {
		ps.results[i] = streamQuery(eng, o.q, fx.table)
	}
	ps.view, ps.broker = eng.ViewCacheStats(), eng.BrokerStats()
	ps.admissionP99Ms = adm.AdmissionQuantile(0.99) * 1000
	return ps, nil
}

// streamQuery drives one query through Engine.Stream on the caller's own
// view of the table (fresh draw state, as a serving layer takes per query).
func streamQuery(eng *rapidviz.Engine, q rapidviz.Query, table *rapidviz.Table) opResult {
	var r opResult
	start := time.Now()
	for ev := range eng.Stream(context.Background(), q, table.View()) {
		switch {
		case ev.Partial != nil:
			if r.firstMs == 0 {
				r.firstMs = msSince(start)
			}
		case ev.Err != nil:
			r.err = ev.Err
		default:
			r.res = ev.Result
		}
	}
	r.ms = msSince(start)
	if r.firstMs == 0 {
		r.firstMs = r.ms
	}
	return r
}

// ingest runs one parse → write → open → verify cycle of csv into dir and
// returns the open table with the stage times.
func ingest(csv []byte, dir string) (*rapidviz.SegmentTable, opResult, error) {
	var r opResult
	t0 := time.Now()
	table, err := rapidviz.TableFromCSVWorkers(bytes.NewReader(csv), 0)
	if err != nil {
		return nil, r, err
	}
	r.parseMs = msSince(t0)
	t1 := time.Now()
	if err := table.WriteSegmentsOptions(dir, rapidviz.SegmentOptions{Compress: true}); err != nil {
		return nil, r, err
	}
	r.writeMs = msSince(t1)
	t2 := time.Now()
	seg, err := rapidviz.OpenSegments(dir)
	if err != nil {
		return nil, r, err
	}
	r.openMs = msSince(t2)
	t3 := time.Now()
	if err := seg.VerifyChecksums(); err != nil {
		seg.Close()
		return nil, r, err
	}
	r.verifyMs = msSince(t3)
	r.writtenBytes, err = dirSize(dir)
	if err != nil {
		seg.Close()
		return nil, r, err
	}
	return seg, r, nil
}

// ingestOp is one ingest_write operation: the whole cycle from CSV bytes
// to the first trustworthy chart, then the directory is deleted.
func (fx *fixture) ingestOp(o op, i int) opResult {
	dir := filepath.Join(fx.tmp, fmt.Sprintf("cycle-%d", i))
	defer os.RemoveAll(dir)
	start := time.Now()
	seg, r, err := ingest(fx.csv, dir)
	if err != nil {
		r.err = err
		return r
	}
	defer seg.Close()
	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{})
	if err != nil {
		r.err = err
		return r
	}
	offset := msSince(start)
	qr := streamQuery(eng, o.q, seg.Table)
	r.res, r.err = qr.res, qr.err
	r.firstMs = offset + qr.firstMs
	r.ms = msSince(start)
	return r
}

// wsServer is an in-process rapidvizd: serve.Server behind a real TCP
// listener.
type wsServer struct {
	srv  *serve.Server
	http *http.Server
	done chan struct{}
	url  string
}

func startServer(table *rapidviz.Table) (*wsServer, error) {
	srv, err := serve.New(serve.Config{Table: table})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &wsServer{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		done: make(chan struct{}),
		url:  "ws://" + ln.Addr().String() + "/api/stream",
	}
	go func() {
		defer close(s.done)
		s.http.Serve(ln) // returns when stop closes the listener
	}()
	return s, nil
}

func (s *wsServer) stop() {
	s.http.Close()
	<-s.done
	s.srv.Close()
}

// wireRequest spells q as the JSON request a dashboard would send. Only
// the fields the workloads set are carried.
func wireRequest(q rapidviz.Query) (serve.QueryRequest, error) {
	req := serve.QueryRequest{
		T:               q.T,
		Delta:           q.Delta,
		Bound:           q.Bound,
		ConfidenceBound: q.ConfidenceBound,
		Resolution:      q.Resolution,
		BatchSize:       q.BatchSize,
		Workers:         q.Workers,
		Seed:            q.Seed,
	}
	switch q.Guarantee {
	case rapidviz.GuaranteeOrder:
	case rapidviz.GuaranteeTrend:
		req.Guarantee = "trend"
	case rapidviz.GuaranteeTopT:
		req.Guarantee = "topt"
	default:
		return req, fmt.Errorf("no wire spelling for guarantee %v", q.Guarantee)
	}
	ops := map[rapidviz.PredicateOp]string{
		rapidviz.OpLT: "<", rapidviz.OpLE: "<=", rapidviz.OpGT: ">",
		rapidviz.OpGE: ">=", rapidviz.OpEQ: "==", rapidviz.OpNE: "!=",
	}
	for _, p := range q.Where {
		req.Where = append(req.Where, serve.WirePredicate{Column: p.Column, Op: ops[p.Op], Value: p.Value})
	}
	return req, nil
}

// wsQuery submits q over a new WebSocket and reads events to the terminal
// one, as rapidvizd's dashboard does.
func wsQuery(url string, q rapidviz.Query) opResult {
	var r opResult
	req, err := wireRequest(q)
	if err != nil {
		r.err = err
		return r
	}
	blob, err := json.Marshal(req)
	if err != nil {
		r.err = err
		return r
	}
	start := time.Now()
	conn, err := serve.DialWS(url, 10*time.Second)
	if err != nil {
		r.err = err
		return r
	}
	defer conn.Close()
	if err := conn.WriteText(blob); err != nil {
		r.err = err
		return r
	}
	for {
		msg, err := conn.ReadMessage()
		if err != nil {
			r.err = fmt.Errorf("stream ended without a terminal event: %w", err)
			return r
		}
		r.events++
		r.wireBytes += len(msg)
		var ev serve.Event
		if err := json.Unmarshal(msg, &ev); err != nil {
			r.err = err
			return r
		}
		switch ev.Type {
		case "accepted":
			r.acceptedMs = msSince(start)
			r.source = ev.Source
		case "partial":
			if r.firstMs == 0 {
				r.firstMs = msSince(start)
			}
		case "result", "error":
			r.ms = msSince(start)
			if r.firstMs == 0 {
				r.firstMs = r.ms
			}
			r.res = ev.Result
			if ev.Type == "error" {
				r.err = fmt.Errorf("query error: %s", ev.Error)
			}
			return r
		}
	}
}

// servePass starts a fresh server and lets every client walk its list.
func (fx *fixture) servePass() (*passStats, error) {
	s, err := startServer(fx.table)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	ps := &passStats{results: make([]opResult, len(fx.ops))}
	per := len(fx.ops) / fx.clients
	// meets[j] releases the clients once all of them reached index j.
	meets := make([]sync.WaitGroup, per)
	for j := range meets {
		meets[j].Add(fx.clients)
	}
	var wg sync.WaitGroup
	for c := 0; c < fx.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				i := c*per + j
				meets[j].Done()
				if fx.ops[i].meet {
					meets[j].Wait()
				}
				ps.results[i] = wsQuery(s.url, fx.ops[i].q)
			}
		}(c)
	}
	wg.Wait()
	ps.view, ps.broker = s.srv.Engine().ViewCacheStats(), s.srv.Engine().BrokerStats()
	ps.admissionP99Ms = s.srv.Metrics().AdmissionQuantile(0.99) * 1000
	return ps, nil
}
