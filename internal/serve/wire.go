// Wire protocol: the JSON shapes rapidvizd speaks over HTTP and
// WebSocket. A QueryRequest maps field-for-field onto rapidviz.Query with
// enums spelled as strings; the streamed side is a sequence of Events —
// "accepted", zero or more "round" traces and "partial" settles, then
// exactly one terminal "result" or "error".
package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"repro"
)

// QueryRequest is one JSON query submission. The zero request asks for
// AVG estimates of every group under the full ordering guarantee with
// IFOCUS — the same defaults as rapidviz.Query.
type QueryRequest struct {
	// Aggregate: "avg" (default), "sum", "count", "normalized_sum",
	// "normalized_count".
	Aggregate string `json:"aggregate,omitempty"`
	// Guarantee: "order" (default), "trend", "topt", "values", "mistakes".
	Guarantee string `json:"guarantee,omitempty"`
	// Algorithm: "auto" (default), "ifocus", "irefine", "roundrobin",
	// "scan", "noindex".
	Algorithm string `json:"algorithm,omitempty"`

	// T is the top-group count for guarantee "topt".
	T int `json:"t,omitempty"`
	// MaxError is the per-group value bound for guarantee "values".
	MaxError float64 `json:"max_error,omitempty"`
	// CorrectPairs is the certain-comparison fraction for "mistakes".
	CorrectPairs float64 `json:"correct_pairs,omitempty"`

	// Where lists predicate conjuncts over the served table's columns.
	Where []WirePredicate `json:"where,omitempty"`

	// Delta, Bound, ConfidenceBound, Resolution, WithReplacement,
	// BatchSize, RoundGrowth, Workers, Seed, Deterministic, MaxRounds, and
	// MaxDraws carry the same semantics as the rapidviz.Query fields of
	// the same names; zero values defer to the server's defaults.
	Delta           float64 `json:"delta,omitempty"`
	Bound           float64 `json:"bound,omitempty"`
	ConfidenceBound string  `json:"confidence_bound,omitempty"`
	Resolution      float64 `json:"resolution,omitempty"`
	WithReplacement bool    `json:"with_replacement,omitempty"`
	BatchSize       int     `json:"batch_size,omitempty"`
	RoundGrowth     float64 `json:"round_growth,omitempty"`
	Workers         int     `json:"workers,omitempty"`
	Seed            uint64  `json:"seed,omitempty"`
	Deterministic   bool    `json:"deterministic,omitempty"`
	MaxRounds       int     `json:"max_rounds,omitempty"`
	MaxDraws        int64   `json:"max_draws,omitempty"`

	// DeadlineMillis bounds the query's wall-clock time. Zero takes the
	// server default; the server clamps every request to its maximum.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// Traces asks for throttled per-round "round" events (live converging
	// error bars) in addition to settle partials. Stream requests only.
	Traces bool `json:"traces,omitempty"`
}

// WirePredicate is one Where conjunct: either a typed comparison
// {"column": "elapsed", "op": ">=", "value": 150} (an empty column means
// the value column) or a group inclusion {"groups": ["AA", "DL"]}.
type WirePredicate struct {
	Column string   `json:"column,omitempty"`
	Op     string   `json:"op,omitempty"`
	Value  float64  `json:"value,omitempty"`
	Groups []string `json:"groups,omitempty"`
}

// Event is one streamed protocol message.
type Event struct {
	// Type is "accepted", "round", "partial", "result", or "error".
	Type string `json:"type"`

	// Accepted fields: the groups the query will sample (index-aligned
	// with every later event), the resolved query fingerprint, and how the
	// execution was sourced — "run" (fresh execution), "shared" (attached
	// to an identical in-flight query), or "cached" (replayed from the
	// whole-query result cache).
	Groups      []string `json:"groups,omitempty"`
	Fingerprint string   `json:"fingerprint,omitempty"`
	Source      string   `json:"source,omitempty"`

	// Round carries a throttled per-round trace.
	Round *rapidviz.RoundTrace `json:"round,omitempty"`
	// Partial carries one settled group.
	Partial *rapidviz.Partial `json:"partial,omitempty"`
	// Result carries the terminal result.
	Result *rapidviz.Result `json:"result,omitempty"`
	// Error carries the terminal error text.
	Error string `json:"error,omitempty"`
}

// Execution sources reported in the accepted event.
const (
	SourceRun    = "run"
	SourceShared = "shared"
	SourceCached = "cached"
)

// terminal reports whether the event ends its stream.
func (e *Event) terminal() bool { return e.Type == "result" || e.Type == "error" }

// wireOps maps the wire spellings onto predicate operators.
var wireOps = map[string]rapidviz.PredicateOp{
	"<": rapidviz.OpLT, "<=": rapidviz.OpLE,
	">": rapidviz.OpGT, ">=": rapidviz.OpGE,
	"==": rapidviz.OpEQ, "!=": rapidviz.OpNE,
}

// wireAggregates, wireGuarantees, and wireAlgorithms spell the query enums.
var (
	wireAggregates = map[string]rapidviz.Aggregate{
		"": rapidviz.AggAvg, "avg": rapidviz.AggAvg,
		"sum": rapidviz.AggSum, "count": rapidviz.AggCount,
		"normalized_sum":   rapidviz.AggNormalizedSum,
		"normalized_count": rapidviz.AggNormalizedCount,
	}
	wireGuarantees = map[string]rapidviz.Guarantee{
		"": rapidviz.GuaranteeOrder, "order": rapidviz.GuaranteeOrder,
		"trend": rapidviz.GuaranteeTrend, "topt": rapidviz.GuaranteeTopT,
		"values": rapidviz.GuaranteeValues, "mistakes": rapidviz.GuaranteeMistakes,
	}
	wireAlgorithms = map[string]rapidviz.Algorithm{
		"": rapidviz.AlgoAuto, "auto": rapidviz.AlgoAuto,
		"ifocus": rapidviz.AlgoIFocus, "irefine": rapidviz.AlgoIRefine,
		"roundrobin": rapidviz.AlgoRoundRobin, "scan": rapidviz.AlgoScan,
		"noindex": rapidviz.AlgoNoIndex,
	}
)

// Query maps the request onto a rapidviz.Query, rejecting unknown enum
// spellings at the wire boundary (the engine's own validation still runs
// on the result).
func (r *QueryRequest) Query() (rapidviz.Query, error) {
	var q rapidviz.Query
	agg, ok := wireAggregates[r.Aggregate]
	if !ok {
		return q, fmt.Errorf("unknown aggregate %q", r.Aggregate)
	}
	guar, ok := wireGuarantees[r.Guarantee]
	if !ok {
		return q, fmt.Errorf("unknown guarantee %q", r.Guarantee)
	}
	algo, ok := wireAlgorithms[r.Algorithm]
	if !ok {
		return q, fmt.Errorf("unknown algorithm %q", r.Algorithm)
	}
	q = rapidviz.Query{
		Aggregate:       agg,
		Guarantee:       guar,
		Algorithm:       algo,
		T:               r.T,
		MaxError:        r.MaxError,
		CorrectPairs:    r.CorrectPairs,
		Delta:           r.Delta,
		Bound:           r.Bound,
		ConfidenceBound: r.ConfidenceBound,
		Resolution:      r.Resolution,
		WithReplacement: r.WithReplacement,
		BatchSize:       r.BatchSize,
		RoundGrowth:     r.RoundGrowth,
		Workers:         r.Workers,
		Seed:            r.Seed,
		Deterministic:   r.Deterministic,
		MaxRounds:       r.MaxRounds,
		MaxDraws:        r.MaxDraws,
	}
	for i, p := range r.Where {
		switch {
		case len(p.Groups) > 0:
			if p.Op != "" || p.Column != "" {
				return q, fmt.Errorf("where[%d]: a groups predicate takes no column/op", i)
			}
			q.Where = append(q.Where, rapidviz.WhereGroups(p.Groups...))
		default:
			op, ok := wireOps[p.Op]
			if !ok {
				return q, fmt.Errorf("where[%d]: unknown op %q", i, p.Op)
			}
			q.Where = append(q.Where, rapidviz.Where(p.Column, op, p.Value))
		}
	}
	return q, nil
}

// deadline resolves the request's deadline against the server's default
// and ceiling.
func (r *QueryRequest) deadline(def, max time.Duration) time.Duration {
	d := time.Duration(r.DeadlineMillis) * time.Millisecond
	if d <= 0 {
		d = def
	}
	if max > 0 && (d <= 0 || d > max) {
		d = max
	}
	return d
}

// encodeEvent renders one protocol message. Marshaling wire types cannot
// fail; a panic here means a wire struct gained an unserializable field.
func encodeEvent(ev Event) []byte {
	b, err := json.Marshal(ev)
	if err != nil {
		panic("serve: encoding wire event: " + err.Error())
	}
	return b
}
