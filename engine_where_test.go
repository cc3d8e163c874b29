package rapidviz

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// whereTestTable builds the quickstart-style sales dataset as a table with
// an extra "qty" column: five stores with well-separated mean prices,
// deterministic noise, qty cycling 0..9 so any qty threshold selects a
// predictable slice of every store.
func whereTestTable(t testing.TB, rowsPerStore int) *Table {
	t.Helper()
	r := xrand.New(0x5a1e5)
	stores := []string{"north", "south", "east", "west", "online"}
	means := map[string]float64{"north": 52, "south": 47, "east": 61, "west": 40, "online": 30}
	b := NewTableBuilderColumns("price", "qty")
	for i := 0; i < rowsPerStore; i++ {
		for _, name := range stores {
			v := means[name] + (r.Float64()-0.5)*16
			if v < 0 {
				v = 0
			}
			if err := b.AddRow(name, v, float64(i%10)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// resultFingerprint renders a public Result at full precision.
func resultFingerprint(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d total=%d capped=%v names=%v est=[", res.Rounds, res.TotalSamples, res.Capped, res.Names)
	for i, e := range res.Estimates {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.17g", e)
	}
	b.WriteString("] counts=")
	fmt.Fprintf(&b, "%v", res.SampleCounts)
	return b.String()
}

// TestWhereGoldenPins pins the filtered execution bit-for-bit: for each
// BatchSize the result is identical at Workers 1 and 8 (worker
// invariance extends to filtered groups), and both match a captured
// golden fingerprint so refactors cannot silently reshape filtered
// sampling streams. (BatchSize 1 and 64 legitimately differ — block
// rounds draw more per group by design — hence one pin per batch size.)
func TestWhereGoldenPins(t *testing.T) {
	goldens := map[int]string{
		1:  "cc40edf3ec3895c1",
		64: "d68adcdfb92982c1",
	}
	tab := whereTestTable(t, 4000)
	eng, err := NewEngine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 64} {
		var base string
		for _, workers := range []int{1, 8} {
			q := Query{
				Seed:      2026,
				Bound:     100,
				BatchSize: batch,
				Workers:   workers,
				Where:     []Predicate{Where("qty", OpLT, 4)},
			}
			res, err := eng.Run(context.Background(), q, tab.Groups())
			if err != nil {
				t.Fatalf("batch=%d workers=%d: %v", batch, workers, err)
			}
			fp := resultFingerprint(res)
			if workers == 1 {
				base = fp
				if h := fnvHash(fp); h != goldens[batch] {
					t.Fatalf("batch=%d golden drifted: hash %s want %s\n%s", batch, h, goldens[batch], fp)
				}
				continue
			}
			if fp != base {
				t.Fatalf("batch=%d: workers=8 diverges from workers=1:\n got %s\nwant %s", batch, fp, base)
			}
		}
	}
}

// fnvHash renders a 64-bit FNV-1a of s, the compact golden-pin form.
func fnvHash(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestWhereConcurrentCachedViews hammers one cached dense selection from
// many concurrent queries. The selection's bitmap rank index is built
// before the view is published, so concurrent Selects are read-only; run
// under -race this pins that contract, and every query must return the
// identical result (each run owns its draw state).
func TestWhereConcurrentCachedViews(t *testing.T) {
	tab := whereTestTable(t, 2000)
	eng, err := NewEngine(EngineConfig{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Seed: 21, Bound: 100, BatchSize: 64, Where: []Predicate{Where("qty", OpGE, 5)}}
	ref, err := eng.Run(context.Background(), q, tab.Groups())
	if err != nil {
		t.Fatal(err)
	}
	want := resultFingerprint(ref)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := eng.Run(context.Background(), q, tab.Groups())
			if err != nil {
				errs[w] = err
				return
			}
			if got := resultFingerprint(res); got != want {
				errs[w] = fmt.Errorf("concurrent cached run diverged:\n got %s\nwant %s", got, want)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWhereViewCacheReuse: repeated filtered queries — predicate order
// permuted, group lists reordered — share one cached selection per table.
func TestWhereViewCacheReuse(t *testing.T) {
	tab := whereTestTable(t, 1000)
	eng, err := NewEngine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	qa := Query{Seed: 5, Bound: 100, Where: []Predicate{Where("qty", OpGE, 3), WhereGroups("north", "east", "south")}}
	qb := Query{Seed: 9, Bound: 100, Where: []Predicate{WhereGroups("south", "east", "north"), Where("qty", OpGE, 3)}}
	if _, err := eng.Run(ctx, qa, tab.Groups()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ctx, qb, tab.Groups()); err != nil {
		t.Fatal(err)
	}
	if n := eng.viewCount.Load(); n != 1 {
		t.Fatalf("fingerprint-equal filters cached %d views, want 1", n)
	}
	// A different constant is a different selection.
	qc := Query{Seed: 5, Bound: 100, Where: []Predicate{Where("qty", OpGE, 4), WhereGroups("north", "east", "south")}}
	if _, err := eng.Run(ctx, qc, tab.Groups()); err != nil {
		t.Fatal(err)
	}
	if n := eng.viewCount.Load(); n != 2 {
		t.Fatalf("distinct filter cached %d views, want 2", n)
	}
	// Cached selections serve Table.Groups() group sets too, and reuse must
	// produce the same answer as the first run (each run owns its draw
	// state).
	r1, err := eng.Run(ctx, qa, tab.Groups())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Run(ctx, qa, tab.Groups())
	if err != nil {
		t.Fatal(err)
	}
	if resultFingerprint(r1) != resultFingerprint(r2) {
		t.Fatal("cached view reuse changed the result")
	}
}

func TestWhereValidation(t *testing.T) {
	tab := whereTestTable(t, 100)
	eng, err := NewEngine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	where := []Predicate{WhereValue(OpGE, 0)}

	// Non-table groups cannot be filtered.
	plain := []Group{GroupFromValues("a", []float64{1, 2}), GroupFromValues("b", []float64{3, 4})}
	if _, err := eng.Run(ctx, Query{Bound: 10, Where: where}, plain); err == nil ||
		!strings.Contains(err.Error(), "table-backed") {
		t.Fatalf("non-table groups: %v", err)
	}
	// A sliced group set is rejected (subset selection goes through
	// WhereGroups, not slicing).
	if _, err := eng.Run(ctx, Query{Bound: 100, Where: where}, tab.Groups()[1:3]); err == nil ||
		!strings.Contains(err.Error(), "full group set") {
		t.Fatalf("sliced groups: %v", err)
	}
	// Unknown columns and groups surface the dataset layer's message.
	if _, err := eng.Run(ctx, Query{Bound: 100, Where: []Predicate{Where("nosuch", OpGT, 1)}}, tab.Groups()); err == nil ||
		!strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("unknown column: %v", err)
	}
	if _, err := eng.Run(ctx, Query{Bound: 100, Where: []Predicate{WhereGroups("nostore")}}, tab.Groups()); err == nil ||
		!strings.Contains(err.Error(), "unknown group") {
		t.Fatalf("unknown group: %v", err)
	}
	// A filter matching nothing is an error, not an empty chart.
	if _, err := eng.Run(ctx, Query{Bound: 100, Where: []Predicate{WhereValue(OpGT, 1e9)}}, tab.Groups()); err == nil ||
		!strings.Contains(err.Error(), "matches no rows") {
		t.Fatalf("empty filter: %v", err)
	}
}

// TestWhereExhaustion: a filter can shrink groups below what the sampler
// would like to draw; the run must settle those groups at their exact
// filtered means (population exhausted) rather than loop, cap, or draw
// outside the selection.
func TestWhereExhaustion(t *testing.T) {
	// qty == 7 keeps one row in ten; with only 60 rows per store the
	// filtered groups hold 6 values each — far below any settle budget.
	tab := whereTestTable(t, 60)
	eng, err := NewEngine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Seed: 3, Bound: 100, Where: []Predicate{Where("qty", OpEQ, 7)}}
	res, err := eng.Run(context.Background(), q, tab.Groups())
	if err != nil {
		t.Fatal(err)
	}
	if res.Capped {
		t.Fatal("exhausted filtered run reported capped")
	}
	// Every group settled at its exact filtered mean.
	view, err := tab.Filter(q.Where...)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range view.Groups() {
		if g.Size() != 6 {
			t.Fatalf("group %q filtered size %d, want 6", g.Name(), g.Size())
		}
		if res.Names[i] != g.Name() {
			t.Fatalf("result name %q, want %q", res.Names[i], g.Name())
		}
		if diff := res.Estimates[i] - g.TrueMean(); diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("group %q estimate %v, want exact filtered mean %v", g.Name(), res.Estimates[i], g.TrueMean())
		}
	}
}

// TestStreamWhere: streamed partials carry the surviving groups' names,
// never a dropped group's, and the terminal result covers exactly the
// survivors.
func TestStreamWhere(t *testing.T) {
	tab := whereTestTable(t, 2000)
	eng, err := NewEngine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Seed: 11, Bound: 100, Where: []Predicate{
		WhereGroups("north", "east", "online"),
		Where("qty", OpGE, 2),
	}}
	var res *Result
	seen := map[string]bool{}
	for ev := range eng.Stream(context.Background(), q, tab.Groups()) {
		switch {
		case ev.Partial != nil:
			seen[ev.Partial.Group] = true
		case ev.Err != nil:
			t.Fatal(ev.Err)
		default:
			res = ev.Result
		}
	}
	if res == nil {
		t.Fatal("no terminal result")
	}
	want := []string{"north", "east", "online"}
	if len(res.Names) != 3 {
		t.Fatalf("result names %v", res.Names)
	}
	for _, name := range want {
		found := false
		for _, n := range res.Names {
			found = found || n == name
		}
		if !found {
			t.Fatalf("missing %q in %v", name, res.Names)
		}
	}
	for name := range seen {
		if name == "south" || name == "west" {
			t.Fatalf("dropped group %q appeared in partials", name)
		}
	}
}
