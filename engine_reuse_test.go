package rapidviz_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// TestReusedGroupSetDeterminism: "same query + seed ⇒ same result" must
// hold on a group set that has already served a run — the engine runs the
// same query three times over one set, and all three must agree bit for
// bit. Draw state that resumed from whatever arrangement the previous run
// left behind would draw a different, if equally uniform, stream the
// second time. Every without-replacement state form is covered: heap
// slices, table groups, filtered selections, mmapped and compressed
// segments (dense permutation), and a segment group past the sparse gate.
func TestReusedGroupSetDeterminism(t *testing.T) {
	tbl := segTestTable(t)
	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	where := rapidviz.Query{Where: []rapidviz.Predicate{rapidviz.Where("elapsed", rapidviz.OpGE, 150)}}

	cases := []struct {
		name  string
		fresh func(t *testing.T) []rapidviz.Group
	}{
		{"slice", func(*testing.T) []rapidviz.Group {
			groups := make([]rapidviz.Group, tbl.K())
			for i, g := range tbl.Groups() {
				var vals []float64
				g.(dataset.Scannable).Scan(func(v float64) { vals = append(vals, v) })
				groups[i] = rapidviz.GroupFromValues(g.Name(), vals)
			}
			return groups
		}},
		{"table", func(*testing.T) []rapidviz.Group { return tbl.Groups() }},
		{"filtered", func(t *testing.T) []rapidviz.Group {
			groups, err := eng.ResolveGroups(where, tbl.Groups())
			if err != nil {
				t.Fatal(err)
			}
			return groups
		}},
	}
	for _, format := range segFormats {
		dir := t.TempDir()
		if err := tbl.WriteSegmentsOptions(dir, format.opts); err != nil {
			t.Fatal(err)
		}
		st, err := rapidviz.OpenSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		cases = append(cases, struct {
			name  string
			fresh func(t *testing.T) []rapidviz.Group
		}{"segment-" + format.name, func(*testing.T) []rapidviz.Group { return st.Groups() }})
	}

	for _, tc := range cases {
		for _, batch := range []int{1, 0} { // the scalar step and the auto block schedule
			q := rapidviz.Query{Bound: tbl.MaxValue(), Seed: 7, BatchSize: batch}
			assertReuseDeterministic(t, tc.name, eng, q, tc.fresh)
		}
	}

	if testing.Short() {
		t.Log("skipping the sparse-permutation case: it writes a 67 MB segment table")
		return
	}
	// Past 1<<22 rows a segment group keeps its permutation as a sparse map.
	const rows = 1<<22 + 1000
	dir := t.TempDir()
	sw, err := dataset.CreateSegments(dir, "value")
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(77)
	for gi, name := range []string{"G0", "G1"} {
		if err := sw.StartGroup(name); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := sw.Append(float64(10*gi) + 80*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := rapidviz.OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	assertReuseDeterministic(t, "segment-sparse", eng, rapidviz.Query{Bound: 100, Seed: 7},
		func(*testing.T) []rapidviz.Group { return st.Groups() })
}

func assertReuseDeterministic(t *testing.T, name string, eng *rapidviz.Engine, q rapidviz.Query, fresh func(*testing.T) []rapidviz.Group) {
	t.Run(fmt.Sprintf("%s/batch=%d", name, q.BatchSize), func(t *testing.T) {
		ctx := context.Background()
		run := func(groups []rapidviz.Group) *rapidviz.Result {
			res, err := eng.Run(ctx, q, groups)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		reused := fresh(t)
		first, second, pristine := run(reused), run(reused), run(fresh(t))
		if first.TotalSamples < 100 {
			t.Fatalf("only %d samples drawn: the case proves nothing", first.TotalSamples)
		}
		assertIdenticalResults(t, pristine, first)
		assertIdenticalResults(t, first, second)
	})
}

// TestConcurrentQueriesRecycleDrawState hammers the draw-state pools: 16
// goroutines run queries over one table at once — bare and filtered, so
// both the table's and a cached selection's pools are taken from and
// released to concurrently — and every run must equal the one a quiet
// engine produces for its seed.
// The CI race job runs this under -race.
func TestConcurrentQueriesRecycleDrawState(t *testing.T) {
	tbl := segTestTable(t)
	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	query := func(seed int) rapidviz.Query {
		q := rapidviz.Query{Bound: tbl.MaxValue(), Seed: uint64(1 + seed%4), BatchSize: []int{0, 1, 64}[seed%3]}
		if seed%2 == 1 {
			q.Where = []rapidviz.Predicate{rapidviz.Where("elapsed", rapidviz.OpGE, 150)}
		}
		return q
	}
	const queries = 12 // distinct (seed, batch, filter) shapes
	want := make([]*rapidviz.Result, queries)
	for i := range want {
		if want[i], err = eng.Run(context.Background(), query(i), tbl.Groups()); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines, rounds = 16, 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % queries
				res, err := eng.Run(context.Background(), query(i), tbl.Groups())
				if err != nil {
					t.Error(err)
					return
				}
				if res.TotalSamples != want[i].TotalSamples || fmt.Sprint(res.Estimates) != fmt.Sprint(want[i].Estimates) {
					t.Errorf("query %d under load: %d samples %v, alone %d samples %v",
						i, res.TotalSamples, res.Estimates, want[i].TotalSamples, want[i].Estimates)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
