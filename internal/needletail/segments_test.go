package needletail

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// buildSegDir writes a small segment table and returns its directory plus
// the per-group true means.
func buildSegDir(t *testing.T) (string, []float64) {
	t.Helper()
	b := dataset.NewTableBuilder()
	rng := xrand.New(101)
	names := []string{"AA", "UA", "DL", "WN"}
	means := make([]float64, len(names))
	for gi, name := range names {
		n := 200 + 150*gi
		sum := 0.0
		for i := 0; i < n; i++ {
			v := float64(10*gi) + 40*rng.Float64()
			b.Add(name, v)
			sum += v
		}
		means[gi] = sum / float64(n)
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := tbl.WriteSegments(dir); err != nil {
		t.Fatal(err)
	}
	return dir, means
}

// TestNoIndexOverSegments runs the full NOINDEX algorithm — tuples drawn
// table-wide, the group revealed afterwards — against an on-disk segment
// table: it must terminate with correctly ordered estimates.
func TestNoIndexOverSegments(t *testing.T) {
	dir, means := buildSegDir(t)
	st, err := dataset.OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	u, err := st.Universe(0)
	if err != nil {
		t.Fatal(err)
	}

	opts := core.DefaultOptions()
	opts.MaxDraws = 200_000
	res, err := core.Run(context.Background(), u, xrand.New(43), core.Spec{Algorithm: core.AlgoNoIndex, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if !core.CorrectOrdering(res.Estimates, means) {
		t.Fatalf("no-index over segments misordered: est %v, true %v", res.Estimates, means)
	}
}
