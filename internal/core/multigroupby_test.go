package core

import (
	"testing"

	"repro/internal/xrand"
)

// testCellSource: kx strata × kz cells with well-separated cell means and
// equal cell populations within a stratum.
type testCellSource struct {
	means [][]float64 // [x][z]
	c     float64
}

func (s *testCellSource) NumX() int  { return len(s.means) }
func (s *testCellSource) NumZ() int  { return len(s.means[0]) }
func (s *testCellSource) C() float64 { return s.c }

func (s *testCellSource) Draw(x int, r *xrand.RNG) (int, float64) {
	z := r.Intn(len(s.means[x]))
	d := xrand.TruncNormal{Mu: s.means[x][z], Sigma: 5, Lo: 0, Hi: s.c}
	return z, d.Sample(r)
}

func TestMultiGroupByOrdersCells(t *testing.T) {
	src := &testCellSource{
		means: [][]float64{
			{10, 40},
			{70, 25},
			{55, 90},
		},
		c: 100,
	}
	opts := DefaultOptions()
	opts.Resolution = 2
	opts.MaxDraws = 50_000_000
	res, err := MultiGroupBy(src, xrand.New(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Capped {
		t.Fatal("run capped")
	}
	// Flatten and check the cross-product ordering at the resolution.
	var est, truth []float64
	for x := range src.means {
		for z := range src.means[x] {
			est = append(est, res.CellEstimates[x][z])
			truth = append(truth, src.means[x][z])
			if res.CellCounts[x][z] == 0 {
				t.Fatalf("cell (%d,%d) never sampled", x, z)
			}
		}
	}
	if !ResolutionCorrect(est, truth, 2) {
		t.Fatalf("cell ordering wrong: %v vs %v", est, truth)
	}
}

func TestMultiGroupByStrataSettleIndependently(t *testing.T) {
	// Stratum 0's cells are far from everything; strata 1/2 share a
	// contended pair. Stratum 0 must stop being drawn from early.
	src := &testCellSource{
		means: [][]float64{
			{5, 95},
			{48, 70},
			{50, 30},
		},
		c: 100,
	}
	opts := DefaultOptions()
	opts.Resolution = 4
	opts.MaxDraws = 50_000_000
	res, err := MultiGroupBy(src, xrand.New(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Capped {
		t.Fatal("run capped")
	}
	s0 := res.CellCounts[0][0] + res.CellCounts[0][1]
	s1 := res.CellCounts[1][0] + res.CellCounts[1][1]
	s2 := res.CellCounts[2][0] + res.CellCounts[2][1]
	if s0 >= s1 || s0 >= s2 {
		t.Fatalf("easy stratum not settled early: %d vs %d/%d", s0, s1, s2)
	}
}

func TestMultiGroupByValidation(t *testing.T) {
	src := &testCellSource{means: [][]float64{{10}}, c: 100}
	if _, err := MultiGroupBy(src, xrand.New(1), Options{Delta: 0}); err == nil {
		t.Fatal("bad delta accepted")
	}
	bad := &badCellSource{}
	if _, err := MultiGroupBy(bad, xrand.New(1), DefaultOptions()); err == nil {
		t.Fatal("empty source accepted")
	}
	// Invalid z from the source is reported, not ignored.
	badZ := &badZSource{}
	if _, err := MultiGroupBy(badZ, xrand.New(1), DefaultOptions()); err == nil {
		t.Fatal("invalid z accepted")
	}
}

type badCellSource struct{}

func (badCellSource) NumX() int                           { return 0 }
func (badCellSource) NumZ() int                           { return 0 }
func (badCellSource) C() float64                          { return 1 }
func (badCellSource) Draw(int, *xrand.RNG) (int, float64) { return 0, 0 }

type badZSource struct{}

func (badZSource) NumX() int                           { return 1 }
func (badZSource) NumZ() int                           { return 1 }
func (badZSource) C() float64                          { return 1 }
func (badZSource) Draw(int, *xrand.RNG) (int, float64) { return 7, 0.5 }

func TestMultiGroupByMaxDraws(t *testing.T) {
	// Two identical cells in different strata never separate; the cap must
	// fire and be reported.
	src := &testCellSource{means: [][]float64{{50}, {50}}, c: 100}
	opts := DefaultOptions()
	opts.MaxDraws = 10_000
	res, err := MultiGroupBy(src, xrand.New(3), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Capped {
		t.Fatal("cap did not fire")
	}
	if res.TotalSamples > 10_000 {
		t.Fatalf("overshot the cap: %d", res.TotalSamples)
	}
}
