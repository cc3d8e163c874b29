package needletail

import (
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/dataset"
	"repro/internal/needletail/disksim"
	"repro/internal/xrand"
)

// Engine binds a table to the sampling-algorithm layer: it exposes each
// group of the table as a dataset.Group whose draws charge the simulated
// device, so any algorithm in internal/core runs unmodified on NEEDLETAIL
// and its run can be costed in simulated I/O and CPU seconds. A
// materialized table's groups are dataset.BitmapGroups over its index
// bitmaps: they draw through the dataset.Sampler like every table group,
// with and without replacement, and hold no draw state, so any number of
// runs may share one universe.
type Engine struct {
	table Table
	col   int
	c     float64
}

// NewEngine returns an engine over the named value column of the table.
// c bounds the column's values (the paper's c; e.g. 24h for flight delays).
func NewEngine(table Table, column string, c float64) (*Engine, error) {
	col := table.Schema().ColumnIndex(column)
	if col < 0 {
		return nil, fmt.Errorf("needletail: no value column %q in schema", column)
	}
	if c <= 0 {
		return nil, fmt.Errorf("needletail: value bound c must be positive, got %v", c)
	}
	return &Engine{table: table, col: col, c: c}, nil
}

// Table returns the underlying table.
func (e *Engine) Table() Table { return e.table }

// Device returns the simulated device being charged.
func (e *Engine) Device() *disksim.Device { return e.table.Device() }

// Universe exposes the table's groups as a dataset.Universe whose draws
// sample through the engine.
func (e *Engine) Universe() *dataset.Universe {
	names := e.table.GroupNames()
	groups := make([]dataset.Group, len(names))
	mt, materialized := e.table.(*MaterializedTable)
	for code, name := range names {
		if materialized {
			groups[code] = e.bitmapGroup(mt, name, mt.bitmaps[code])
		} else {
			groups[code] = &engineGroup{eng: e, code: code, name: name}
		}
	}
	return dataset.NewUniverse(e.c, groups...)
}

// bitmapGroup is the group over the rows of mt that bits selects. Each
// drawn row charges one sample's CPU and then its page read, as the
// table's own SampleRow does; TrueMean scans the rows without charging.
func (e *Engine) bitmapGroup(mt *MaterializedTable, name string, bits *bitmap.Bitmap) dataset.Group {
	col := e.col
	fetch := func(row int) float64 {
		mt.device.ChargeSampleCPU(1)
		return mt.readValue(int64(row), col)
	}
	return dataset.NewBitmapGroup(name, bits, fetch, func() float64 { return mt.meanOver(bits, col) })
}

// Scan runs the SCAN baseline on the engine's column and returns the exact
// group means, charging a full sequential pass.
func (e *Engine) Scan() []float64 {
	sums, counts := e.table.ScanAggregate(e.col)
	means := make([]float64, len(sums))
	for i := range sums {
		if counts[i] > 0 {
			means[i] = sums[i] / float64(counts[i])
		}
	}
	return means
}

// UniverseWhere exposes the table's groups restricted to the rows matching
// the given predicate bitmap (selection predicates, §6.3.3): the returned
// universe's group i draws uniformly from {rows of group i} ∩ {pred}, via
// the AND of the group's index bitmap with the predicate bitmap, exactly
// as the paper describes for WHERE/HAVING clauses. Groups left empty by
// the predicate are dropped. Materialized tables only.
func (e *Engine) UniverseWhere(pred *bitmap.Bitmap) (*dataset.Universe, error) {
	mt, ok := e.table.(*MaterializedTable)
	if !ok {
		return nil, fmt.Errorf("needletail: predicates require a materialized table")
	}
	var groups []dataset.Group
	for code, name := range mt.GroupNames() {
		bm := mt.bitmaps[code].And(pred)
		if bm.Count() == 0 {
			continue
		}
		groups = append(groups, e.bitmapGroup(mt, name, bm))
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("needletail: predicate matches no rows")
	}
	return dataset.NewUniverse(e.c, groups...), nil
}

// FractionEstimator returns a dataset.FractionEstimator that estimates
// group fractional sizes by membership sampling: draw a uniformly random
// row of the whole table and test whether it belongs to the group. The
// membership test runs against the in-memory index (the bitmap or the
// virtual spec), so it costs CPU but no I/O — matching the paper's remark
// that NEEDLETAIL retrieves this information "without doing any disk
// seeks".
func (e *Engine) FractionEstimator() dataset.FractionEstimator {
	return &engineFractionEstimator{eng: e}
}

type engineFractionEstimator struct {
	eng *Engine
}

// DrawFractionEstimate returns 1 if a uniformly random row belongs to
// group i, else 0 — an unbiased Bernoulli(s_i) estimate.
func (f *engineFractionEstimator) DrawFractionEstimate(i int, r *xrand.RNG) float64 {
	t := f.eng.table
	t.Device().ChargeSampleCPU(1)
	row := r.Int64n(t.NumRows())
	if mt, ok := t.(*MaterializedTable); ok {
		if mt.bitmaps[i].Get(int(row)) {
			return 1
		}
		return 0
	}
	// Virtual layout places each group's rows contiguously, so a uniform
	// row id is a membership test against the group's extent.
	var lo int64
	for c := 0; c < i; c++ {
		lo += t.GroupSize(c)
	}
	if row >= lo && row < lo+t.GroupSize(i) {
		return 1
	}
	return 0
}

// engineGroup adapts one group of a virtual table to dataset.Group: its
// draws are with replacement, one SampleRow each (a virtual group's
// nominal population dwarfs any run, so without-replacement sampling would
// be indistinguishable), and its TrueMean is the analytical mean.
type engineGroup struct {
	eng  *Engine
	code int
	name string
}

// Name returns the group's name.
func (g *engineGroup) Name() string { return g.name }

// Size returns the group's row count.
func (g *engineGroup) Size() int64 { return g.eng.table.GroupSize(g.code) }

// Draw samples one row of the group.
func (g *engineGroup) Draw(r *xrand.RNG) float64 {
	return g.eng.table.SampleRow(g.code, g.eng.col, r)
}

// TrueMean returns the group's analytical mean — for verification only.
func (g *engineGroup) TrueMean() float64 {
	return g.eng.table.(*VirtualTable).specs[g.code].Dists[g.eng.col].Mean()
}
