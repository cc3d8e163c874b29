package needletail

import (
	"fmt"

	"repro/internal/needletail/disksim"
	"repro/internal/xrand"
)

// VirtualGroupSpec defines one group of a VirtualTable.
type VirtualGroupSpec struct {
	// Name labels the group.
	Name string
	// N is the nominal row count.
	N int64
	// Dist generates the value columns; one distribution per value column.
	Dists []xrand.Dist
}

// VirtualTable is a generator-backed table for sweeps whose nominal sizes
// (10⁹–10¹⁰ rows) cannot be materialized. It charges the simulated device
// exactly as a materialized table would — one random row fetch per sample,
// sequential blocks plus per-row hash updates for a scan — but produces
// values from per-group distributions instead of stored bytes. The paper's
// sample complexity is size-independent (Theorem 3.6), so this preserves
// every quantity the large-scale figures report. See DESIGN.md §4.
type VirtualTable struct {
	schema Schema
	device *disksim.Device
	specs  []VirtualGroupSpec
	names  []string
	total  int64
	// base[i] is the first row id of group i (groups laid out
	// contiguously, as a clustered load would produce); rowsPerBlock maps
	// row ids to device blocks for I/O accounting.
	base         []int64
	rowsPerBlock int64
}

// NewVirtualTable builds a virtual table over the given group specs.
func NewVirtualTable(schema Schema, device *disksim.Device, specs []VirtualGroupSpec) (*VirtualTable, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("needletail: virtual table needs at least one group")
	}
	t := &VirtualTable{schema: schema, device: device, specs: specs}
	for _, s := range specs {
		if s.N <= 0 {
			return nil, fmt.Errorf("needletail: virtual group %q must have positive size", s.Name)
		}
		if len(s.Dists) != len(schema.ValueColumns) {
			return nil, fmt.Errorf("needletail: virtual group %q has %d dists, schema has %d value columns",
				s.Name, len(s.Dists), len(schema.ValueColumns))
		}
		t.names = append(t.names, s.Name)
		t.base = append(t.base, t.total)
		t.total += s.N
	}
	t.rowsPerBlock = int64(device.Model().BlockSize / schema.RowWidth())
	if t.rowsPerBlock == 0 {
		t.rowsPerBlock = 1
	}
	return t, nil
}

// Schema returns the table schema.
func (t *VirtualTable) Schema() Schema { return t.schema }

// NumRows returns the nominal row count.
func (t *VirtualTable) NumRows() int64 { return t.total }

// GroupNames returns the group names in code order.
func (t *VirtualTable) GroupNames() []string { return t.names }

// GroupSize returns the nominal size of the group.
func (t *VirtualTable) GroupSize(code int) int64 { return t.specs[code].N }

// Device returns the simulated device.
func (t *VirtualTable) Device() *disksim.Device { return t.device }

// SampleRow draws one value of the given column from the group's
// distribution, charging the same costs as a materialized sample: one
// random block read (cached after first touch) for a uniformly random row
// position within the group's extent, plus the per-sample CPU.
func (t *VirtualTable) SampleRow(code, col int, rng *xrand.RNG) float64 {
	t.device.ChargeSampleCPU(1)
	row := t.base[code] + rng.Int64n(t.specs[code].N)
	t.device.ChargeBlockRead(row / t.rowsPerBlock)
	return t.specs[code].Dists[col].Sample(rng)
}

// ScanAggregate simulates a full sequential scan: it charges the block
// reads and per-row hash updates a real scan would incur, and returns
// per-group aggregates synthesized from the analytical means (the quantity
// a real scan would compute exactly). Values are deterministic, so SCAN on
// a virtual table is exact by construction.
func (t *VirtualTable) ScanAggregate(col int) ([]float64, []int64) {
	t.device.ChargeSeqBlocks(t.device.BlocksForRows(t.total, t.schema.RowWidth()))
	t.device.ChargeHashUpdates(t.total)
	sums := make([]float64, len(t.specs))
	counts := make([]int64, len(t.specs))
	for i, s := range t.specs {
		sums[i] = s.Dists[col].Mean() * float64(s.N)
		counts[i] = s.N
	}
	return sums, counts
}
