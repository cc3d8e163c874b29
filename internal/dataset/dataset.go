// Package dataset defines the group abstraction shared by every sampling
// algorithm in this repository: a group is a (possibly enormous) multiset of
// bounded numeric values from which uniform random samples can be drawn.
//
// Three implementations are provided:
//
//   - SliceGroup materializes its values in memory and supports exact
//     sampling both with and without replacement. It backs the unit tests,
//     the tables of table.go, and every experiment small enough to hold.
//   - BitmapGroup is the group over the rows a bitmap selects, whose
//     values a caller's reader fetches — NEEDLETAIL's row store, which
//     charges a simulated device per read. It draws through the same
//     Sampler cursors, with and without replacement, as SliceGroup.
//   - DistGroup is *virtual*: it is defined by a distribution and a nominal
//     size. The paper's sample complexity is independent of group size
//     (Theorem 3.6), so the 10⁹–10¹⁰-row sweeps of Figures 3 and 4 only need
//     the ability to draw the next sample and the nominal n for the
//     Hoeffding–Serfling finite-population term; DistGroup provides both
//     without materializing rows. See DESIGN.md §4 ("Virtual groups").
package dataset

import (
	"fmt"
	"math"

	"repro/internal/bitmap"
	"repro/internal/xrand"
)

// Group is a named multiset of values in a bounded range that supports
// uniform random sampling. The groups this package builds are immutable
// after construction and safe for concurrent use: a run's draw state lives
// in its Sampler, never in the group.
type Group interface {
	// Name identifies the group (the x-axis label of its bar).
	Name() string
	// Size returns the number of elements, or 0 if unknown/unbounded.
	Size() int64
	// Draw returns a uniform random element with replacement.
	Draw(r *xrand.RNG) float64
	// TrueMean returns the exact average of the multiset. Algorithms must
	// never call this; it exists for verification and difficulty analysis.
	TrueMean() float64
}

// Scannable is implemented by groups whose full contents can be visited,
// enabling the SCAN baseline.
type Scannable interface {
	Group
	// Scan calls fn for every element. It returns the number visited.
	Scan(fn func(v float64)) int64
}

// SliceGroup is a fully materialized group: a name, the statistics tracked
// at construction, and the shared draw machinery (drawCore, kernel.go) over
// its column — a heap slice, an mmapped segment chunk, or a compressed
// block window.
type SliceGroup struct {
	name string
	mean float64
	maxv float64
	drawCore
}

// sparsePermGate is the row count above which a segment-backed group
// tracks its Fisher–Yates permutation sparsely. Below it the dense int32
// array (4 bytes/row) is cheap and faster per step; above it the array
// alone would rival the mapped data in size, defeating out-of-core
// sampling. A var so tests can force the sparse path on small groups.
var sparsePermGate = 1 << 22

// NewSliceGroup returns a materialized group over the given values.
// The values slice is retained; callers must not mutate it afterwards.
func NewSliceGroup(name string, values []float64) *SliceGroup {
	if len(values) == 0 {
		panic(fmt.Sprintf("dataset: group %q has no values", name))
	}
	g := &SliceGroup{name: name, maxv: values[0], drawCore: newDrawCore(values, nil, nil, nil)}
	sum := 0.0
	for _, v := range values {
		sum += v
		if v > g.maxv {
			g.maxv = v
		}
	}
	g.mean = sum / float64(len(values))
	return g
}

// Name returns the group's name.
func (g *SliceGroup) Name() string { return g.name }

// Size returns the number of values.
func (g *SliceGroup) Size() int64 { return int64(g.total) }

// TrueMean returns the exact mean of the values.
func (g *SliceGroup) TrueMean() float64 { return g.mean }

// MaxValue returns the largest value, tracked at construction so bound
// bookkeeping (table views, filters) never rescans the column.
func (g *SliceGroup) MaxValue() float64 { return g.maxv }

// Scan visits every value.
func (g *SliceGroup) Scan(fn func(v float64)) int64 {
	if g.win != nil {
		g.win.scan(fn)
	} else {
		for _, v := range g.values {
			fn(v)
		}
	}
	return int64(g.total)
}

// Values exposes the backing slice for storage engines that materialize the
// group into a table. Callers must not mutate the returned slice. Groups
// over compressed segments have no backing slice and return nil — use Scan
// instead.
func (g *SliceGroup) Values() []float64 { return g.values }

// BitmapGroup is the group over the rows a bitmap selects, read one row
// at a time by a caller's function: a population rank maps to its row by
// bitmap select, exactly as a FilteredGroup's does, and the row's value is
// whatever the reader returns. It draws through the staged pipeline like
// every table group, so a run's permutation is its Sampler's.
type BitmapGroup struct {
	name string
	mean func() float64
	drawCore
}

// NewBitmapGroup returns a group over the rows bits selects (bits must
// select at least one and must not change afterwards). fetch reads a
// row's value — it may charge a cost model, as NEEDLETAIL's does, but must
// be safe to call from concurrent runs — and mean computes the exact mean
// for TrueMean. The constructor builds bits' rank index, so draws only
// read the bitmap.
func NewBitmapGroup(name string, bits *bitmap.Bitmap, fetch func(row int) float64, mean func() float64) *BitmapGroup {
	bits.Index()
	if bits.Count() == 0 {
		panic(fmt.Sprintf("dataset: group %q selects no rows", name))
	}
	sel := &selection{count: bits.Count(), bits: bits}
	g := &BitmapGroup{name: name, mean: mean, drawCore: newDrawCore(nil, nil, sel, nil)}
	g.fetch = fetch
	return g
}

// Name returns the group's name.
func (g *BitmapGroup) Name() string { return g.name }

// Size returns the number of selected rows.
func (g *BitmapGroup) Size() int64 { return int64(g.total) }

// TrueMean returns the exact mean — for verification only.
func (g *BitmapGroup) TrueMean() float64 { return g.mean() }

// DistGroup is a virtual group: a distribution plus a nominal size.
// Draw samples from the distribution; because the nominal population is vast
// relative to the number of samples any algorithm takes, with- and
// without-replacement sampling are statistically indistinguishable, and the
// algorithms consume the nominal size only through the (tiny) Serfling
// correction term.
type DistGroup struct {
	name string
	dist xrand.Dist
	size int64
}

// NewDistGroup returns a virtual group of nominal size n backed by dist.
func NewDistGroup(name string, dist xrand.Dist, n int64) *DistGroup {
	if n <= 0 {
		panic(fmt.Sprintf("dataset: virtual group %q must have positive nominal size", name))
	}
	return &DistGroup{name: name, dist: dist, size: n}
}

// Name returns the group's name.
func (g *DistGroup) Name() string { return g.name }

// Size returns the nominal population size.
func (g *DistGroup) Size() int64 { return g.size }

// TrueMean returns the analytical mean of the backing distribution.
func (g *DistGroup) TrueMean() float64 { return g.dist.Mean() }

// Draw samples from the backing distribution.
func (g *DistGroup) Draw(r *xrand.RNG) float64 { return g.dist.Sample(r) }

// Dist returns the backing distribution.
func (g *DistGroup) Dist() xrand.Dist { return g.dist }

// Universe is an ordered collection of groups plus the value bound c.
// It is the input to every sampling algorithm.
type Universe struct {
	Groups []Group
	// C bounds every value: all elements lie in [0, C].
	C float64
}

// NewUniverse wraps groups with the given value bound.
func NewUniverse(c float64, groups ...Group) *Universe {
	if c <= 0 {
		panic("dataset: universe bound c must be positive")
	}
	return &Universe{Groups: groups, C: c}
}

// K returns the number of groups.
func (u *Universe) K() int { return len(u.Groups) }

// TotalSize returns the summed group sizes (0 if any is unknown).
func (u *Universe) TotalSize() int64 {
	var total int64
	for _, g := range u.Groups {
		n := g.Size()
		if n == 0 {
			return 0
		}
		total += n
	}
	return total
}

// MaxSize returns the largest group size.
func (u *Universe) MaxSize() int64 {
	var max int64
	for _, g := range u.Groups {
		if n := g.Size(); n > max {
			max = n
		}
	}
	return max
}

// TrueMeans returns the exact group means, for verification only.
func (u *Universe) TrueMeans() []float64 {
	means := make([]float64, len(u.Groups))
	for i, g := range u.Groups {
		means[i] = g.TrueMean()
	}
	return means
}

// Etas returns η_i = min_{j≠i} |µ_i − µ_j| for every group: the paper's
// per-group hardness measure (Table 2).
func Etas(means []float64) []float64 {
	etas := make([]float64, len(means))
	for i := range means {
		eta := math.Inf(1)
		for j := range means {
			if i == j {
				continue
			}
			if d := math.Abs(means[i] - means[j]); d < eta {
				eta = d
			}
		}
		etas[i] = eta
	}
	return etas
}

// MinEta returns η = min_i η_i, the global hardness of the instance.
func MinEta(means []float64) float64 {
	eta := math.Inf(1)
	for _, e := range Etas(means) {
		if e < eta {
			eta = e
		}
	}
	return eta
}
