package main

import (
	"fmt"
	"math"
	"strconv"

	rapidviz "repro"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Data: the paper's §5.2 mixture family (truncated normals with variances
// U[1,10], equally weighted, c = workload.DomainBound; 2–5 per group here,
// not 1–5), with one change that the driver's protocol forces. Runs are compared across seeds, and a
// mixture universe's sample complexity swings several-fold with where its
// random means happen to fall (cost ∝ 1/η², η the smallest gap). So the
// group means and variance are constants of each workload — a fixed
// difficulty profile mixing gaps below the resolution r (settled by the
// r/4 exit) with clearly separated ones, in ascending order along the
// group axis so that trend queries (adjacent groups) meet the same gaps —
// and the seed draws everything else: every mixture's shape, every value,
// the filter columns.

// meanProfile returns k target means in [22, 78]: gaps cycle through
// sub-resolution (0.5, 1.0) and separated (4–12, scaled to fit) steps.
func meanProfile(k int) []float64 {
	pattern := []float64{0.5, 9, 6, 12, 1.0, 8, 5, 10, 7}
	small, large := 0.0, 0.0
	for i := 0; i < k-1; i++ {
		if g := pattern[i%len(pattern)]; g < 2 {
			small += g
		} else {
			large += g
		}
	}
	scale := 1.0
	if large > 0 {
		scale = (56 - small) / large
	}
	means := make([]float64, k)
	means[0] = 22
	for i := 1; i < k; i++ {
		g := pattern[(i-1)%len(pattern)]
		if g >= 2 {
			g *= scale
		}
		means[i] = means[i-1] + g
	}
	return means
}

// groupVariance is every group's variance. Like the means it is pinned,
// because the variance-adaptive bounds' cost is proportional to it.
const groupVariance = 30.0

// groupDists draws one mixture per group: 2–5 components whose means are
// the group's target plus zero-sum offsets, scaled so that the component
// variances (U[1,10], as in the paper) plus the spread of the offsets add
// up to groupVariance. Components stay within about ±11 of a target in
// [22, 78], so truncation at 0 and c barely moves the mean.
func groupDists(rng *xrand.RNG, k int) []xrand.Dist {
	targets := meanProfile(k)
	dists := make([]xrand.Dist, k)
	for i := range dists {
		n := 2 + rng.Intn(4)
		offs := make([]float64, n)
		vars := make([]float64, n)
		offMean, varMean := 0.0, 0.0
		for j := range offs {
			offs[j] = 2*rng.Float64() - 1
			vars[j] = 1 + 9*rng.Float64()
			offMean += offs[j] / float64(n)
			varMean += vars[j] / float64(n)
		}
		spread := 0.0
		for j := range offs {
			offs[j] -= offMean
			spread += offs[j] * offs[j] / float64(n)
		}
		scale := math.Sqrt((groupVariance - varMean) / spread)
		comps := make([]xrand.Dist, n)
		weights := make([]float64, n)
		for j := range comps {
			comps[j] = xrand.TruncNormal{Mu: targets[i] + scale*offs[j], Sigma: math.Sqrt(vars[j]), Lo: 0, Hi: workload.DomainBound}
			weights[j] = 1
		}
		dists[i] = xrand.NewMixture(comps, weights)
	}
	return dists
}

// columns holds one generated table column-wise, group-contiguous: the
// benchmark's own copy of the data, which the oracle scans independently
// of the system under test.
type columns struct {
	names   []string
	offsets []int // group g spans rows [offsets[g], offsets[g+1])
	value   []float64
	x       []float64 // uniform integer in [0,1000), unclustered
	t       []float64 // row ordinal within group, clustered
}

func (c *columns) rows() int { return len(c.value) }
func (c *columns) k() int    { return len(c.names) }

// genColumns generates rows total rows over k equal groups. Values are
// rounded to 0.01 so the frame-of-reference codec applies.
func genColumns(seed uint64, k, rows int) *columns {
	rng := xrand.New(seed)
	dists := groupDists(rng, k)
	per := rows / k
	c := &columns{
		names:   make([]string, k),
		offsets: make([]int, k+1),
		value:   make([]float64, 0, per*k),
		x:       make([]float64, 0, per*k),
		t:       make([]float64, 0, per*k),
	}
	for g := 0; g < k; g++ {
		c.names[g] = fmt.Sprintf("g%02d", g)
		c.offsets[g] = len(c.value)
		for j := 0; j < per; j++ {
			c.value = append(c.value, math.Round(dists[g].Sample(rng)*100)/100)
			c.x = append(c.x, float64(rng.Intn(1000)))
			c.t = append(c.t, float64(j))
		}
	}
	c.offsets[k] = len(c.value)
	return c
}

// buildTable ingests the columns through the public row builder.
func (c *columns) buildTable() (*rapidviz.Table, error) {
	b := rapidviz.NewTableBuilderColumns("value", "x", "t")
	for g, name := range c.names {
		for i := c.offsets[g]; i < c.offsets[g+1]; i++ {
			if err := b.AddRow(name, c.value[i], c.x[i], c.t[i]); err != nil {
				return nil, err
			}
		}
	}
	return b.Build()
}

// csv renders the columns as the group,value,x,t file ingest_write parses.
func (c *columns) csv() []byte {
	buf := make([]byte, 0, 32*c.rows())
	buf = append(buf, "group,value,x,t\n"...)
	for g, name := range c.names {
		for i := c.offsets[g]; i < c.offsets[g+1]; i++ {
			buf = append(buf, name...)
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, c.value[i], 'f', 2, 64)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(c.x[i]), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(c.t[i]), 10)
			buf = append(buf, '\n')
		}
	}
	return buf
}

// truth is the exact answer to one filter: the surviving groups in table
// order with their true means, computed by the benchmark's own scan.
type truth struct {
	names []string
	means []float64
	// blockSel[g][b] counts group g's selected rows in global block b of
	// blockRows rows (what a compressed segment would have to decode).
	blockSel []map[int]int
}

const blockRows = 1 << 16 // dataset.DefaultBlockLen

func matches(p rapidviz.Predicate, v float64) bool {
	switch p.Op {
	case rapidviz.OpLT:
		return v < p.Value
	case rapidviz.OpLE:
		return v <= p.Value
	case rapidviz.OpGT:
		return v > p.Value
	case rapidviz.OpGE:
		return v >= p.Value
	case rapidviz.OpEQ:
		return v == p.Value
	default:
		return v != p.Value
	}
}

// scan answers a conjunction of column comparisons exactly. Groups the
// filter empties are dropped, as the engine drops them.
func (c *columns) scan(preds []rapidviz.Predicate) (*truth, error) {
	cols := make([][]float64, len(preds))
	for i, p := range preds {
		switch p.Column {
		case "", "value":
			cols[i] = c.value
		case "x":
			cols[i] = c.x
		case "t":
			cols[i] = c.t
		default:
			return nil, fmt.Errorf("oracle: unknown column %q", p.Column)
		}
	}
	tr := &truth{}
	for g, name := range c.names {
		total, n := 0.0, 0
		sel := map[int]int{}
	rows:
		for i := c.offsets[g]; i < c.offsets[g+1]; i++ {
			for j, p := range preds {
				if !matches(p, cols[j][i]) {
					continue rows
				}
			}
			total += c.value[i]
			n++
			sel[i/blockRows]++
		}
		if n > 0 {
			tr.names = append(tr.names, name)
			tr.means = append(tr.means, total/float64(n))
			tr.blockSel = append(tr.blockSel, sel)
		}
	}
	return tr, nil
}

// oracle memoises scans by predicate list.
type oracle struct {
	cols  *columns
	cache map[string]*truth
}

func newOracle(c *columns) *oracle { return &oracle{cols: c, cache: map[string]*truth{}} }

func (o *oracle) truth(preds []rapidviz.Predicate) (*truth, error) {
	key := fmt.Sprint(preds)
	if t, ok := o.cache[key]; ok {
		return t, nil
	}
	t, err := o.cols.scan(preds)
	if err != nil {
		return nil, err
	}
	o.cache[key] = t
	return t, nil
}

// check reports why res does not carry q's guarantee, or nil. An answer is
// wrong when it was capped, names other groups than the filter leaves, or
// orders a certified pair against the truth by more than the resolution.
func (o *oracle) check(q rapidviz.Query, res *rapidviz.Result) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if res.Capped {
		return fmt.Errorf("capped: the guarantee is void")
	}
	tr, err := o.truth(q.Where)
	if err != nil {
		return err
	}
	if len(res.Names) != len(tr.names) || len(res.Estimates) != len(tr.names) {
		return fmt.Errorf("result has %d groups, truth %d", len(res.Names), len(tr.names))
	}
	for i, n := range tr.names {
		if res.Names[i] != n {
			return fmt.Errorf("group %d is %q, truth %q", i, res.Names[i], n)
		}
	}
	r := q.Resolution
	// misordered: the estimates rank a above b while the truth ranks b
	// above a by more than r.
	misordered := func(a, b int) bool {
		return res.Estimates[a] >= res.Estimates[b] && tr.means[b]-tr.means[a] > r
	}
	pair := func(a, b int) error {
		if misordered(a, b) || misordered(b, a) {
			return fmt.Errorf("groups %s and %s ordered against the truth (est %.3f %.3f, true %.3f %.3f)",
				tr.names[a], tr.names[b], res.Estimates[a], res.Estimates[b], tr.means[a], tr.means[b])
		}
		return nil
	}
	k := len(tr.names)
	switch q.Guarantee {
	case rapidviz.GuaranteeOrder:
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				if err := pair(a, b); err != nil {
					return err
				}
			}
		}
	case rapidviz.GuaranteeTrend:
		for a := 0; a+1 < k; a++ {
			if err := pair(a, a+1); err != nil {
				return err
			}
		}
	case rapidviz.GuaranteeTopT:
		if len(res.Top) != q.T {
			return fmt.Errorf("top-%d answer lists %d groups", q.T, len(res.Top))
		}
		index := map[string]int{}
		for i, n := range tr.names {
			index[n] = i
		}
		in := map[int]bool{}
		top := make([]int, len(res.Top))
		for i, n := range res.Top {
			top[i] = index[n]
			in[top[i]] = true
		}
		for i, a := range top {
			if i+1 < len(top) && tr.means[top[i+1]]-tr.means[a] > r {
				return fmt.Errorf("top list out of order at %s", tr.names[a])
			}
			for b := 0; b < k; b++ {
				if !in[b] && tr.means[b]-tr.means[a] > r {
					return fmt.Errorf("%s is in the top %d but %s is larger by more than r", tr.names[a], q.T, tr.names[b])
				}
			}
		}
	default:
		return fmt.Errorf("oracle: no check for guarantee %v", q.Guarantee)
	}
	return nil
}
