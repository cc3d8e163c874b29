package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/conc"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// These tests pin the exact numeric behavior of every round-based algorithm
// on fixed seeds: estimates, sample counts, rounds, partial-result events,
// and trace sequences. The fingerprints below were captured under the
// per-group RNG stream discipline of the parallel round driver (each group
// draws from its own xrand.NewStream keyed by the run seed and the group
// index) at BatchSize ≤ 1 and Workers ≤ 1, so any further refactor of the
// round loop must keep the scalar sequential path bit-for-bit stable —
// and, via the conformance matrix (conformance_test.go), every backing,
// filter, Workers and BatchSize combination with it. Most pins are the
// matrix's reference cells (referenceGoldens); pinCases holds the runs no
// cell expresses. IREFINE follows the same per-group stream discipline (its
// pin was re-captured when it migrated off the legacy shared stream), and
// NOINDEX's one table-wide draw unit draws on the stream of group 0.

// pinUniverse builds a deterministic 6-group slice universe with means
// roughly 12 apart (uniform ±10 noise), values in [0, 100].
func pinUniverse() *dataset.Universe {
	r := xrand.New(0xfeed)
	groups := make([]dataset.Group, 6)
	for g := range groups {
		mean := 15 + 12*float64(g)
		values := make([]float64, 3000)
		for i := range values {
			values[i] = mean + (r.Float64()-0.5)*20
		}
		groups[g] = dataset.NewSliceGroup(fmt.Sprintf("g%d", g), values)
	}
	return dataset.NewUniverse(100, groups...)
}

// pinSumUniverse has deliberately unequal group sizes so the SUM ordering
// differs from the AVG ordering.
func pinSumUniverse() *dataset.Universe {
	r := xrand.New(0xbeef)
	sizes := []int{1000, 2500, 500, 4000, 1500}
	groups := make([]dataset.Group, len(sizes))
	for g, n := range sizes {
		mean := 20 + 15*float64(g%3)
		values := make([]float64, n)
		for i := range values {
			values[i] = mean + (r.Float64()-0.5)*16
		}
		groups[g] = dataset.NewSliceGroup(fmt.Sprintf("s%d", g), values)
	}
	return dataset.NewUniverse(100, groups...)
}

// pinPairUniverse carries a second aggregate attribute per tuple.
func pinPairUniverse() *dataset.Universe {
	r := xrand.New(0xabcd)
	groups := make([]dataset.Group, 4)
	for g := range groups {
		ys := make([]float64, 2000)
		zs := make([]float64, 2000)
		for i := range ys {
			ys[i] = 20 + 18*float64(g) + (r.Float64()-0.5)*14
			zs[i] = 80 - 16*float64(g) + (r.Float64()-0.5)*14
		}
		groups[g] = dataset.NewSlicePairGroup(fmt.Sprintf("p%d", g), ys, zs)
	}
	return dataset.NewUniverse(100, groups...)
}

// fingerprint renders a result compactly but at full float precision.
func fingerprint(res *Result, err error) string {
	if err != nil {
		return "err:" + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d total=%d capped=%v eps=%.17g est=[", res.Rounds, res.TotalSamples, res.Capped, res.FinalEpsilon)
	for i, e := range res.Estimates {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.17g", e)
	}
	b.WriteString("] counts=")
	fmt.Fprintf(&b, "%v settled=%v", res.SampleCounts, res.SettledRound)
	return b.String()
}

// pinCase runs one algorithm configuration and compares its fingerprint.
type pinCase struct {
	name string
	run  func(t *testing.T) string
	want string
}

// partialRecorder captures the OnPartial event sequence.
type partialRecorder struct {
	events []string
}

func (p *partialRecorder) hook() func(int, float64, int, float64) {
	return func(group int, estimate float64, round int, eps float64) {
		p.events = append(p.events, fmt.Sprintf("%d@%d=%.17g", group, round, estimate))
	}
}

func (p *partialRecorder) String() string { return strings.Join(p.events, ",") }

// traceRecorder fingerprints the OnRound stream (round, eps, active count,
// cumulative samples) by its length and its first and last events.
type traceRecorder struct {
	n          int
	head, tail traceEvent
}

type traceEvent struct {
	m      int
	eps    float64
	active int
	total  int64
}

func (e traceEvent) String() string {
	return fmt.Sprintf("%d:%.17g:%d:%d", e.m, e.eps, e.active, e.total)
}

func (tr *traceRecorder) OnRound(m int, eps float64, _ []float64, active []bool, estimates []float64, total int64) {
	ev := traceEvent{m: m, eps: eps, total: total}
	for _, a := range active {
		if a {
			ev.active++
		}
	}
	if tr.n == 0 {
		tr.head = ev
	}
	tr.tail = ev
	tr.n++
}

func (tr *traceRecorder) String() string { return fmt.Sprintf("%d:%v..%v", tr.n, tr.head, tr.tail) }

func pinCases() []pinCase {
	return []pinCase{
		{
			name: "ifocus-with-replacement",
			run: func(t *testing.T) string {
				opts := DefaultOptions()
				opts.WithReplacement = true
				res, err := IFocus(pinUniverse(), xrand.New(11), opts)
				return fingerprint(res, err)
			},
			want: "rounds=1429 total=8196 capped=false eps=5.8987258704429335 est=[14.796751551446437 27.298467758608815 39.103423449899381 51.054404262846155 63.145829834323749 75.334296051574043] counts=[1262 1429 1429 1388 1354 1334] settled=[1262 1429 1429 1388 1354 1334]",
		},
		{
			name: "ifocus-cap",
			run: func(t *testing.T) string {
				vals := []float64{40, 60}
				ga := dataset.NewSliceGroup("a", vals)
				gb := dataset.NewSliceGroup("b", vals)
				u := dataset.NewUniverse(100, ga, gb)
				opts := DefaultOptions()
				opts.WithReplacement = true
				opts.MaxRounds = 50
				res, err := IFocus(u, xrand.New(3), opts)
				return fingerprint(res, err)
			},
			want: "rounds=50 total=100 capped=true eps=27.58230629030415 est=[49.999999999999986 50.400000000000006] counts=[50 50] settled=[50 50]",
		},
		{
			name: "roundrobin-cap",
			run: func(t *testing.T) string {
				vals := []float64{40, 60}
				u := dataset.NewUniverse(100,
					dataset.NewSliceGroup("a", vals), dataset.NewSliceGroup("b", vals))
				opts := DefaultOptions()
				opts.WithReplacement = true
				opts.MaxRounds = 40
				res, err := RoundRobin(u, xrand.New(3), opts)
				return fingerprint(res, err)
			},
			want: "rounds=40 total=80 capped=true eps=30.598963256683838 est=[50.500000000000007 50.500000000000021] counts=[40 40] settled=[40 40]",
		},
		{
			name: "sum-unknown",
			run: func(t *testing.T) string {
				u := pinSumUniverse()
				est := dataset.NewMembershipFractionEstimator(u)
				res, err := SumUnknownSizes(u, est, xrand.New(31), DefaultOptions())
				return fingerprint(res, err)
			},
			want: "rounds=822242 total=2389578 capped=false eps=0.25885559409995451 est=[2.1130310308966389 9.2074647746106173 2.6307867786280554 8.4295214774856184 5.5348622144668633] counts=[822242 360022 822242 360022 25050] settled=[822242 360022 822242 360022 25050]",
		},
		{
			name: "multiagg",
			run: func(t *testing.T) string {
				res, err := MultiAgg(pinPairUniverse(), xrand.New(41), DefaultOptions())
				if err != nil {
					return "err:" + err.Error()
				}
				var b strings.Builder
				fmt.Fprintf(&b, "rounds=%d total=%d capped=%v estY=[", res.Rounds, res.TotalSamples, res.Capped)
				for i, e := range res.Estimates {
					if i > 0 {
						b.WriteByte(' ')
					}
					fmt.Fprintf(&b, "%.17g", e)
				}
				b.WriteString("] estZ=[")
				for i, e := range res.SecondEstimates {
					if i > 0 {
						b.WriteByte(' ')
					}
					fmt.Fprintf(&b, "%.17g", e)
				}
				fmt.Fprintf(&b, "] counts=%v", res.SampleCounts)
				return b.String()
			},
			// Re-pinned when MultiAgg moved onto the round driver. Pair
			// draws are with replacement, so the radii drop the
			// without-replacement (Serfling) correction the old loop
			// applied to them; with it, the driver run reproduces the old
			// pin exactly. Rounds is the driver's count across both stages.
			want: "rounds=808 total=3143 capped=false estY=[19.956760383838002 38.073445846159963 56.063839000812429 74.09451498031099] estZ=[80.126799122370727 64.214051760094506 48.03703911311483 31.92674526167642] counts=[794 799 778 772]",
		},
		{
			name: "noindex-cap",
			run: func(t *testing.T) string {
				opts := DefaultOptions()
				opts.MaxDraws = 100
				res, err := NoIndex(pinUniverse(), xrand.New(43), opts)
				if err != nil {
					return "err:" + err.Error()
				}
				return fmt.Sprintf("total=%d capped=%v counts=%v", res.TotalSamples, res.Capped, res.SampleCounts)
			},
			// Re-pinned with the noindex golden, for the same cause.
			want: "total=100 capped=true counts=[14 10 20 18 18 20]",
		},
	}
}

// TestGoldenPins locks the exact scalar behavior of every algorithm: the
// Hoeffding reference cells of the conformance matrix, and the runs no
// cell expresses (with-replacement sampling, round and draw caps, pair
// aggregates, normalized sums run to completion).
func TestGoldenPins(t *testing.T) {
	checkReferenceGoldens(t, func(b conc.Kind) bool { return b == conc.KindHoeffding })
	for _, tc := range pinCases() {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			if tc.want == "" {
				t.Logf("GOLDEN %s: %s", tc.name, got)
				t.Skip("golden not recorded yet")
			}
			if got != tc.want {
				t.Errorf("fingerprint drifted\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}
