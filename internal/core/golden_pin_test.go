package core

import (
	"fmt"
	"strings"
	"testing"

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
// and, via TestWorkerInvariance, every Workers/BatchSize combination with
// it. IREFINE now follows the same per-group stream discipline (its pin
// was re-captured when it migrated off the legacy shared stream); NOINDEX
// is genuinely stream-free — table-wide tuple draws consume one shared
// generator in draw order — and keeps its pre-driver scalar fingerprint.

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
// cumulative samples).
type traceRecorder struct {
	events []string
}

func (tr *traceRecorder) OnRound(m int, eps float64, _ []float64, active []bool, estimates []float64, total int64) {
	n := 0
	for _, a := range active {
		if a {
			n++
		}
	}
	tr.events = append(tr.events, fmt.Sprintf("%d:%.17g:%d:%d", m, eps, n, total))
}

func (tr *traceRecorder) String() string { return strings.Join(tr.events, ",") }

func pinCases() []pinCase {
	return []pinCase{
		{
			name: "ifocus",
			run: func(t *testing.T) string {
				res, err := IFocus(pinUniverse(), xrand.New(7), DefaultOptions())
				return fingerprint(res, err)
			},
			want: "rounds=1001 total=5699 capped=false eps=5.725406528135057 est=[14.885397685372219 27.445416999858228 39.530414297692133 50.986818222988305 62.779736901504556 74.937832440269403] counts=[876 936 1001 1001 964 921] settled=[876 936 1001 1001 964 921]",
		},
		{
			name: "ifocus-partials-trace",
			run: func(t *testing.T) string {
				opts := DefaultOptions()
				var pr partialRecorder
				var tr traceRecorder
				opts.OnPartial = pr.hook()
				opts.OnRound = tr.OnRound
				res, err := IFocus(pinUniverse(), xrand.New(7), opts)
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("total=%d partials=%s traceN=%d traceHead=%s traceTail=%s",
					res.TotalSamples, pr.String(), len(tr.events), tr.events[0], tr.events[len(tr.events)-1])
			},
			want: "total=5699 partials=0@876=14.885397685372219,5@921=74.937832440269403,1@936=27.445416999858228,4@964=62.779736901504556,2@1001=39.530414297692133,3@1001=50.986818222988305 traceN=1001 traceHead=1:172.89215172778574:6:6 traceTail=1001:5.725406528135057:0:5699",
		},
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
			name: "ifocus-resolution",
			run: func(t *testing.T) string {
				opts := DefaultOptions()
				opts.Resolution = 40
				res, err := IFocus(pinUniverse(), xrand.New(7), opts)
				return fingerprint(res, err)
			},
			want: "rounds=413 total=2478 capped=false eps=9.9972306425406643 est=[14.799720751587939 27.481211869128337 39.608109963201734 50.559023300237939 62.610758804542357 75.20992728762856] counts=[413 413 413 413 413 413] settled=[413 413 413 413 413 413]",
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
			name: "ifocus-exhaust",
			run: func(t *testing.T) string {
				ga := dataset.NewSliceGroup("a", []float64{48, 50, 52})
				gb := dataset.NewSliceGroup("b", []float64{49, 51, 53})
				u := dataset.NewUniverse(100, ga, gb)
				res, err := IFocus(u, xrand.New(5), DefaultOptions())
				return fingerprint(res, err)
			},
			want: "rounds=4 total=6 capped=false eps=0 est=[50 51] counts=[3 3] settled=[4 4]",
		},
		{
			name: "roundrobin",
			run: func(t *testing.T) string {
				var tr traceRecorder
				opts := DefaultOptions()
				opts.OnRound = tr.OnRound
				res, err := RoundRobin(pinUniverse(), xrand.New(7), opts)
				return fingerprint(res, err) + " traceTail=" + tr.events[len(tr.events)-1]
			},
			want: "rounds=1001 total=6006 capped=false eps=5.725406528135057 est=[14.821129536215993 27.386391668186199 39.530414297692133 50.986818222988305 62.837639019349716 74.946690944749719] counts=[1001 1001 1001 1001 1001 1001] settled=[1001 1001 1001 1001 1001 1001] traceTail=1001:5.725406528135057:6:6006",
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
			name: "irefine",
			run: func(t *testing.T) string {
				res, err := IRefine(pinUniverse(), xrand.New(7), DefaultOptions())
				return fingerprint(res, err)
			},
			// Re-pinned when IREFINE moved off the legacy shared RNG stream
			// onto the per-group stream discipline of the round driver (one
			// xrand.NewStream per group, keyed by seed and group index).
			want: "rounds=4 total=18000 capped=false eps=3.125 est=[15.129936920831994 27.151697486879321 39.034117342387084 51.082123523025523 63.056571800413053 75.26738981060241] counts=[3000 3000 3000 3000 3000 3000] settled=[4 4 4 4 4 4]",
		},
		{
			name: "trend",
			run: func(t *testing.T) string {
				var pr partialRecorder
				opts := DefaultOptions()
				opts.OnPartial = pr.hook()
				res, err := Trend(pinUniverse(), xrand.New(9), opts)
				return fingerprint(res, err) + " partials=" + pr.String()
			},
			want: "rounds=958 total=5627 capped=false eps=5.9112365565225016 est=[14.98882187147681 27.306033580766865 39.132405718614031 51.151750321062629 63.119581530719984 75.302182658046618] counts=[906 958 958 942 942 921] settled=[906 958 958 942 942 921] partials=0@906=14.98882187147681,5@921=75.302182658046618,3@942=51.151750321062629,4@942=63.119581530719984,1@958=27.306033580766865,2@958=39.132405718614031",
		},
		{
			name: "chloropleth-grid",
			run: func(t *testing.T) string {
				res, err := Chloropleth(pinUniverse(), xrand.New(13), GridAdjacency(2, 3), DefaultOptions())
				return fingerprint(res, err)
			},
			want: "rounds=958 total=5607 capped=false eps=5.9112365565225016 est=[14.984002034767625 27.427932275356579 39.399712065251315 50.980711637646031 62.803914042869067 75.028368150787557] counts=[889 943 943 958 958 916] settled=[889 943 943 958 958 916]",
		},
		{
			name: "topt",
			run: func(t *testing.T) string {
				res, err := TopT(pinUniverse(), xrand.New(17), 2, DefaultOptions())
				if err != nil {
					return "err:" + err.Error()
				}
				return fingerprint(&res.Result, nil) + fmt.Sprintf(" members=%v membership=%v", res.Members, res.Membership)
			},
			want: "rounds=955 total=3312 capped=false eps=5.9245838577267795 est=[14.642704383266405 27.920132987304026 39.137134493607029 50.955908795951935 62.808589247053384 75.435037961539962] counts=[77 149 309 955 955 867] settled=[77 149 309 955 955 867] members=[5 4] membership=[out out out out in in]",
		},
		{
			name: "values",
			run: func(t *testing.T) string {
				res, err := WithValues(pinUniverse(), xrand.New(19), 8, DefaultOptions())
				return fingerprint(res, err)
			},
			want: "rounds=1529 total=9174 capped=false eps=3.9982341134852404 est=[15.031381386865853 27.228184910751043 39.292486434210311 50.89334030539365 62.914903083518503 75.063433175433246] counts=[1529 1529 1529 1529 1529 1529] settled=[1529 1529 1529 1529 1529 1529]",
		},
		{
			name: "mistakes",
			run: func(t *testing.T) string {
				res, err := WithMistakes(pinUniverse(), xrand.New(23), 0.8, DefaultOptions())
				return fingerprint(res, err)
			},
			want: "rounds=926 total=5556 capped=false eps=6.0563531980809024 est=[15.255658839387243 27.285092890904025 38.788664180034843 50.977217026443306 63.017577074023002 75.145692751150122] counts=[926 926 926 926 926 926] settled=[926 926 926 926 926 926]",
		},
		{
			name: "sum-known",
			run: func(t *testing.T) string {
				var pr partialRecorder
				opts := DefaultOptions()
				opts.OnPartial = pr.hook()
				res, err := SumKnownSizes(pinSumUniverse(), xrand.New(29), opts)
				return fingerprint(res, err) + " partials=" + pr.String()
			},
			want: "rounds=3091 total=8444 capped=false eps=1.9148810983631754 est=[19901.841418532815 87614.455006064483 24994.308114855405 79952.937308221633 52686.720643273205] counts=[1000 2500 500 3091 1353] settled=[1001 2501 501 3091 1353] partials=2@501=24994.308114855405,0@1001=19901.841418532815,4@1353=52686.720643273205,1@2501=87614.455006064483,3@3091=79952.937308221633",
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
			name: "count-unknown",
			run: func(t *testing.T) string {
				u := pinSumUniverse()
				est := dataset.NewMembershipFractionEstimator(u)
				res, err := CountUnknownSizes(u, est, xrand.New(37), DefaultOptions())
				return fingerprint(res, err)
			},
			want: "rounds=8146 total=26015 capped=false eps=0.025011218108140987 est=[0.10299533513380775 0.25935653315824048 0.052909403388165917 0.4242878560719644 0.15544935616620151] counts=[8146 1523 8146 667 7533] settled=[8146 1523 8146 667 7533]",
		},
		{
			name: "multiagg",
			run: func(t *testing.T) string {
				res, err := MultiAgg(pinPairUniverse(), xrand.New(41), DefaultOptions())
				if err != nil {
					return "err:" + err.Error()
				}
				var b strings.Builder
				fmt.Fprintf(&b, "roundsY=%d roundsZ=%d total=%d capped=%v estY=[", res.RoundsY, res.RoundsZ, res.TotalSamples, res.Capped)
				for i, e := range res.EstimatesY {
					if i > 0 {
						b.WriteByte(' ')
					}
					fmt.Fprintf(&b, "%.17g", e)
				}
				b.WriteString("] estZ=[")
				for i, e := range res.EstimatesZ {
					if i > 0 {
						b.WriteByte(' ')
					}
					fmt.Fprintf(&b, "%.17g", e)
				}
				fmt.Fprintf(&b, "] counts=%v", res.SampleCounts)
				return b.String()
			},
			want: "roundsY=471 roundsZ=118 total=2259 capped=false estY=[19.86358231128737 38.038985011134983 56.206855817817441 74.167903108316338] estZ=[80.048653525178977 64.386516614535807 48.076473959955614 31.877746595555159] counts=[574 583 551 551]",
		},
		{
			name: "noindex",
			run: func(t *testing.T) string {
				u := pinUniverse()
				res, err := NoIndex(NewUniverseTupleSource(u), xrand.New(43), DefaultOptions(), 0)
				if err != nil {
					return "err:" + err.Error()
				}
				var b strings.Builder
				fmt.Fprintf(&b, "total=%d capped=%v est=[", res.TotalSamples, res.Capped)
				for i, e := range res.Estimates {
					if i > 0 {
						b.WriteByte(' ')
					}
					fmt.Fprintf(&b, "%.17g", e)
				}
				fmt.Fprintf(&b, "] counts=%v", res.SampleCounts)
				return b.String()
			},
			want: "total=8784 capped=false est=[15.226188793960741 27.356738497696643 39.128505993232928 51.041483428061589 62.72631276879104 75.083287962212381] counts=[1475 1441 1430 1471 1516 1451]",
		},
		{
			name: "noindex-cap",
			run: func(t *testing.T) string {
				u := pinUniverse()
				res, err := NoIndex(NewUniverseTupleSource(u), xrand.New(43), DefaultOptions(), 100)
				if err != nil {
					return "err:" + err.Error()
				}
				return fmt.Sprintf("total=%d capped=%v counts=%v", res.TotalSamples, res.Capped, res.SampleCounts)
			},
			want: "total=100 capped=true counts=[22 11 17 17 21 12]",
		},
	}
}

// TestGoldenPins locks the exact scalar behavior of every algorithm.
func TestGoldenPins(t *testing.T) {
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
