package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/conc"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// These tests pin and verify the variance-adaptive bound path: per-group
// empirical-Bernstein radii maintained from incremental sampler moments,
// with every settle decision routed through the general unequal-width
// interval sweep. The fingerprints play the same role golden_pin_test.go's
// do for the default schedule — any refactor of the unequal-width path
// must keep them stable — and the worker/batching tests prove that the
// determinism invariants of the round driver transfer to unequal-width
// settling unchanged.

// lowVarUniverse has tightly concentrated groups (spread ±2 around means 8
// apart) in a [0, 100] domain: exactly the shape where the Hoeffding bound
// wastes samples charging the full domain width and a variance-adaptive
// bound cashes in.
func lowVarUniverse(rows int) *dataset.Universe {
	r := xrand.New(0x10f)
	groups := make([]dataset.Group, 6)
	for g := range groups {
		mean := 20 + 8*float64(g)
		values := make([]float64, rows)
		for i := range values {
			values[i] = mean + (r.Float64()-0.5)*4
		}
		groups[g] = dataset.NewSliceGroup(fmt.Sprintf("lv%d", g), values)
	}
	return dataset.NewUniverse(100, groups...)
}

func bernsteinOpts(kind conc.Kind, batch, workers int) Options {
	opts := DefaultOptions()
	opts.Bound = kind
	opts.BatchSize = batch
	opts.Workers = workers
	return opts
}

// TestBernsteinGoldenPins locks the exact behavior of the unequal-width
// settle path per batch size: BatchSize 1 and 64 get independent pins
// (unequal-width settling makes no scalar/batched bit-equivalence claim —
// radii are recomputed per block boundary), and each must stay stable.
func TestBernsteinGoldenPins(t *testing.T) {
	cases := []pinCase{
		{
			name: "ifocus-bernstein-batch1",
			run: func(t *testing.T) string {
				res, err := IFocus(lowVarUniverse(60_000), xrand.New(7), bernsteinOpts(conc.KindBernstein, 1, 1))
				return fingerprint(res, err)
			},
			want: "rounds=875 total=5188 capped=false eps=3.925519294597656 est=[19.996789099130488 27.951452390580304 35.969370166949275 43.986954708956489 52.042588790625238 59.901700977045785] counts=[864 864 855 855 875 875] settled=[864 864 855 855 875 875]",
		},
		{
			name: "ifocus-bernstein-batch64",
			run: func(t *testing.T) string {
				res, err := IFocus(lowVarUniverse(60_000), xrand.New(7), bernsteinOpts(conc.KindBernstein, 64, 1))
				return fingerprint(res, err)
			},
			want: "rounds=14 total=5376 capped=false eps=3.8388187090191006 est=[19.988997721304425 27.945598728773145 35.975725109686522 43.986551271542623 52.037011340864169 59.909063396681923] counts=[896 896 896 896 896 896] settled=[14 14 14 14 14 14]",
		},
		{
			name: "ifocus-bernstein-finite-batch64",
			run: func(t *testing.T) string {
				res, err := IFocus(lowVarUniverse(60_000), xrand.New(7), bernsteinOpts(conc.KindBernsteinFinite, 64, 1))
				return fingerprint(res, err)
			},
			want: "rounds=14 total=5376 capped=false eps=3.8374273472006628 est=[19.988997721304425 27.945598728773145 35.975725109686522 43.986551271542623 52.037011340864169 59.909063396681923] counts=[896 896 896 896 896 896] settled=[14 14 14 14 14 14]",
		},
		{
			name: "sum-bernstein-batch16",
			run: func(t *testing.T) string {
				var pr partialRecorder
				opts := bernsteinOpts(conc.KindBernstein, 16, 1)
				opts.OnPartial = pr.hook()
				res, err := SumKnownSizes(pinSumUniverse(), xrand.New(29), opts)
				return fingerprint(res, err) + " partials=" + pr.String()
			},
			want: "rounds=157 total=7064 capped=false eps=1.7431065337863452 est=[19807.576035652783 87614.455006064614 24994.308114855347 79578.206418675894 52375.915936375699] counts=[752 2500 500 2512 800] settled=[47 157 33 157 50] partials=2@33=24994.308114855347,0@47=19807.576035652783,4@50=52375.915936375699,1@157=87614.455006064614,3@157=79578.206418675894",
		},
		{
			name: "roundrobin-bernstein-batch8",
			run: func(t *testing.T) string {
				res, err := RoundRobin(pinUniverse(), xrand.New(7), bernsteinOpts(conc.KindBernstein, 8, 1))
				return fingerprint(res, err)
			},
			want: "rounds=87 total=4176 capped=false eps=5.7175819506408345 est=[14.890555488494655 27.485787547346717 39.542921769477445 50.967842650666014 62.773948904941427 74.934008486201989] counts=[696 696 696 696 696 696] settled=[87 87 87 87 87 87]",
		},
	}
	checkReferenceGoldens(t, func(b conc.Kind) bool { return b != conc.KindHoeffding })
	for _, tc := range cases {
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

// TestBoundWorkerInvariance: Workers 1 == 8 bit-for-bit for every
// round-driver algorithm under both variance-adaptive bounds, scalar and
// block rounds alike — the per-group stream and post-barrier settle
// disciplines carry over to unequal-width settling.
func TestBoundWorkerInvariance(t *testing.T) {
	for _, kind := range []conc.Kind{conc.KindBernstein, conc.KindBernsteinFinite} {
		for _, ar := range batchRunners() {
			for _, batch := range []int{1, 64} {
				t.Run(fmt.Sprintf("%s/%s/batch=%d", kind, ar.name, batch), func(t *testing.T) {
					build := pinUniverse
					if ar.name == "sum-known" || ar.name == "sum-unknown" {
						build = pinSumUniverse
					}
					run := func(workers int) string {
						opts := bernsteinOpts(kind, batch, workers)
						var pr partialRecorder
						opts.OnPartial = pr.hook()
						res, err := ar.run(build(), xrand.New(2027), opts)
						if err != nil {
							t.Fatal(err)
						}
						return fingerprint(res, nil) + " partials=" + pr.String()
					}
					want := run(1)
					if got := run(8); got != want {
						t.Fatalf("workers=8 diverged from workers=1:\n got: %s\nwant: %s", got, want)
					}
				})
			}
		}
	}
}

// TestBernsteinFewerSamples is the headline property: on a low-variance
// workload the empirical-Bernstein bound terminates with a small fraction
// of the Hoeffding schedule's samples (the acceptance bar is 2x; typical
// savings are far larger).
func TestBernsteinFewerSamples(t *testing.T) {
	u := lowVarUniverse(200_000)
	opts := DefaultOptions()
	opts.BatchSize = 16
	hoeff, err := IFocus(u, xrand.New(3), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Bound = conc.KindBernstein
	bern, err := IFocus(lowVarUniverse(200_000), xrand.New(3), opts)
	if err != nil {
		t.Fatal(err)
	}
	if bern.TotalSamples*2 > hoeff.TotalSamples {
		t.Fatalf("bernstein used %d samples vs hoeffding %d; want at least 2x fewer",
			bern.TotalSamples, hoeff.TotalSamples)
	}
}

// TestBernsteinOrderingCorrect: the variance-adaptive path still delivers
// correctly ordered estimates across algorithms and guarantees.
func TestBernsteinOrderingCorrect(t *testing.T) {
	for _, ar := range batchRunners() {
		if ar.name == "mistakes" || ar.name == "topt" {
			continue // quota/membership exits order only a subset by design
		}
		t.Run(ar.name, func(t *testing.T) {
			build := pinUniverse
			if ar.name == "sum-known" || ar.name == "sum-unknown" {
				build = pinSumUniverse
			}
			u := build()
			res, err := ar.run(u, xrand.New(11), bernsteinOpts(conc.KindBernstein, 4, 1))
			if err != nil {
				t.Fatal(err)
			}
			var truth []float64
			switch ar.name {
			case "sum-known":
				for _, g := range u.Groups {
					truth = append(truth, float64(g.Size())*g.TrueMean())
				}
			case "sum-unknown":
				total := float64(u.TotalSize())
				for _, g := range u.Groups {
					truth = append(truth, float64(g.Size())/total*g.TrueMean())
				}
			default:
				truth = u.TrueMeans()
			}
			if n := IncorrectPairs(res.Estimates, truth, 0); n != 0 {
				t.Fatalf("%d pairs misordered: est=%v truth=%v", n, res.Estimates, truth)
			}
		})
	}
}

// TestBernsteinPartialWidths: settle events under per-group radii report
// each group's own frozen half-width, and those widths certify the final
// estimates (|est − µ| ≤ width on this seeded run).
func TestBernsteinPartialWidths(t *testing.T) {
	u := lowVarUniverse(60_000)
	widths := make([]float64, u.K())
	opts := bernsteinOpts(conc.KindBernstein, 16, 1)
	opts.OnPartial = func(g int, est float64, round int, eps float64) {
		widths[g] = eps
	}
	res, err := IFocus(u, xrand.New(5), opts)
	if err != nil {
		t.Fatal(err)
	}
	truth := u.TrueMeans()
	distinct := false
	for i := range widths {
		if widths[i] <= 0 {
			t.Fatalf("group %d settled with non-positive width %v", i, widths[i])
		}
		if math.Abs(res.Estimates[i]-truth[i]) > widths[i] {
			t.Fatalf("group %d: |%v - %v| exceeds reported width %v",
				i, res.Estimates[i], truth[i], widths[i])
		}
		if widths[i] != widths[0] {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("all frozen widths equal; expected per-group radii to differ")
	}
}

// TestGroupTracerWidths: under a variance-adaptive bound, OnRound sees
// per-group widths that are non-negative and consistent with the scalar
// eps (the max over live radii).
func TestGroupTracerWidths(t *testing.T) {
	u := lowVarUniverse(60_000)
	rounds := 0
	opts := bernsteinOpts(conc.KindBernstein, 16, 1)
	opts.OnRound = func(m int, eps float64, epsByGroup []float64, active []bool, est []float64, total int64) {
		rounds++
		if len(epsByGroup) != u.K() {
			t.Fatalf("round %d: %d widths for %d groups", m, len(epsByGroup), u.K())
		}
		maxLive := 0.0
		for i, w := range epsByGroup {
			if active[i] && w > maxLive {
				maxLive = w
			}
			if w < 0 {
				t.Fatalf("round %d: negative width %v", m, w)
			}
		}
		// The scalar eps is the widest radius computed at this round's
		// radius update; groups settling during decide can only lower the
		// live maximum afterwards.
		if maxLive > eps {
			t.Fatalf("round %d: live width %v above scalar eps %v", m, maxLive, eps)
		}
	}
	if _, err := IFocus(u, xrand.New(5), opts); err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Fatal("OnRound never fired")
	}
}

// TestOnRoundGroupWidths: every algorithm that reports rounds hands
// OnRound one width per group under the default Hoeffding schedule too.
// Every algorithm reports a settled group at the width it froze at. An
// active one is at eps, except under NOINDEX, whose groups take the radius
// at their own counts, eps being the widest of the round's.
func TestOnRoundGroupWidths(t *testing.T) {
	runs := []struct {
		name string
		run  func(opts Options) error
	}{
		{"ifocus", func(opts Options) error { _, err := IFocus(pinUniverse(), xrand.New(7), opts); return err }},
		{"roundrobin", func(opts Options) error { _, err := RoundRobin(pinUniverse(), xrand.New(7), opts); return err }},
		{"trend", func(opts Options) error { _, err := Trend(pinUniverse(), xrand.New(7), opts); return err }},
		{"irefine", func(opts Options) error { _, err := IRefine(pinUniverse(), xrand.New(7), opts); return err }},
		{"noindex", func(opts Options) error {
			_, err := NoIndex(pinUniverse(), xrand.New(7), opts)
			return err
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			k := pinUniverse().K()
			frozen := make(map[int]float64)
			events := 0
			opts := DefaultOptions()
			opts.OnRound = func(m int, eps float64, epsByGroup []float64, active []bool, _ []float64, _ int64) {
				events++
				if len(epsByGroup) != k {
					t.Fatalf("round %d: %d widths for %d groups", m, len(epsByGroup), k)
				}
				for i, w := range epsByGroup {
					switch {
					case !active[i]:
						if f, ok := frozen[i]; ok && w != f {
							t.Fatalf("round %d: settled group %d width moved from %v to %v", m, i, f, w)
						}
						frozen[i] = w
					case r.name == "noindex":
						// Per-count radii differ; eps is the widest of the
						// round's live ones.
						if w > eps {
							t.Fatalf("round %d: active group %d width %v above eps %v", m, i, w, eps)
						}
					case w != eps:
						t.Fatalf("round %d: active group %d width %v, want eps %v", m, i, w, eps)
					}
				}
			}
			if err := r.run(opts); err != nil {
				t.Fatal(err)
			}
			if events == 0 {
				t.Fatal("OnRound never fired")
			}
		})
	}
}

// TestBernsteinFrozenIntervalsDisjoint: under per-group radii, a group
// may only settle once its interval clears every OTHER group's interval —
// frozen ones included. The adversarial shape is one tight group frozen at
// a sliver next to one wide, slow group with a nearby mean: if the last
// active group settled against active intervals only (there are none), it
// would freeze while still straddling the tight group's interval and the
// certified ordering could be wrong. The invariant below — all k frozen
// intervals pairwise disjoint at termination — is exactly what the
// ordering guarantee needs.
func TestBernsteinFrozenIntervalsDisjoint(t *testing.T) {
	r := xrand.New(0xd15)
	tight := make([]float64, 40_000) // 50 ± 0.5
	wide := make([]float64, 400_000) // mean ≈ 52, spread the whole domain
	far := make([]float64, 40_000)   // 80 ± 5
	for i := range tight {
		tight[i] = 50 + (r.Float64() - 0.5)
	}
	for i := range wide {
		wide[i] = 104 * r.Float64() * r.Float64() // skewed, mean ≈ 104/4 ≈ 26
	}
	for i := range wide {
		wide[i] = 52 + (wide[i]-26)/2 // recenter near the tight group
		if wide[i] < 0 {
			wide[i] = 0
		}
		if wide[i] > 100 {
			wide[i] = 100
		}
	}
	for i := range far {
		far[i] = 80 + (r.Float64()-0.5)*10
	}
	u := dataset.NewUniverse(100,
		dataset.NewSliceGroup("tight", tight),
		dataset.NewSliceGroup("wide", wide),
		dataset.NewSliceGroup("far", far),
	)
	widths := make([]float64, u.K())
	opts := bernsteinOpts(conc.KindBernstein, 16, 1)
	opts.OnPartial = func(g int, est float64, round int, eps float64) { widths[g] = eps }
	res, err := IFocus(u, xrand.New(21), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < u.K(); i++ {
		for j := i + 1; j < u.K(); j++ {
			loI, hiI := res.Estimates[i]-widths[i], res.Estimates[i]+widths[i]
			loJ, hiJ := res.Estimates[j]-widths[j], res.Estimates[j]+widths[j]
			if loI <= hiJ && loJ <= hiI {
				t.Fatalf("frozen intervals of %d and %d overlap: [%v,%v] vs [%v,%v]",
					i, j, loI, hiI, loJ, hiJ)
			}
		}
	}
	if n := IncorrectPairs(res.Estimates, u.TrueMeans(), 0); n != 0 {
		t.Fatalf("%d pairs misordered: est=%v truth=%v", n, res.Estimates, u.TrueMeans())
	}
}

// TestBoundValidation: unknown bound kinds are rejected at validation, for
// driver algorithms and NOINDEX alike.
func TestBoundValidation(t *testing.T) {
	opts := DefaultOptions()
	opts.Bound = "chernoff"
	if _, err := IFocus(pinUniverse(), xrand.New(1), opts); err == nil {
		t.Fatal("unknown bound kind accepted by IFocus")
	}
	if _, err := NoIndex(pinUniverse(), xrand.New(1), opts); err == nil {
		t.Fatal("unknown bound kind accepted by NoIndex")
	}
}

// TestBernsteinExhaustion: tiny groups still settle exactly (width zero)
// when their population runs out under the variance-adaptive path.
func TestBernsteinExhaustion(t *testing.T) {
	u := dataset.NewUniverse(100,
		dataset.NewSliceGroup("a", []float64{48, 50, 52}),
		dataset.NewSliceGroup("b", []float64{49, 51, 53}),
	)
	res, err := IFocus(u, xrand.New(5), bernsteinOpts(conc.KindBernstein, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimates[0] != 50 || res.Estimates[1] != 51 {
		t.Fatalf("exhausted groups not exact: %v", res.Estimates)
	}
	if res.SampleCounts[0] != 3 || res.SampleCounts[1] != 3 {
		t.Fatalf("drew past the population: %v", res.SampleCounts)
	}
}
