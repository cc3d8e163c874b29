package core

import (
	"fmt"
	"testing"

	"repro/internal/conc"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// These tests pin the central invariant of the parallel round driver:
// Workers is purely a throughput knob. Every algorithm must produce
// bit-identical estimates, sample counts, settle rounds, and settle-event
// *order* for every Workers value, at scalar and block batch sizes alike —
// because each group's randomness is its own seed-derived stream and every
// cross-group decision runs after the draw barrier in deterministic group
// order. Run under -race (the CI race job does) this also exercises the
// concurrent draw fan-out for data races.

// invarianceFingerprint runs one configuration on a freshly built universe
// (ResetDraws deliberately does not replay a consumed permutation, so
// bit-level comparisons need pristine groups) and renders everything that
// must not depend on worker count, including the partial-event sequence.
func invarianceFingerprint(t *testing.T, ar algoRunner, build func() *dataset.Universe, batch, workers int) string {
	t.Helper()
	opts := DefaultOptions()
	opts.BatchSize = batch
	opts.Workers = workers
	var pr partialRecorder
	opts.OnPartial = pr.hook()
	res, err := ar.run(build(), xrand.New(2024), opts)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(res, nil) + " partials=" + pr.String()
}

// TestWorkerInvariance: Workers ∈ {0 (auto), 1, 4, 16} × BatchSize ∈
// {1, 64, auto} agree exactly for every round-driver algorithm. Workers=0
// resolves to GOMAXPROCS and must stay on the same bit-for-bit results as
// every explicit count; BatchAuto is a deterministic schedule, so it is
// subject to the same invariant.
func TestWorkerInvariance(t *testing.T) {
	batches := []struct {
		label string
		size  int
	}{{"1", 1}, {"64", 64}, {"auto", BatchAuto}}
	for _, ar := range batchRunners() {
		for _, batch := range batches {
			t.Run(fmt.Sprintf("%s/batch=%s", ar.name, batch.label), func(t *testing.T) {
				build := pinUniverse
				if ar.name == "sum-known" || ar.name == "sum-unknown" {
					build = pinSumUniverse
				}
				want := invarianceFingerprint(t, ar, build, batch.size, 1)
				for _, workers := range []int{0, 4, 16} {
					if got := invarianceFingerprint(t, ar, build, batch.size, workers); got != want {
						t.Fatalf("workers=%d diverged from workers=1:\n got: %s\nwant: %s", workers, got, want)
					}
				}
			})
		}
	}
}

// TestWorkerInvarianceMultiAgg covers the two-phase pair estimator, whose
// phase-2 warm start must continue per-group streams from worker-invariant
// positions.
func TestWorkerInvarianceMultiAgg(t *testing.T) {
	run := func(batch, workers int) string {
		opts := DefaultOptions()
		opts.BatchSize = batch
		opts.Workers = workers
		res, err := MultiAgg(pinPairUniverse(), xrand.New(2025), opts)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v|%v|%v|%d|%d|%d", res.EstimatesY, res.EstimatesZ, res.SampleCounts, res.TotalSamples, res.RoundsY, res.RoundsZ)
	}
	for _, batch := range []int{1, 64, BatchAuto} {
		want := run(batch, 1)
		for _, workers := range []int{0, 4, 16} {
			if got := run(batch, workers); got != want {
				t.Fatalf("batch=%d workers=%d diverged:\n got: %s\nwant: %s", batch, workers, got, want)
			}
		}
	}
}

// TestWorkerInvarianceTopT: the membership classification and the reported
// top set must match too, not just the common result fields.
func TestWorkerInvarianceTopT(t *testing.T) {
	run := func(workers int) string {
		opts := DefaultOptions()
		opts.BatchSize = 16
		opts.Workers = workers
		res, err := TopT(pinUniverse(), xrand.New(2026), 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v|%v|%s", res.Members, res.Membership, fingerprint(&res.Result, nil))
	}
	want := run(1)
	for _, workers := range []int{4, 16} {
		if got := run(workers); got != want {
			t.Fatalf("workers=%d diverged:\n got: %s\nwant: %s", workers, got, want)
		}
	}
}

// TestWorkerInvarianceExhaustion: parallel rounds must clamp and settle
// exhausted groups exactly like sequential ones (widths frozen at zero, in
// group order).
func TestWorkerInvarianceExhaustion(t *testing.T) {
	build := func() *dataset.Universe {
		return dataset.NewUniverse(100,
			dataset.NewSliceGroup("a", []float64{48, 50, 52}),
			dataset.NewSliceGroup("b", []float64{49, 51, 53}),
			dataset.NewSliceGroup("c", []float64{90, 92, 94}),
		)
	}
	run := func(workers int) string {
		opts := DefaultOptions()
		opts.Workers = workers
		res, err := IFocus(build(), xrand.New(9), opts)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(res, nil)
	}
	want := run(1)
	if got := run(8); got != want {
		t.Fatalf("exhaustion path diverged under workers=8:\n got: %s\nwant: %s", got, want)
	}
}

// TestWorkersValidation rejects negative worker counts at the options
// boundary.
func TestWorkersValidation(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = -1
	if _, err := IFocus(pinUniverse(), xrand.New(1), opts); err == nil {
		t.Fatal("negative Workers accepted")
	}
}

// TestRunSpecWorkersReachesDriver: Spec.Workers flows into the sampling
// driver through the one dispatch path and leaves results unchanged.
func TestRunSpecWorkersReachesDriver(t *testing.T) {
	run := func(workers int) string {
		res, err := Run(nil, pinUniverse(), xrand.New(4), Spec{Workers: workers, Opts: DefaultOptions()})
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(&res.Result, nil)
	}
	if run(1) != run(8) {
		t.Fatal("Spec.Workers changed sampling results")
	}
}

// TestWorkerInvarianceWideScalar: with more than minParallelRoundDraws
// groups at BatchSize=1, a one-sample-per-group round clears the volume
// gate and fans out one group at a time; that must agree bit for bit with
// the inline cross-group round (Sampler.DrawEach), under the default Hoeffding
// schedule and the variance-adaptive Bernstein bound alike. Groups of 24–40
// rows exhaust without replacement, so the run ends and the fanned rounds
// give way to inline ones as groups settle.
func TestWorkerInvarianceWideScalar(t *testing.T) {
	build := func() *dataset.Universe {
		r := xrand.New(0x5ca1a)
		groups := make([]dataset.Group, 1100)
		for i := range groups {
			vals := make([]float64, 24+i%17)
			centre := float64(i%50) * 2
			for j := range vals {
				vals[j] = centre + r.Float64()*8
			}
			groups[i] = dataset.NewSliceGroup(fmt.Sprint(i), vals)
		}
		return dataset.NewUniverse(108, groups...)
	}
	for _, bound := range []conc.Kind{conc.KindHoeffding, conc.KindBernstein} {
		t.Run(string(bound), func(t *testing.T) {
			run := func(workers int) string {
				opts := DefaultOptions()
				opts.BatchSize = 1
				opts.Workers = workers
				opts.Bound = bound
				var pr partialRecorder
				opts.OnPartial = pr.hook()
				res, err := IFocus(build(), xrand.New(77), opts)
				if err != nil {
					t.Fatal(err)
				}
				return fingerprint(res, nil) + " partials=" + pr.String()
			}
			if want, got := run(1), run(4); got != want {
				t.Fatalf("workers=4 diverged from workers=1:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}
