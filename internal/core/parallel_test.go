package core

import (
	"fmt"
	"testing"

	"repro/internal/conc"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// These tests pin the central invariant of the parallel round driver where
// the conformance matrix (conformance_test.go, Workers 1 and 4) does not
// reach: Workers is purely a throughput knob. Every algorithm must produce
// bit-identical estimates, sample counts, settle rounds, and settle-event
// *order* for every Workers value, at scalar and block batch sizes alike —
// because each group's randomness is its own seed-derived stream and every
// cross-group decision runs after the draw barrier in deterministic group
// order. Run under -race (the CI race job does) this also exercises the
// concurrent draw fan-out for data races.

// invarianceFingerprint runs one configuration on a freshly built universe
// and renders everything that must not depend on worker count, including
// the partial-event sequence.
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

// TestWorkerInvariance: Workers ∈ {0 (auto), 16} agree exactly with
// Workers 1 for every round-driver algorithm at BatchSize ∈ {1, 64, auto};
// Workers 4 is the matrix's. Workers=0 resolves to GOMAXPROCS and must stay
// on the same bit-for-bit results as every explicit count.
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
				for _, workers := range []int{0, 16} {
					if got := invarianceFingerprint(t, ar, build, batch.size, workers); got != want {
						t.Fatalf("workers=%d diverged from workers=1:\n got: %s\nwant: %s", workers, got, want)
					}
				}
			})
		}
	}
}

// TestWorkerInvarianceMultiAgg covers the two-stage pair estimator, whose
// Z stage must continue per-group streams from worker-invariant positions.
func TestWorkerInvarianceMultiAgg(t *testing.T) {
	run := func(batch, workers int) string {
		opts := DefaultOptions()
		opts.BatchSize = batch
		opts.Workers = workers
		res, err := MultiAgg(pinPairUniverse(), xrand.New(2025), opts)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v|%v|%v|%d|%d", res.Estimates, res.SecondEstimates, res.SampleCounts, res.TotalSamples, res.Rounds)
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

// TestWorkersValidation rejects negative worker counts at the options
// boundary.
func TestWorkersValidation(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = -1
	if _, err := IFocus(pinUniverse(), xrand.New(1), opts); err == nil {
		t.Fatal("negative Workers accepted")
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
