package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestManifestMatchesList holds BENCHMARK.json and the program together:
// the file is exactly what -list prints.
func TestManifestMatchesList(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	if err := json.Unmarshal(blob, &onDisk); err != nil {
		t.Fatal(err)
	}
	if want := declared(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from -list:\n got %+v\nwant %+v", onDisk, want)
	}
}

func TestDeclaredNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is declared twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadSpecs {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, over 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}

// TestPooledOperations pins what the README says the time metrics are
// computed over: at the declared run length every workload pools at least
// minPooledOps operations from at least a quarter of its passes.
func TestPooledOperations(t *testing.T) {
	opsPerPass := map[string]int{"mem_order": 30, "round_bound": 12, "seg_filtered": 15, "serve_mix": 30, "ingest_write": 16}
	kept := map[string]int{"mem_order": 5, "round_bound": 10, "seg_filtered": 8, "serve_mix": 23, "ingest_write": 8}
	for _, w := range workloadSpecs {
		passes := passCount(config{workload: w.Name, seconds: runSeconds})
		got := keptPasses(passes, opsPerPass[w.Name])
		if got != kept[w.Name] || got*opsPerPass[w.Name] < minPooledOps || 4*got < passes {
			t.Errorf("%s: %d of %d passes kept (%d operations), want %d", w.Name, got, passes, got*opsPerPass[w.Name], kept[w.Name])
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) = [1, 2, 4].
	if got, want := quartileSpread([]float64{4, 1, 2}), 1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// TestWorkloadsSmoke runs every workload at 1/100 scale, untraced twice and
// traced twice: each declared metric is emitted, the result line parses
// with exactly the declared metrics and units, nothing fails the oracle,
// and the count metrics repeat exactly.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloadSpecs {
		t.Run(w.Name, func(t *testing.T) {
			cfg := config{workload: w.Name, seed: 7, seconds: 0.01, scale: 0.01, tmpRoot: t.TempDir()}
			var reps [2][2]*report
			for i := range reps {
				var err error
				if reps[i][0], err = measure(cfg); err != nil {
					t.Fatal(err)
				}
				if reps[i][1], err = traced(cfg, ""); err != nil {
					t.Fatal(err)
				}
			}
			for j, specs := range [][]metricSpec{endToEnd, perLayer} {
				rep := reps[0][j]
				if rep.failed != 0 || rep.attempted == 0 {
					t.Errorf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.failures)
				}
				var res result
				if err := json.Unmarshal([]byte(resultLine(rep, specs)), &res); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("result line carries %d metrics, %d declared", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					if got, ok := res.Metrics[s.Name]; !ok || got.Unit != s.Unit {
						t.Errorf("metric %s: got %+v, want unit %q", s.Name, got, s.Unit)
					}
				}
			}
			for _, m := range endToEnd {
				if reps[0][0].metrics[m.Name] <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", m.Name, reps[0][0].metrics[m.Name])
				}
			}
			for j, names := range [][]string{{"samples_per_query", "stored_bytes_per_row"}, {"core.rounds_per_query"}} {
				for _, n := range names {
					if a, b := reps[0][j].metrics[n], reps[1][j].metrics[n]; a != b {
						t.Errorf("%s is %v then %v: count metrics must repeat exactly", n, a, b)
					}
				}
			}
		})
	}
}
