package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// result is the one-line JSON a run prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a fresh process, as the driver does, and
// parses its result line.
func runChild(name string, seed uint64, seconds float64, tmp string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-tmp", tmp)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	return &res, nil
}

// selfCheck is the A/A test: the same commit measured twice must agree
// with itself within the declared bounds. It runs every workload 2n times
// in fresh processes — seeds seed..seed+n−1, each once for set A and once
// for set B, alternating — and compares the two sets' medians per metric.
func selfCheck(n int, names []string, seed uint64, seconds float64, tmp string) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for side := range sets {
			for _, name := range names {
				res, err := runChild(name, seed+uint64(i), seconds, tmp)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", name, seed+uint64(i), res.Failed, res.Attempted)
				}
				for m, v := range res.Metrics {
					k := key{name, m}
					sets[side][k] = append(sets[side][k], v.Value)
				}
			}
		}
	}
	breaches := 0
	fmt.Printf("%-13s %-22s %12s %12s %8s %8s %8s %7s\n", "workload", "metric", "median_A", "median_B", "iqr_A%", "iqr_B%", "diff%", "bound%")
	for _, name := range names {
		for _, spec := range endToEnd {
			k := key{name, spec.Name}
			a, b := sets[0][k], sets[1][k]
			ma, mb := median(a), median(b)
			diff := math.Abs(mb-ma) / ma
			verdict := ""
			if diff > spec.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Printf("%-13s %-22s %12.4f %12.4f %8.2f %8.2f %8.2f %7.1f%s\n", name, spec.Name, ma, mb,
				100*quartileSpread(a), 100*quartileSpread(b),
				100*diff, 100*spec.Bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("A/A: %d metric medians differ by more than their bound on identical code", breaches)
	}
	return nil
}
