package core

import (
	"testing"

	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestHardFamilyEtaControlsCost verifies the sample-complexity scaling of
// Theorem 3.6 on the hard Bernoulli family, where η = γ exactly: halving γ
// should roughly quadruple the cost (c²/η² scaling).
func TestHardFamilyEtaControlsCost(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	cost := func(gamma float64) int64 {
		var total int64
		for rep := 0; rep < 3; rep++ {
			cfg := workload.Config{Kind: workload.HardKind, K: 4, TotalRows: 100_000_000, Gamma: gamma, Seed: uint64(rep)}
			u, err := workload.Virtual(cfg)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			res, err := IFocus(u, xrand.New(uint64(rep)+50), opts)
			if err != nil {
				t.Fatal(err)
			}
			total += res.TotalSamples
		}
		return total
	}
	wide := cost(1.6)
	narrow := cost(0.8)
	ratio := float64(narrow) / float64(wide)
	// Theory says ~4x; accept anything clearly super-linear.
	if ratio < 2 {
		t.Fatalf("halving eta only grew cost by %.2fx; want ~4x", ratio)
	}
}
