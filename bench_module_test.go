package rapidviz_test

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets keeps the benchmark compiling. bench/ is a module of
// its own (BENCHMARK.json asks for a package with its own build file), so
// `go build ./... && go test ./...` at the root never type-checks it, yet
// it imports repro/internal/{core,dataset,…} as a client: a change to one
// of those surfaces could otherwise break the harness unnoticed until the
// next benchmark run.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool over a second module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
