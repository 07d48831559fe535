package repro

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets runs go vet in benchmark/, the repository
// benchmark's own module, which imports this one: go test ./... does not
// compile it, so without this test a change to an exported name it uses
// would break it unnoticed.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("vets a second module")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to vet the benchmark module with")
	}
	cmd := exec.Command(goTool, "vet", ".")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in benchmark/: %v\n%s", err, out)
	}
}
