package testonly_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/testonly"
)

// TestTestonly pins the liveness rules: an unreferenced export and the
// helper only it reaches are flagged (the fixpoint); a function named by
// a package-level var, a method matching an interface, and an allowed
// declaration with its callee are not; a bare allow is itself reported.
func TestTestonly(t *testing.T) {
	analysistest.Run(t, analysistest.TestdataDir(), testonly.Analyzer, "testonly")
}

// TestTestonlyPkg: reshapelint checks the SDK under pkg/ as it does
// internal/, and not commands or examples. The pkg fixture flags an
// option no caller passes and a getter only tests read.
func TestTestonlyPkg(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/resize":     true,
		"repro/pkg/reshape":         true,
		"repro/cmd/reshaped":        false,
		"repro/examples/quickstart": false,
	} {
		if got := testonly.Analyzer.AppliesTo(path); got != want {
			t.Errorf("AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
	analysistest.Run(t, analysistest.TestdataDir(), testonly.Analyzer, "testonly/pkg/sdk")
}
