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
