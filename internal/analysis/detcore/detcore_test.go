package detcore_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/detcore"
)

// TestDetcore pins every check and its false-positive guards: clock reads
// (with the justified-allow and missing-justification directive cases),
// global randomness vs seeded generators, map-order leaks vs the
// collect-then-sort idiom and per-key channel sends, and replay-path
// goroutine reachability. Neutering any check leaves its fixture wants
// unmatched and fails this test.
func TestDetcore(t *testing.T) {
	analysistest.Run(t, analysistest.TestdataDir(), detcore.Analyzer, "detcore")
}

// TestScope pins the determinism-critical package set: a scope regression
// (dropping the durability or simcluster packages, say) would silently
// stop enforcing replay determinism where it matters most.
func TestScope(t *testing.T) {
	for _, p := range []string{
		"repro/internal/scheduler",
		"repro/internal/scheduler/arbiter",
		"repro/internal/scheduler/modes",
		"repro/internal/durability",
		"repro/internal/simcluster",
		"repro/internal/redistrib",
	} {
		if !detcore.Analyzer.AppliesTo(p) {
			t.Errorf("detcore must apply to %s", p)
		}
	}
	for _, p := range []string{"repro/internal/rpc", "repro/internal/resize", "repro/pkg/reshape"} {
		if detcore.Analyzer.AppliesTo(p) {
			t.Errorf("detcore must not apply to %s (real-time boundary)", p)
		}
	}
}
