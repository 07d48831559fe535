package journalfirst_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/journalfirst"
)

// TestJournalfirst pins the write-ahead guard: direct writes to journaled
// Core/Job state (plain assignment, map-index write, append-assign,
// compound assignment, ++) are flagged outside the state-machine files,
// while the same writes in an allowed file, configuration-field writes,
// reads, and the justified escape hatch stay clean.
func TestJournalfirst(t *testing.T) {
	analysistest.Run(t, analysistest.TestdataDir(), journalfirst.Analyzer, "journalfirst")
}

// TestGuardedFieldsMirrorPersistState documents the contract that the
// guarded set is exactly the persisted state and what restore derives from
// it: if PersistState grows a field, the guard must grow with it.
func TestGuardedFieldsMirrorPersistState(t *testing.T) {
	for _, f := range []string{"nextID", "jobs", "queue", "running", "busySeconds", "events"} {
		if !journalfirst.GuardedFields["Core"][f] {
			t.Errorf("Core.%s must be guarded: it is part of the persisted state image", f)
		}
	}
	if !journalfirst.GuardedFields["Core"]["free"] {
		t.Error("Core.free must be guarded: restore derives the idle count from the running jobs")
	}
	for _, f := range []string{"State", "Topo", "pendingFree", "resizeFrom"} {
		if !journalfirst.GuardedFields["Job"][f] {
			t.Errorf("Job.%s must be guarded: it is part of the persisted state image", f)
		}
	}
}
