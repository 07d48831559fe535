package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/perfmodel"
)

// TestExpAllPrintsEveryGolden holds -exp all to the artefacts' goldens, in
// Artefacts order, each followed by one blank line.
func TestExpAllPrintsEveryGolden(t *testing.T) {
	var want bytes.Buffer
	for _, a := range experiments.Artefacts(perfmodel.SystemX()) {
		b, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", a.Name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		want.Write(b)
		want.WriteByte('\n')
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Errorf("-exp all differs from the goldens:\n%s", stdout.String())
	}
}

// TestUnknownExpNamesEveryArtefact: an unknown -exp is a usage error that
// lists what -exp takes.
func TestUnknownExpNamesEveryArtefact(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("printed %q", stdout.String())
	}
	for _, a := range experiments.Artefacts(perfmodel.SystemX()) {
		if !strings.Contains(stderr.String(), a.Name) {
			t.Errorf("%q does not name %s", stderr.String(), a.Name)
		}
	}
}
