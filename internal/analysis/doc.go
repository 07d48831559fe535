// Package analysis is the repo's static-analysis framework: a minimal,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, Diagnostic) plus a package loader built on
// `go list -export` and the standard library's gc export-data importer.
//
// The toolchain this repo builds in carries no external modules, so the
// x/tools analysis framework itself is not importable; the subset
// reimplemented here is exactly what the five reshapelint analyzers and
// their analysistest-style fixture tests need:
//
//   - Analyzer/Pass/Diagnostic mirroring go/analysis semantics: one
//     analyzer inspects one type-checked package at a time and reports
//     position-anchored diagnostics.
//   - A loader (Load) that shells out to `go list -export -json -deps`,
//     parses each target package from source, and type-checks it against
//     the export data the go command already built for its dependencies —
//     so analyzers see the same types the compiler does, with no
//     reimplemented import resolution.
//   - An escape hatch: `//lint:allow <analyzer> <justification>` on (or
//     immediately above) the offending line suppresses that analyzer
//     there. The justification is mandatory — an allow directive without
//     one is itself a diagnostic — so every sanctioned exception is
//     documented where it lives.
//
// The five analyzers (subpackages detcore, journalfirst, durerr, ctxfirst
// and testonly) mechanically enforce the invariants the scheduler's
// correctness argument rests on, and keep internal/ free of surface only
// tests reach; see DESIGN.md "Enforced invariants" and cmd/reshapelint for
// the multichecker that runs them in CI.
package analysis
