// Package seedrand implements the determinism analyzer for entropy
// sources: in deterministic packages the only legal RNG is a seeded
// *rand.Rand threaded down from the trial seed — exactly what makes a
// routing trial reproducible under any worker count. Flagged:
//
//   - math/rand (and math/rand/v2) package-level functions
//     (rand.Intn, rand.Shuffle, ...): they draw from the global
//     source, which is seeded from OS entropy. The constructors
//     (rand.New, rand.NewSource, rand.NewZipf) are legal — they are
//     how seeds become streams.
//   - time.Now: wall-clock values braided into routing decisions are
//     the subtlest golden-suite killer. Pass timing (metrics only)
//     is annotated //sabre:nondeterm-ok.
//   - any use of crypto/rand: cryptographic entropy is never
//     deterministic; flagged at the import.
//
// This catches exactly the class of bug that would silently break the
// golden scoring suite: an innocent rand.Intn tie-break or
// a time-derived seed routes differently on every run, and no fixture
// diff points at the cause.
package seedrand

import (
	"go/ast"
	"go/types"
	"strconv"

	"repro/internal/analysis/lint"
)

// Analyzer flags unseeded entropy sources in deterministic packages.
var Analyzer = &lint.Analyzer{
	Name: "seedrand",
	Doc: "forbids math/rand global functions, time.Now, and crypto/rand in " +
		"deterministic packages; the only legal RNG is a seeded *rand.Rand " +
		"threaded from trial seeds (annotate metrics-only timing //sabre:nondeterm-ok)",
	Run: run,
}

// constructors are the math/rand functions that build seeded streams
// rather than drawing from the global source.
var constructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "crypto/rand" && !pass.Allowed(imp.Pos(), "nondeterm-ok") {
				pass.Reportf(imp.Pos(), "crypto/rand imported in a deterministic package; cryptographic entropy can never reproduce a trial")
			}
		}
	}
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		switch fn.Pkg().Path() {
		case "math/rand", "math/rand/v2":
			// Methods on *rand.Rand are the legal seeded form; only
			// package-level draws touch the global source.
			if sig != nil && sig.Recv() == nil && !constructors[fn.Name()] {
				if !pass.Allowed(call.Pos(), "nondeterm-ok") {
					pass.Reportf(call.Pos(), "rand.%s draws from the process-global source; thread a seeded *rand.Rand from the trial seed instead", fn.Name())
				}
			}
		case "time":
			if fn.Name() == "Now" && sig != nil && sig.Recv() == nil {
				if !pass.Allowed(call.Pos(), "nondeterm-ok") {
					pass.Reportf(call.Pos(), "time.Now in a deterministic package; wall-clock values must never feed routing decisions (annotate //sabre:nondeterm-ok if it only feeds metrics)")
				}
			}
		}
		return true
	})
	return nil
}
