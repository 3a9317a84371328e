// Package analysis is the repo's static-analysis framework: a minimal,
// self-contained reimplementation of the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, Diagnostic) plus the //otfair:* directive
// machinery the otfairlint suite builds on.
//
// The build environment is offline and the module is dependency-free, so
// the x/tools framework itself is not importable; this package keeps the
// same shape — an Analyzer is a named Run function over a type-checked
// package — so the analyzers read like standard go/analysis code and
// could be rehosted on x/tools by swapping this import.
//
// The analyzers encode the serving stack's standing contracts as
// compile-time invariants:
//
//   - workers=N byte-identical repair means no nondeterministic iteration
//     or clock/randomness reads on solver and serving paths (mapiter,
//     nondetsource);
//   - bounded Prometheus cardinality means metric label values come from
//     closed, statically visible sets (metriclabel);
//   - nil-receiver hook safety means an uninstrumented deployment costs
//     one pointer check, never a panic (hookrecv);
//   - NaN/Inf rejection in option structs means the `<= 0 means default`
//     convention cannot be poisoned by unchecked float input (naninput).
//
// Every invariant has an escape hatch: a //otfair:<directive> comment with
// a non-empty reason on the flagged line (or the line above) suppresses
// the finding and documents why the site is exempt. cmd/otfairlint is the
// multichecker driver; `make lint` runs it over ./....
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant checker. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Directive is the //otfair:<Directive> escape that suppresses this
	// analyzer's findings at an annotated line ("" = no escape).
	Directive string
	// Run reports the package's violations through pass.Report.
	Run func(*Pass) error
}

// A Pass is one (analyzer, package) unit of work over type-checked syntax.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// DeterminismCritical is the set of packages whose outputs are pinned
// byte-identical across runs and worker counts: the solvers, both serving
// engines, the shard runner, and the artefact store. Map iteration order
// and ambient clock/randomness reads are contract violations here unless
// a //otfair:nondet-ok directive says why not.
var DeterminismCritical = map[string]bool{
	"otfair/internal/core":      true,
	"otfair/internal/ot":        true,
	"otfair/internal/joint":     true,
	"otfair/internal/blind":     true,
	"otfair/internal/vec":       true,
	"otfair/internal/shardrun":  true,
	"otfair/internal/repairsvc": true,
	"otfair/internal/planstore": true,
}

// HookPackages hold the nil-receiver-safe instrumentation hooks (obs
// instruments, faultinject points, shardrun hook sets). Types marked
// //otfair:nilsafe in these packages must guard every pointer-receiver
// method with a nil check before any field access.
var HookPackages = map[string]bool{
	"otfair/internal/obs":         true,
	"otfair/internal/shardrun":    true,
	"otfair/internal/faultinject": true,
}

// NaNInputPackages is where the naninput analyzer enforces the
// options-validate contract: the determinism-critical set plus the drift
// loop, whose thresholds gate production swaps.
var NaNInputPackages = func() map[string]bool {
	m := map[string]bool{"otfair/internal/driftwatch": true}
	for k := range DeterminismCritical {
		m[k] = true
	}
	return m
}()

// ReceiverNamed reports the named type T when typ is T or *T, else nil.
func ReceiverNamed(typ types.Type) *types.Named {
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	n, _ := typ.(*types.Named)
	return n
}

// CalleeFunc resolves the *types.Func a call expression invokes, or nil
// for calls through function values, conversions and built-ins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
