// Package determinism is the lint pass that keeps the simulation core
// bit-reproducible by construction. The simulator's replay fast path, its
// content-addressed result cache, and the paper's sphere-of-replication
// argument all assume that a run is a pure function of its fingerprinted
// inputs; a single wall-clock read or map-iteration-order dependence
// breaks that silently. The pass forbids, inside a fixed set of packages:
//
//   - wall-clock reads: any reference to time.Now, time.Since or
//     time.Until (calls or method values alike, so the builtin cannot be
//     smuggled through a function variable);
//   - the global math/rand (and math/rand/v2) generators: rand.Int,
//     rand.Float64, rand.Shuffle, ... — seeded local generators built
//     with rand.New / rand.NewPCG / rand.NewSource remain allowed;
//   - ranging over a map, whose order Go randomizes per iteration,
//     except when the loop body only accumulates into slices (the
//     collect-then-sort idiom) — everything else must either be
//     restructured or carry the exemption annotation.
//
// An injected clock seam — one place a deterministic layer hands a real
// clock in from outside — is declared with
//
//	//determinism:exempt <reason>
//
// on the offending line or the line above. The reason is mandatory; an
// empty reason is itself a finding, so the clean tree carries zero
// unexplained annotations. Test files are not checked.
package determinism

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/lint"
)

// Marker is the annotation that declares an intentional nondeterminism
// seam, with a mandatory reason.
const Marker = "//determinism:exempt"

// DefaultPackages is the sphere the pass protects: the simulation core
// (whose outputs must be bit-identical across runs, hosts and replay)
// plus the grid runner and the serving layer, whose wall-clock use must
// flow through injected clock seams so their logic stays testable and
// deterministic.
var DefaultPackages = []string{
	"internal/core",
	"internal/fsim",
	"internal/irb",
	"internal/trb",
	"internal/fault",
	"internal/sim",
	"internal/runner",
	"internal/service",
	"internal/journal",
}

// wallClock lists the time package functions that read the wall clock.
var wallClock = map[string]bool{"Now": true, "Since": true, "Until": true}

// randAllowed are the math/rand names that do not touch the global
// generator: the constructors of seeded local generators and the
// package's type names. Everything else exported drives the global
// generator and is forbidden.
var randAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewZipf": true, "NewChaCha8": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true,
}

// Pass is the determinism pass, ready for the repolint driver.
type Pass struct{}

func (Pass) Name() string { return "determinism" }
func (Pass) Doc() string {
	return "simulation core must not read wall clocks, global RNGs, or map iteration order"
}

// Check runs the pass over DefaultPackages relative to root. Package
// directories missing from the tree are skipped, so the pass is safe on
// partial trees.
func (Pass) Check(root string) ([]lint.Finding, error) {
	checker := lint.NewChecker()
	var out []lint.Finding
	for _, rel := range DefaultPackages {
		fs, err := CheckPackage(checker, filepath.Join(root, rel))
		if err != nil {
			return nil, fmt.Errorf("determinism: %s: %w", rel, err)
		}
		out = append(out, fs...)
	}
	lint.SortFindings(out)
	return out, nil
}

// CheckPackage checks one package directory unconditionally (the unit the
// testdata harness drives).
func CheckPackage(checker *lint.Checker, dir string) ([]lint.Finding, error) {
	pkg, err := checker.Check(dir)
	if pkg == nil || err != nil {
		return nil, err
	}
	var out []lint.Finding
	for _, f := range pkg.Files {
		out = append(out, checkFile(pkg, f)...)
	}
	return out, nil
}

func checkFile(pkg *lint.Package, f *ast.File) []lint.Finding {
	marked := lint.MarkedLines(pkg.Fset, f, Marker)
	var out []lint.Finding

	// An exemption without a reason is unexplained and fails the suite.
	for line, reason := range marked {
		if reason == "" {
			pos := pkg.Fset.Position(f.Pos())
			pos.Line, pos.Column = line, 1
			out = append(out, lint.NewFinding("determinism", pos,
				Marker+" needs a reason explaining why the nondeterminism is safe"))
		}
	}

	// imports maps the local name of each import to its path.
	imports := map[string]string{}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = path
	}

	exempt := func(pos ast.Node) bool {
		reason, ok := lint.Exempt(marked, pkg.Fset.Position(pos.Pos()).Line)
		return ok && reason != ""
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			id, ok := n.X.(*ast.Ident)
			if !ok {
				return true
			}
			// When type information resolved the identifier, trust it:
			// only flag genuine package references, so a local variable
			// named `time` cannot false-positive.
			if obj, resolved := pkg.Info.Uses[id]; resolved {
				if _, isPkg := obj.(*types.PkgName); !isPkg {
					return true
				}
			}
			switch imports[id.Name] {
			case "time":
				if wallClock[n.Sel.Name] && !exempt(n) {
					out = append(out, lint.NewFinding("determinism",
						pkg.Fset.Position(n.Pos()),
						fmt.Sprintf("wall-clock read time.%s in the deterministic core (inject a clock seam, or annotate with %s <reason>)",
							n.Sel.Name, Marker)))
				}
			case "math/rand", "math/rand/v2":
				if obj, resolved := pkg.Info.Uses[n.Sel]; resolved {
					if _, isType := obj.(*types.TypeName); isType {
						return true
					}
				}
				if !randAllowed[n.Sel.Name] && ast.IsExported(n.Sel.Name) && !exempt(n) {
					out = append(out, lint.NewFinding("determinism",
						pkg.Fset.Position(n.Pos()),
						fmt.Sprintf("global math/rand %s in the deterministic core (use a seeded rand.New generator, or annotate with %s <reason>)",
							n.Sel.Name, Marker)))
				}
			}
		case *ast.RangeStmt:
			tv, ok := pkg.Info.Types[n.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if collectOnly(n.Body) || exempt(n) {
				return true
			}
			out = append(out, lint.NewFinding("determinism",
				pkg.Fset.Position(n.Pos()),
				fmt.Sprintf("map iteration order feeds computation (collect keys and sort, or annotate with %s <reason>)", Marker)))
		}
		return true
	})
	return out
}

// collectOnly reports whether a range body only accumulates into slices
// (`x = append(x, ...)` statements), the first half of the
// collect-then-sort idiom: the accumulated order is normalized by the
// sort that follows, so the map's iteration order never escapes.
func collectOnly(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	for _, stmt := range body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" {
			return false
		}
	}
	return true
}
