// Package errcontract is the lint pass that enforces the structured-error
// contract on the repository's API-boundary packages. The runner, the sim
// entry points and the HTTP service promise callers errors they can
// program against — errors.Is/As over sentinel values and named error
// types (DivergenceError, CellTimeoutError, unknownModeError, ...), not
// string matching. A bare
//
//	fmt.Errorf("something went wrong: %v", err)
//
// severs the chain: the cause is flattened into text and the caller is
// back to substring tests. In the boundary packages every fmt.Errorf must
// therefore wrap with %w (an underlying error or a package sentinel);
// messages with no error to wrap belong in errors.New sentinels or named
// structured error types instead. The escape hatch, for the rare message
// that genuinely must flatten its cause, is
//
//	//errcontract:exempt <reason>
//
// on the call's line or the line above. Test files are not checked.
package errcontract

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/lint"
)

// Marker is the annotation that allows a non-wrapping fmt.Errorf, with a
// mandatory reason.
const Marker = "//errcontract:exempt"

// DefaultPackages are the API boundaries: the layers whose errors cross
// into CLIs, HTTP clients and embedders.
var DefaultPackages = []string{
	"internal/service",
	"internal/service/api",
	"internal/runner",
	"internal/sim",
	"internal/trb",
	"internal/journal",
}

// Pass is the errcontract pass, ready for the repolint driver.
type Pass struct{}

func (Pass) Name() string { return "errcontract" }
func (Pass) Doc() string {
	return "API-boundary packages must wrap errors with %w or construct named structured error types"
}

// Check runs the pass over DefaultPackages relative to root, skipping
// directories missing from the tree.
func (Pass) Check(root string) ([]lint.Finding, error) {
	var out []lint.Finding
	for _, rel := range DefaultPackages {
		files, err := lint.PackageFiles(filepath.Join(root, rel))
		if err != nil {
			return nil, fmt.Errorf("errcontract: %s: %w", rel, err)
		}
		for _, path := range files {
			fs, err := CheckFile(path)
			if err != nil {
				return nil, err
			}
			out = append(out, fs...)
		}
	}
	lint.SortFindings(out)
	return out, nil
}

// CheckFile parses one Go source file and returns its non-wrapping
// fmt.Errorf calls.
func CheckFile(path string) ([]lint.Finding, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("errcontract: %w", err)
	}
	marked := lint.MarkedLines(fset, f, Marker)

	// fmtName is what the fmt package is imported as (skip the file if
	// it does not import fmt at all).
	fmtName := ""
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != "fmt" {
			continue
		}
		fmtName = "fmt"
		if imp.Name != nil {
			fmtName = imp.Name.Name
		}
	}
	if fmtName == "" || fmtName == "_" {
		return nil, nil
	}

	var out []lint.Finding
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Errorf" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || id.Name != fmtName {
			return true
		}
		pos := fset.Position(call.Pos())
		if reason, ok := lint.Exempt(marked, pos.Line); ok && reason != "" {
			return true
		}
		format, ok := formatLiteral(call)
		switch {
		case !ok:
			out = append(out, lint.NewFinding("errcontract", pos,
				"fmt.Errorf with a non-literal format string cannot be checked for %w; use a named error type or a constant format"))
		case !strings.Contains(format, "%w"):
			out = append(out, lint.NewFinding("errcontract", pos,
				"fmt.Errorf without %w at an API boundary: wrap the cause (or a package sentinel), or construct a named error type"))
		}
		return true
	})
	return out, nil
}

// formatLiteral extracts the call's format string when it is a plain
// string literal (possibly a parenthesized one).
func formatLiteral(call *ast.CallExpr) (string, bool) {
	if len(call.Args) == 0 {
		return "", false
	}
	e := call.Args[0]
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}
