// Package analysis is shapesearch's static-analysis suite: a set of
// repo-specific analyzers that mechanically enforce the engine's concurrency
// and determinism invariants (evalCtx buffer ownership, epoch-stamped memo
// discipline, context propagation, byte-identical-result determinism, and
// the appendMu → cache-lock ordering). See README.md in this directory for
// the invariant catalog.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, Reportf, per-package runs over type-checked
// syntax) so the analyzers port mechanically if the repo ever takes on the
// x/tools dependency; it is implemented on the standard library alone
// (go/ast + go/types, with export data served by `go list -export`) because
// the build must stay dependency-free.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run inspects a single type-checked
// package and reports findings through the Pass.
type Analyzer struct {
	// Name is the analyzer's identifier, used in output, in
	// //lint:ignore comments and in vet-style diagnostics.
	Name string
	// Doc is the one-line invariant statement shown by `shapelint -help`.
	Doc string
	// AppliesTo restricts the analyzer to packages whose import path it
	// accepts; nil means every package (such analyzers self-gate on the
	// declarations they police).
	AppliesTo func(pkgPath string) bool
	// Run performs the check.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked state to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	findings *[]Finding
	ignores  ignoreIndex
}

// Finding is one reported diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Reportf records a diagnostic at pos unless a //lint:ignore comment
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignores.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreIndex records //lint:ignore suppressions by file and line. The
// comment form is
//
//	//lint:ignore analyzer1,analyzer2 reason for the exception
//
// and it suppresses matching diagnostics on its own line and on the line
// immediately below (so it can sit above the flagged statement or trail it
// on the same line). The reason is mandatory: an ignore without one does
// not suppress anything — unexplained exceptions are the tribal knowledge
// this package exists to eliminate.
type ignoreIndex map[string]map[int][]string // file → line → analyzer names

var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)\s+(\S.*)$`)

func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) ignoreIndex {
	ix := make(ignoreIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := ix[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					ix[pos.Filename] = byLine
				}
				names := strings.Split(m[1], ",")
				byLine[pos.Line] = append(byLine[pos.Line], names...)
				byLine[pos.Line+1] = append(byLine[pos.Line+1], names...)
			}
		}
	}
	return ix
}

func (ix ignoreIndex) suppressed(analyzer string, pos token.Position) bool {
	for _, name := range ix[pos.Filename][pos.Line] {
		if name == analyzer || name == "*" {
			return true
		}
	}
	return false
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		EvalCtxEscape,
		MemoEpoch,
		CtxPropagate,
		FloatDeterminism,
		LockOrder,
		AdmissionPair,
	}
}

// ByName resolves a comma-separated analyzer list; an empty spec means all.
func ByName(spec string) ([]*Analyzer, error) {
	if spec == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(spec, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunPackage runs the given analyzers over one loaded package, honoring
// each analyzer's AppliesTo gate and the package's //lint:ignore comments,
// and returns the surviving findings sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	ignores := buildIgnoreIndex(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			findings: &findings,
			ignores:  ignores,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	sortFindings(findings)
	return findings, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ---- shared type helpers used by several analyzers ----

// derefNamed unwraps pointers and aliases down to a named type, or nil.
func derefNamed(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isPkgCall reports whether call invokes pkgPath.fn (e.g. "context",
// "Background").
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, fn string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// enclosingFuncs builds a lookup from any node position to its innermost
// enclosing function declaration (methods included). Function literals are
// not tracked separately: a literal belongs to the declaration it appears
// in, which is the granularity the analyzers reason at.
type funcIndex struct {
	decls []*ast.FuncDecl
}

func indexFuncs(files []*ast.File) *funcIndex {
	var ix funcIndex
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				ix.decls = append(ix.decls, fd)
			}
		}
	}
	return &ix
}

func (ix *funcIndex) enclosing(pos token.Pos) *ast.FuncDecl {
	for _, fd := range ix.decls {
		if fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// recvNamed returns the receiver's named type for a method decl, or nil.
func recvNamed(info *types.Info, fd *ast.FuncDecl) *types.Named {
	if fd == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	return derefNamed(info.TypeOf(fd.Recv.List[0].Type))
}

// selectorPath renders a selector/ident chain ("s.cache.mu") for display
// and lock-identity purposes; non-chain expressions collapse to "".
func selectorPath(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := selectorPath(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return selectorPath(x.X)
	default:
		return ""
	}
}
