// Command doccheck is the repository's godoc gate: it fails when a
// package in its argument list lacks a package doc comment or exports
// a symbol without one. The wire formats and operational knobs of this
// codebase live in doc comments (docs/ARCHITECTURE.md points at them
// as ground truth), so an undocumented export is a documentation
// regression, not a style nit.
//
// Usage:
//
//	doccheck ./internal/ot ./internal/proto ...
//
// Each argument is a package directory. Test files are ignored. The
// rules match the idiom the repo already follows: every package needs
// a `// Package foo ...` comment on exactly one file; every exported
// top-level type, function, method (on an exported receiver), constant
// and variable needs a doc comment — a comment on a const/var/type
// group covers the group's specs. Exit status 1 lists every violation
// with its position; 0 means clean. CI runs it over the public API
// (the root package), the protocol-bearing packages and the
// accelerator tool chain (compiler, isa, sim, energy), and
// cmd/doccheck's own test wraps the same check
// so `go test ./...` enforces it without a separate CI step.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run checks every package directory in args and returns the process
// exit status: 2 on usage or parse errors, 1 on violations, 0 clean.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: doccheck <package dir> ...")
		return 2
	}
	var violations []string
	for _, dir := range args {
		v, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(stderr, "doccheck: %v\n", err)
			return 2
		}
		violations = append(violations, v...)
	}
	if len(violations) > 0 {
		sort.Strings(violations)
		for _, v := range violations {
			fmt.Fprintln(stdout, v)
		}
		fmt.Fprintf(stdout, "doccheck: %d undocumented exported symbols/packages\n", len(violations))
		return 1
	}
	return 0
}

// checkDir parses one package directory (test files excluded) and
// returns its violations.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	var violations []string
	for name, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
			violations = append(violations, checkFile(fset, f)...)
		}
		if !hasPkgDoc {
			violations = append(violations, fmt.Sprintf("%s: package %s has no package doc comment", dir, name))
		}
	}
	return violations, nil
}

// checkFile walks one file's top-level declarations.
func checkFile(fset *token.FileSet, f *ast.File) []string {
	var violations []string
	report := func(pos token.Pos, what string) {
		violations = append(violations, fmt.Sprintf("%s: %s is exported but undocumented", fset.Position(pos), what))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil {
				recv := receiverName(d.Recv)
				if !ast.IsExported(recv) {
					continue // method on an unexported type: not API surface
				}
				report(d.Pos(), fmt.Sprintf("method %s.%s", recv, d.Name.Name))
				continue
			}
			report(d.Pos(), "func "+d.Name.Name)
		case *ast.GenDecl:
			// A comment on the group documents every spec in it — the
			// repo's idiom for error/const blocks.
			if d.Doc != nil {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					if s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(n.Pos(), kindName(d.Tok)+" "+n.Name)
						}
					}
				}
			}
		}
	}
	return violations
}

// receiverName extracts the receiver's base type name, stripping
// pointers and type parameters.
func receiverName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// kindName renders the declaration keyword for a violation message.
func kindName(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}
