// Command doccheck enforces the godoc contract: every exported top-level
// symbol in the given package directories must carry a doc comment. CI
// runs it over the packages whose documentation this repository promises
// (see ARCHITECTURE.md); it exits nonzero listing any undocumented symbol.
//
//	go run ./cmd/doccheck ./internal/scenario ./internal/order
//
// With -surface it instead prints the directory's exported API as
// deterministic text — the API-surface gate: CI diffs the public packages
// against golden snapshots under docs/api/, so accidental breaking changes
// fail the build.
//
//	go run ./cmd/doccheck -surface ./orthrus | diff -u docs/api/orthrus.txt -
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"strings"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "-surface" {
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "usage: doccheck -surface <package-dir>")
			os.Exit(1)
		}
		if err := surface(args[1], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := run(args, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run checks every directory and returns an error naming each exported
// symbol that lacks a doc comment.
func run(dirs []string, w io.Writer) error {
	if len(dirs) == 0 {
		return fmt.Errorf("usage: doccheck <package-dir>...")
	}
	var missing []string
	for _, dir := range dirs {
		m, err := checkDir(dir)
		if err != nil {
			return err
		}
		missing = append(missing, m...)
	}
	if len(missing) > 0 {
		return fmt.Errorf("undocumented exported symbols:\n  %s", strings.Join(missing, "\n  "))
	}
	fmt.Fprintf(w, "doccheck: %d package dir(s) clean\n", len(dirs))
	return nil
}

// checkDir parses one package directory (tests excluded) and returns
// "file:line: symbol" for every undocumented exported declaration.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parseDir(fset, dir, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc.Text() == "" && receiverExported(d) {
						report(d.Pos(), funcName(d))
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return missing, nil
}

// receiverExported reports whether d is a plain function or a method on an
// exported type; methods on unexported types (e.g. heap plumbing) are not
// part of the godoc surface.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	recv := d.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	id, ok := recv.(*ast.Ident)
	return !ok || id.IsExported()
}

// funcName renders a function or method name, receiver included.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	recv := d.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// checkGenDecl handles type/const/var declarations: a doc comment on the
// grouped declaration covers all its specs, otherwise each exported spec
// needs its own.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string)) {
	if d.Tok == token.IMPORT || d.Doc.Text() != "" {
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc.Text() == "" && s.Comment.Text() == "" {
				report(s.Pos(), s.Name.Name)
			}
		case *ast.ValueSpec:
			if s.Doc.Text() != "" || s.Comment.Text() != "" {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), name.Name)
				}
			}
		}
	}
}
