package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// parseDir parses one package directory, tests excluded.
func parseDir(fset *token.FileSet, dir string, mode parser.Mode) (map[string]*ast.Package, error) {
	return parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, mode)
}

// surface renders a package directory's exported API as deterministic
// text: one entry per exported declaration (func bodies and doc comments
// stripped, unexported struct fields elided), sorted lexically. An alias of
// a type declared elsewhere in this module re-exports that type's fields
// and methods, so its entry lists them too (expandAlias). CI diffs this
// against a golden snapshot under docs/api/ so accidental breaking changes
// to the public packages fail the build.
func surface(dir string, w io.Writer) error {
	pkgs, err := parseDir(token.NewFileSet(), dir, 0)
	if err != nil {
		return err
	}
	var names []string
	for name := range pkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "package %s\n", name)
		for _, e := range entries(dir, pkgs[name], "") {
			fmt.Fprintf(w, "\n%s\n", e)
		}
	}
	return nil
}

// entries renders, sorted, the exported declarations of pkg (parsed from
// dir) — all of them, or with only set just that type and its methods.
func entries(dir string, pkg *ast.Package, only string) (out []string) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			out = append(out, renderDecl(dir, file, decl, only)...)
		}
	}
	sort.Strings(out)
	return out
}

var moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// moduleOf finds the go.mod above dir: the module's import path and root
// directory, both empty if there is none.
func moduleOf(dir string) (mod, root string) {
	for root, _ = filepath.Abs(dir); ; root = filepath.Dir(root) {
		data, _ := os.ReadFile(filepath.Join(root, "go.mod"))
		if m := moduleLine.FindSubmatch(data); m != nil {
			return string(m[1]), root
		}
		if root == filepath.Dir(root) {
			return "", ""
		}
	}
}

// expandAlias lists what `type X = pkg.T`, written in file of the package at
// dir, makes public when pkg belongs to the same module: T's declaration
// and exported methods as the surface of pkg would show them (so an alias
// of an alias expands in turn; the members' own types do not), every line
// prefixed with "pkg.T: " so a diff names the aliased type that moved. An
// alias of anything else — a local type, another module's — adds nothing.
func expandAlias(dir string, file *ast.File, target ast.Expr) (out []string) {
	sel, _ := target.(*ast.SelectorExpr)
	if sel == nil {
		return nil
	}
	mod, root := moduleOf(dir)
	for _, imp := range file.Imports {
		ipath, _ := strconv.Unquote(imp.Path.Value)
		local := path.Base(ipath)
		if imp.Name != nil {
			local = imp.Name.Name
		}
		rel, inModule := strings.CutPrefix(ipath, mod+"/")
		if id, _ := sel.X.(*ast.Ident); id == nil || id.Name != local || !inModule {
			continue
		}
		tdir := filepath.Join(root, filepath.FromSlash(rel))
		pkgs, err := parseDir(token.NewFileSet(), tdir, 0)
		if err != nil {
			return []string{fmt.Sprintf("expand error: %v", err)}
		}
		for name, pkg := range pkgs {
			prefix := name + "." + sel.Sel.Name + ": "
			for _, e := range entries(tdir, pkg, sel.Sel.Name) {
				out = append(out, prefix+strings.ReplaceAll(e, "\n", "\n\t"+prefix))
			}
		}
	}
	sort.Strings(out)
	return out
}

// renderDecl returns the exported API entries of one top-level
// declaration of file (of the package at dir), already formatted; with
// only set, just those of that type: its declaration and its methods.
func renderDecl(dir string, file *ast.File, decl ast.Decl, only string) []string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !receiverExported(d) || only != "" && funcName(d) != only+"."+d.Name.Name {
			return nil
		}
		return []string{renderFunc(d)}
	case *ast.GenDecl:
		if d.Tok == token.IMPORT {
			return nil
		}
		var out []string
		for _, spec := range d.Specs {
			ts, isType := spec.(*ast.TypeSpec)
			if only != "" && (!isType || ts.Name.Name != only) {
				continue
			}
			s := renderSpec(d.Tok, spec)
			if s == "" {
				continue
			}
			if isType && ts.Assign.IsValid() {
				s = strings.Join(append([]string{s}, expandAlias(dir, file, ts.Type)...), "\n\t")
			}
			out = append(out, s)
		}
		return out
	}
	return nil
}

// renderFunc formats a function or method signature: no doc, no body.
func renderFunc(d *ast.FuncDecl) string {
	fn := *d
	fn.Doc, fn.Body = nil, nil
	return render(&fn)
}

// renderSpec formats one exported spec of a const/var/type declaration,
// or "" if the spec exports nothing.
func renderSpec(tok token.Token, spec ast.Spec) string {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		if !s.Name.IsExported() {
			return ""
		}
		ts := *s
		ts.Doc, ts.Comment = nil, nil
		if st, ok := ts.Type.(*ast.StructType); ok {
			ts.Type = exportedFieldsOnly(st)
		}
		return render(&ast.GenDecl{Tok: token.TYPE, Specs: []ast.Spec{&ts}})
	case *ast.ValueSpec:
		vs := *s
		vs.Doc, vs.Comment = nil, nil
		// Keep only exported names; initializers stay only while they can
		// be attributed name-by-name, otherwise (tuple assignment mixing
		// exported and unexported names) they are elided with the names.
		var names []*ast.Ident
		var values []ast.Expr
		for i, name := range s.Names {
			if !name.IsExported() {
				continue
			}
			names = append(names, name)
			if len(s.Values) == len(s.Names) {
				values = append(values, s.Values[i])
			}
		}
		if len(names) == 0 {
			return ""
		}
		vs.Names = names
		vs.Values = values
		return render(&ast.GenDecl{Tok: tok, Specs: []ast.Spec{&vs}})
	}
	return ""
}

// exportedFieldsOnly copies a struct type keeping exported (and exported
// embedded) fields: unexported fields are implementation detail, not API.
func exportedFieldsOnly(st *ast.StructType) *ast.StructType {
	out := &ast.StructType{Struct: st.Struct, Fields: &ast.FieldList{Opening: st.Fields.Opening, Closing: st.Fields.Closing}}
	for _, f := range st.Fields.List {
		var names []*ast.Ident
		for _, n := range f.Names {
			if n.IsExported() {
				names = append(names, n)
			}
		}
		if len(f.Names) == 0 {
			// Embedded field: keep if its type name is exported.
			if id := embeddedName(f.Type); id != nil && id.IsExported() {
				out.Fields.List = append(out.Fields.List, &ast.Field{Type: f.Type})
			}
			continue
		}
		if len(names) > 0 {
			out.Fields.List = append(out.Fields.List, &ast.Field{Names: names, Type: f.Type, Tag: f.Tag})
		}
	}
	return out
}

// embeddedName resolves the identifier of an embedded field type.
func embeddedName(t ast.Expr) *ast.Ident {
	switch e := t.(type) {
	case *ast.Ident:
		return e
	case *ast.StarExpr:
		return embeddedName(e.X)
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// render pretty-prints a node against an empty file set, discarding source
// positions, so the formatting is a pure function of the AST — blank lines
// and comments from the original source cannot leak into the snapshot.
func render(node any) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.UseSpaces, Tabwidth: 8}
	if err := cfg.Fprint(&buf, token.NewFileSet(), node); err != nil {
		return fmt.Sprintf("render error: %v", err)
	}
	return buf.String()
}
