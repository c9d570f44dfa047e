package repro_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The exported-surface ratchet. Every exported declaration of an importable
// package outside bench/ (top-level types, funcs, vars and consts, and the
// methods of exported types, interface methods included) either has a
// reader in a non-test file outside its package or is a line of the
// golden's [unread] section, which may only shrink: an exported name is
// surface, and surface nothing reads is code to unexport or delete. The
// [commuter] section lists the whole public API, read or not, so a new
// public name is a reviewed diff.
//
// A reader of a top-level name is a selector x.Name whose x is the file's
// import of the declaring package. A reader of a method is any .Name
// selector in a file outside the package, since telling which type the
// operand has needs type checking (so a method shares its readers with
// every method and field of that name). A type named in the signature or
// the exported fields of a declaration with readers has those readers too.
//
// Regenerate with `go test -run TestExportedSurface -update .`: the
// [commuter] section is rewritten, the [unread] section only loses lines.

var updateSurface = flag.Bool("update", false, "drop stale [unread] lines from testdata/surface.golden and rewrite its [commuter] section")

const surfaceGolden = "testdata/surface.golden"

// A reader's strength, weakest first. A declaration's level is that of its
// strongest reader outside its package; read declarations are not listed.
type readLevel int

const (
	unread readLevel = iota
	readByTests
	readByBench
	read
)

var levelNames = [...]string{"none", "tests", "bench", ""}

type surfaceDecl struct {
	pkg   string // the package's directory, slash-separated: "internal/sweep"
	name  string // "Name", or "Type.Method"
	level readLevel
	sig   []ast.Expr // type expressions a reader of the declaration also reads
	file  *surfaceFile
}

type surfaceFile struct {
	pkg     string // directory of the package the file belongs to
	ast     *ast.File
	level   readLevel         // what a selector in this file counts as
	imports map[string]string // local name -> directory of a module package
	own     bool              // a non-test, non-main file of an importable package
}

func TestExportedSurface(t *testing.T) {
	decls, err := scanSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	var unreadLines, apiLines []string
	var perLevel [len(levelNames)]int
	for _, d := range decls {
		perLevel[d.level]++
		if d.level != read {
			unreadLines = append(unreadLines, d.pkg+" "+d.name+" "+levelNames[d.level])
		}
		if d.pkg == "commuter" {
			apiLines = append(apiLines, d.pkg+" "+d.name)
		}
	}
	slices.Sort(unreadLines)
	slices.Sort(apiLines)
	t.Logf("%d exported declarations; unread outside their package: %d none, %d tests, %d bench",
		len(decls), perLevel[unread], perLevel[readByTests], perLevel[readByBench])

	golden, err := readSurfaceGolden(surfaceGolden)
	if err != nil {
		t.Fatal(err)
	}
	current := make(map[string]bool, len(unreadLines))
	for _, l := range unreadLines {
		current[l] = true
		if !slices.Contains(golden["unread"], l) {
			t.Errorf("%s: exported, and no non-test file outside its package reads it; give it a reader or an unexported name (the [unread] section of %s only shrinks)", l, surfaceGolden)
		}
	}
	var kept []string
	for _, l := range golden["unread"] {
		if current[l] {
			kept = append(kept, l)
		} else if !*updateSurface {
			t.Errorf("%s: listed in %s but no longer an unread export; drop the line with -update", l, surfaceGolden)
		}
	}
	if !slices.Equal(apiLines, golden["commuter"]) && !*updateSurface {
		t.Errorf("package commuter's exported API changed:\n%s\nreview it and rewrite the [commuter] section with -update", lineDiff(golden["commuter"], apiLines))
	}
	if *updateSurface {
		if err := writeSurfaceGolden(surfaceGolden, kept, apiLines); err != nil {
			t.Fatal(err)
		}
	}
}

// scanSurface parses every Go file under root and returns the exported
// declarations of its importable packages outside bench/ with the level of
// their readers, sorted by package and name. Files under bench/ (its own
// module, importing this one) are readers only.
func scanSurface(root string) ([]*surfaceDecl, error) {
	var files []*surfaceFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		test := strings.HasSuffix(p, "_test.go")
		inBench := dir == "bench" || strings.HasPrefix(dir, "bench/")
		sf := &surfaceFile{pkg: dir, ast: f, level: read}
		switch {
		case inBench:
			sf.level = readByBench
		case test:
			sf.level = readByTests
		}
		sf.own = !test && !inBench && f.Name.Name != "main"
		// An external test package (package x_test beside x) is outside x.
		if strings.HasSuffix(f.Name.Name, "_test") {
			sf.pkg = dir + "#test"
		}
		files = append(files, sf)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Package names by directory, to resolve an import without a local name.
	pkgName := map[string]string{}
	for _, f := range files {
		if f.own {
			pkgName[f.pkg] = f.ast.Name.Name
		}
	}
	for _, f := range files {
		f.imports = map[string]string{}
		for _, imp := range f.ast.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(ip, "repro/")
			if !ok || pkgName[dir] == "" {
				continue
			}
			name := pkgName[dir]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			f.imports[name] = dir
		}
	}

	byKey := map[string]*surfaceDecl{}
	var decls []*surfaceDecl
	add := func(f *surfaceFile, name string, sig ...ast.Expr) {
		d := &surfaceDecl{pkg: f.pkg, name: name, sig: sig, file: f}
		byKey[d.pkg+" "+d.name] = d
		decls = append(decls, d)
	}
	for _, f := range files {
		if !f.own {
			continue
		}
		for _, decl := range f.ast.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if !decl.Name.IsExported() {
					continue
				}
				if decl.Recv == nil {
					add(f, decl.Name.Name, decl.Type)
				} else if recv := receiverName(decl.Recv.List[0].Type); ast.IsExported(recv) {
					add(f, recv+"."+decl.Name.Name, decl.Type)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if !spec.Name.IsExported() {
							continue
						}
						var sig []ast.Expr
						if spec.TypeParams != nil {
							sig = append(sig, fieldTypes(spec.TypeParams)...)
						}
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							sig = append(sig, fieldTypes(typ.Fields)...)
						case *ast.InterfaceType:
							for _, m := range typ.Methods.List {
								if len(m.Names) == 0 {
									sig = append(sig, m.Type) // an embedded interface
								} else if m.Names[0].IsExported() {
									add(f, spec.Name.Name+"."+m.Names[0].Name, m.Type)
								}
							}
						default:
							sig = append(sig, typ)
						}
						add(f, spec.Name.Name, sig...)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if n.IsExported() {
								add(f, n.Name, spec.Type)
							}
						}
					}
				}
			}
		}
	}

	// Readers. A top-level name is read through its package's import; a
	// method by its name alone, in any file outside its package.
	methodReaders := map[string]map[string]readLevel{} // name -> package -> level
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !sel.Sel.IsExported() {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok {
				if dir, ok := f.imports[x.Name]; ok && dir != f.pkg {
					if d := byKey[dir+" "+sel.Sel.Name]; d != nil {
						d.level = max(d.level, f.level)
					}
					return true
				}
			}
			m := methodReaders[sel.Sel.Name]
			if m == nil {
				m = map[string]readLevel{}
				methodReaders[sel.Sel.Name] = m
			}
			m[f.pkg] = max(m[f.pkg], f.level)
			return true
		})
	}
	for _, d := range decls {
		_, method, ok := strings.Cut(d.name, ".")
		if !ok {
			continue
		}
		for pkg, lvl := range methodReaders[method] {
			if pkg != d.pkg {
				d.level = max(d.level, lvl)
			}
		}
	}

	// Reachability: a type a read declaration names is read as strongly.
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if d.level == unread {
				continue
			}
			for _, e := range d.sig {
				typeNames(e, func(x, name string) {
					dir := d.pkg
					if x != "" {
						var ok bool
						if dir, ok = d.file.imports[x]; !ok {
							return
						}
					}
					if r := byKey[dir+" "+name]; r != nil && r.level < d.level {
						r.level = d.level
						changed = true
					}
				})
			}
		}
	}

	slices.SortFunc(decls, func(a, b *surfaceDecl) int {
		return strings.Compare(a.pkg+" "+a.name, b.pkg+" "+b.name)
	})
	return decls, nil
}

// receiverName is the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// fieldTypes returns the types of a field list's exported and embedded
// fields.
func fieldTypes(fl *ast.FieldList) []ast.Expr {
	var out []ast.Expr
	for _, fld := range fl.List {
		if len(fld.Names) == 0 || slices.ContainsFunc(fld.Names, (*ast.Ident).IsExported) {
			out = append(out, fld.Type)
		}
	}
	return out
}

// typeNames calls visit with each type name a type expression mentions:
// ("", Name) unqualified, (x, Name) for x.Name. Parameter and field names
// are not types and are skipped.
func typeNames(e ast.Expr, visit func(x, name string)) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			typeNames(n.Type, visit)
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				visit(x.Name, n.Sel.Name)
			}
			return false
		case *ast.Ident:
			visit("", n.Name)
		}
		return true
	})
}

// readSurfaceGolden returns the golden's lines by section, comments and
// blank lines dropped.
func readSurfaceGolden(file string) (map[string][]string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	sections := map[string][]string{}
	section := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]"):
			section = strings.Trim(line, "[]")
		case section == "":
			return nil, fmt.Errorf("%s: %q precedes any section", file, line)
		default:
			sections[section] = append(sections[section], line)
		}
	}
	return sections, nil
}

func writeSurfaceGolden(file string, unreadLines, apiLines []string) error {
	var b strings.Builder
	b.WriteString(`# The exported-surface ratchet; checked by TestExportedSurface (surface_test.go).
#
# [unread]: "<package dir> <Name or Type.Method> <level>" for each exported
# declaration outside package main and bench/ that no non-test file outside
# its package reads. The level is its strongest reader: bench (bench/, a
# separate module), tests (a test file outside the package) or none. This
# section only shrinks: -update drops lines, and a new one is added by hand.
#
# [commuter]: package commuter's whole exported API, read or not; -update
# rewrites it, so a new public name shows up as a diff here.

[unread]
`)
	for _, l := range unreadLines {
		b.WriteString(l + "\n")
	}
	b.WriteString("\n[commuter]\n")
	for _, l := range apiLines {
		b.WriteString(l + "\n")
	}
	return os.WriteFile(file, []byte(b.String()), 0o644)
}

// lineDiff renders the lines only in want as "-" and only in got as "+".
func lineDiff(want, got []string) string {
	var b strings.Builder
	for _, l := range want {
		if !slices.Contains(got, l) {
			fmt.Fprintf(&b, "\t- %s\n", l)
		}
	}
	for _, l := range got {
		if !slices.Contains(want, l) {
			fmt.Fprintf(&b, "\t+ %s\n", l)
		}
	}
	return b.String()
}
