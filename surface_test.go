package repro_test

import (
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
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
// Readers are resolved with go/types. Every file the build constraints
// select is type-checked as the go command builds it: each package with its
// in-package tests, each external test package, and bench/. Any type error
// fails the test. A top-level name is read by an identifier that resolves
// to it. A method is read only by
//   - a selection that resolves to it: a generic type's method through its
//     origin, a promoted method as its own type's; or
//   - a call through an interface that may run it: for each module type
//     implementing the interface, the method its method set holds (a
//     promoted one too) is read when the call is outside that method's
//     package. The interface's own method is read when the method run is
//     declared outside the interface's package. Such a reader is as strong
//     as the weaker of the call's file and the implementing type's.
//
// A selector's name alone reads nothing: strings.Count reads no module
// method Count. A type named in the signature or the exported fields of a
// declaration with readers, or in the composite literal a var is declared
// with, has those readers too. The standard library's calls through its
// own interfaces (stdlibCalled) give a method the readers of its type and,
// on a module interface, give the implementations' methods the interface's
// readers.
//
// Regenerate with `go test -run TestExportedSurface -update .`: the
// [commuter] section is rewritten, the [unread] section only loses lines.
// A line is added by hand, with its reason in the change that adds it, only
// for a name kept for a reader it cannot yet do without: bench/ code or the
// fleet, each waiting on its own change, or other packages' tests that have
// no other way in (a reference implementation they compare against, a hook
// that observes without racing).

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

// stdlibCalled names the methods the standard library calls through its
// interfaces (json.Marshaler, json.Unmarshaler, fmt.Stringer, error).
var stdlibCalled = map[string]bool{"MarshalJSON": true, "UnmarshalJSON": true, "String": true, "Error": true}

type surfaceDecl struct {
	pkg   string // the package's directory, slash-separated: "internal/sweep"
	name  string // "Name", or "Type.Method"
	level readLevel
	sig   []ast.Expr       // type expressions a reader of the declaration also reads
	info  *types.Info      // what the identifiers of sig resolve to
	iface *types.Interface // the interface of an interface method
}

type surfaceFile struct {
	pkg   string // directory of the package the file belongs to, "dir#test" for package x_test
	path  string // import path of the package in its directory
	ast   *ast.File
	info  *types.Info // what the file's identifiers and selections resolve to
	level readLevel   // what a reader in this file counts as
	test  bool        // a _test.go file
	own   bool        // a non-test, non-main file of an importable package
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

// scanSurface type-checks every Go file under root that the build
// constraints select: each package with its in-package test files, each
// external test package, and bench/ (its own module, importing this one,
// whose files are readers only). It returns the exported declarations of
// the importable packages outside bench/ with the level of their readers,
// sorted by package and name. Any type error is its error.
func scanSurface(root string) ([]*surfaceDecl, error) {
	fset := token.NewFileSet()
	var files []*surfaceFile
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
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		test := strings.HasSuffix(p, "_test.go")
		inBench := dir == "bench" || strings.HasPrefix(dir, "bench/")
		sf := &surfaceFile{pkg: dir, ast: f, level: read, test: test}
		switch {
		case inBench:
			sf.level = readByBench
		case test:
			sf.level = readByTests
		}
		sf.own = !test && !inBench && f.Name.Name != "main"
		sf.path = "repro/" + dir
		if dir == "." {
			sf.path = "repro"
		}
		// An external test package (package x_test beside x) is outside x.
		if strings.HasSuffix(f.Name.Name, "_test") {
			sf.pkg += "#test"
		}
		files = append(files, sf)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := typeCheck(fset, files); err != nil {
		return nil, err
	}

	s := &surfaceScan{byKey: map[string]*surfaceDecl{}, dispatched: map[dispatchKey][]implMethod{}}
	var decls []*surfaceDecl
	add := func(f *surfaceFile, name string, sig ...ast.Expr) *surfaceDecl {
		d := &surfaceDecl{pkg: f.pkg, name: name, sig: sig, info: f.info}
		s.byKey[d.pkg+" "+d.name] = d
		decls = append(decls, d)
		return d
	}
	for _, f := range files {
		for _, decl := range f.ast.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if !f.own || !decl.Name.IsExported() {
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
						if t, ok := f.info.Defs[spec.Name].Type().(*types.Named); ok && t.TypeParams() == nil && !types.IsInterface(t) {
							s.types = append(s.types, concreteType{types.NewPointer(t), f.level})
						}
						if !f.own || !spec.Name.IsExported() {
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
									add(f, spec.Name.Name+"."+m.Names[0].Name, m.Type).iface = f.info.Defs[spec.Name].Type().Underlying().(*types.Interface)
								}
							}
						default:
							sig = append(sig, typ)
						}
						add(f, spec.Name.Name, sig...)
					case *ast.ValueSpec:
						for i, n := range spec.Names {
							if !f.own || !n.IsExported() {
								continue
							}
							typ := spec.Type
							if typ == nil && i < len(spec.Values) {
								if cl, ok := spec.Values[i].(*ast.CompositeLit); ok {
									typ = cl.Type // var V = T{...} is written with T
								}
							}
							add(f, n.Name, typ)
						}
					}
				}
			}
		}
	}

	// Readers: the package-level objects and methods each file's
	// identifiers and selections resolve to, and the methods a call
	// through an interface dispatches to.
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := f.info.Uses[n]; obj != nil && obj.Parent() != nil && obj.Parent() == obj.Pkg().Scope() {
					s.readBy(s.decl(obj), f.pkg, f.level)
				}
			case *ast.SelectorExpr:
				if sel := f.info.Selections[n]; sel != nil && sel.Kind() != types.FieldVal {
					s.readMethod(f, sel)
				}
			}
			return true
		})
	}

	// Reachability: a type a read declaration names is read as strongly,
	// and so is a method the standard library calls on a read type, and,
	// for a module interface, on the values of the types implementing it.
	for changed := true; changed; {
		changed = false
		raise := func(r *surfaceDecl, level readLevel) {
			if r != nil && r.level < level {
				r.level = level
				changed = true
			}
		}
		for _, d := range decls {
			if typ, method, ok := strings.Cut(d.name, "."); ok && stdlibCalled[method] {
				if t := s.byKey[d.pkg+" "+typ]; t != nil {
					raise(d, t.level)
				}
				if d.iface != nil && d.level > unread {
					for _, m := range s.implementations(d.iface, method) {
						raise(s.decl(m.fn), min(d.level, m.level))
					}
				}
			}
			if d.level == unread {
				continue
			}
			for _, e := range d.sig {
				if e == nil {
					continue
				}
				ast.Inspect(e, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						raise(s.decl(d.info.Uses[id]), d.level)
					}
					return true
				})
			}
		}
	}

	slices.SortFunc(decls, func(a, b *surfaceDecl) int {
		return strings.Compare(a.pkg+" "+a.name, b.pkg+" "+b.name)
	})
	return decls, nil
}

// typeCheck type-checks files as the go command builds them and sets each
// file's info. Every package's non-test files are checked once; a package
// with in-package test files again with them, every package importing it
// rechecked against that variant; an external test package on top of its
// package's variant. The standard library comes from the export data `go
// list -export` names. A type error anywhere is an error.
func typeCheck(fset *token.FileSet, files []*surfaceFile) error {
	plain := map[string][]*ast.File{} // import path -> the package's non-test files
	tests := map[string][]*surfaceFile{}
	for _, f := range files {
		if f.test {
			tests[f.path] = append(tests[f.path], f)
		} else {
			plain[f.path] = append(plain[f.path], f.ast)
		}
	}
	imports := map[string][]string{} // import path -> the module packages its non-test files import
	std := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case plain[p] != nil:
				if !f.test {
					imports[f.path] = append(imports[f.path], p)
				}
			case p != "unsafe":
				std[p] = true
			}
		}
	}
	// reaches reports whether the non-test files of from import to, directly
	// or not.
	var reaches func(from, to string, seen map[string]bool) bool
	reaches = func(from, to string, seen map[string]bool) bool {
		if seen[from] {
			return false
		}
		seen[from] = true
		return slices.ContainsFunc(imports[from], func(p string) bool { return p == to || reaches(p, to, seen) })
	}

	stdlib, err := stdImporter(fset, slices.Sorted(maps.Keys(std)))
	if err != nil {
		return err
	}
	var errs []error
	report := func(err error) { errs = append(errs, err) }
	base := newChecker(fset, plain, stdlib, report)
	for _, path := range slices.Sorted(maps.Keys(plain)) {
		if _, err := base.Import(path); err != nil {
			report(err)
		}
	}
	for _, f := range files {
		if !f.test {
			f.info = base.info
		}
	}
	for _, path := range slices.Sorted(maps.Keys(tests)) {
		var internal, external []*ast.File
		for _, f := range tests[path] {
			if strings.HasSuffix(f.ast.Name.Name, "_test") {
				external = append(external, f.ast)
			} else {
				internal = append(internal, f.ast)
			}
		}
		variant := map[string][]*ast.File{}
		if len(internal) > 0 {
			variant[path] = append(slices.Clip(plain[path]), internal...)
			for p := range plain {
				if reaches(p, path, map[string]bool{}) {
					variant[p] = plain[p]
				}
			}
		}
		c := newChecker(fset, variant, base, report)
		if len(internal) > 0 {
			if _, err := c.Import(path); err != nil {
				report(err)
			}
		}
		if len(external) > 0 {
			c.conf.Check(path+"_test", fset, external, c.info)
		}
		for _, f := range tests[path] {
			f.info = c.info
		}
	}
	return errors.Join(errs...)
}

// stdImporter imports the standard library packages paths from the export
// data the go command builds for them.
func stdImporter(fset *token.FileSet, paths []string) (types.Importer, error) {
	export := map[string]string{}
	if len(paths) > 0 {
		out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)...).Output()
		if err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				err = fmt.Errorf("%v: %s", err, ee.Stderr)
			}
			return nil, fmt.Errorf("go list -export: %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			path, file, _ := strings.Cut(line, "\t")
			export[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(export[path])
	}), nil
}

// checker is a types.Importer that type-checks a package of files from its
// files on its first import, recording into info, and imports any other
// path from next.
type checker struct {
	conf  types.Config
	fset  *token.FileSet
	files map[string][]*ast.File
	done  map[string]*types.Package // nil while the package is being checked
	info  *types.Info
	next  types.Importer
}

func newChecker(fset *token.FileSet, files map[string][]*ast.File, next types.Importer, report func(error)) *checker {
	c := &checker{fset: fset, files: files, done: map[string]*types.Package{}, next: next, info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	c.conf = types.Config{Importer: c, Error: report}
	return c
}

func (c *checker) Import(path string) (*types.Package, error) {
	files, ok := c.files[path]
	if !ok {
		return c.next.Import(path)
	}
	if pkg, ok := c.done[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	c.done[path] = nil
	pkg, _ := c.conf.Check(path, c.fset, files, c.info) // its errors reach conf.Error
	c.done[path] = pkg
	return pkg, nil
}

// surfaceScan resolves readers to the declarations they read.
type surfaceScan struct {
	byKey      map[string]*surfaceDecl // "pkg Name" or "pkg Type.Method"
	types      []concreteType          // every non-generic, non-interface named type, test and bench ones too
	dispatched map[dispatchKey][]implMethod
}

// A concreteType is a pointer to a named type, whose method set holds the
// methods of both the type and its pointer, with the level of its file.
type concreteType struct {
	ptr   types.Type
	level readLevel
}

type dispatchKey struct {
	iface *types.Interface
	name  string
}

// An implMethod is a method a call through an interface may run, with the
// level of the file declaring the type whose method set holds it.
type implMethod struct {
	fn    *types.Func
	level readLevel
}

// decl returns the declaration obj names: a package-level object or a
// method of a named type or interface of an importable package, nil for
// anything else.
func (s *surfaceScan) decl(obj types.Object) *surfaceDecl {
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	dir, ok := strings.CutPrefix(obj.Pkg().Path(), "repro/")
	if !ok {
		return nil
	}
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		recv := fn.Origin().Signature().Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok {
			return nil
		}
		name = named.Obj().Name() + "." + name
	} else if obj.Parent() != obj.Pkg().Scope() {
		return nil
	}
	return s.byKey[dir+" "+name]
}

// readBy raises d to level if pkg, the reader's package, is not d's.
func (s *surfaceScan) readBy(d *surfaceDecl, pkg string, level readLevel) {
	if d != nil && d.pkg != pkg {
		d.level = max(d.level, level)
	}
}

// readMethod records what a method selection in f reads: the method it
// resolves to and, for a call through an interface, every method of a
// module type implementing the interface that the call may run. The
// interface's own method is read when one of those is declared outside its
// package.
func (s *surfaceScan) readMethod(f *surfaceFile, sel *types.Selection) {
	fn := sel.Obj().(*types.Func).Origin()
	id := s.decl(fn)
	s.readBy(id, f.pkg, f.level)
	iface := dispatchInterface(sel)
	if iface == nil || !fn.Exported() {
		return
	}
	for _, m := range s.implementations(iface, fn.Name()) {
		level := min(f.level, m.level)
		s.readBy(s.decl(m.fn), f.pkg, level)
		if id != nil && m.fn.Pkg().Path() != fn.Pkg().Path() {
			id.level = max(id.level, level)
		}
	}
}

// implementations returns the method name of every type implementing
// iface.
func (s *surfaceScan) implementations(iface *types.Interface, name string) []implMethod {
	k := dispatchKey{iface, name}
	impls, ok := s.dispatched[k]
	if !ok {
		for _, t := range s.types {
			if types.Implements(t.ptr, iface) {
				m := types.NewMethodSet(t.ptr).Lookup(nil, name)
				impls = append(impls, implMethod{m.Obj().(*types.Func).Origin(), t.level})
			}
		}
		s.dispatched[k] = impls
	}
	return impls
}

// dispatchInterface returns the interface a method selection calls
// through, nil for a concrete method: the operand's type, a type
// parameter's constraint, or the interface field embedded on the path to
// the method.
func dispatchInterface(sel *types.Selection) *types.Interface {
	t := sel.Recv()
	path := sel.Index()
	for _, i := range path[:len(path)-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		t = t.Underlying().(*types.Struct).Field(i).Type()
	}
	iface, _ := t.Underlying().(*types.Interface)
	return iface
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
# its package reads. Readers are resolved with go/types: a method is read by
# a selection that resolves to it or by a call through an interface that
# may run it, never by a selector that only shares its name. The level is
# its strongest reader: bench (bench/, a separate module), tests (a test
# file outside the package) or none. This section only shrinks: -update
# drops lines and never adds one. A line is added by hand, with its reason
# in the change that adds it, only for a name kept for a reader it cannot
# yet do without: bench/ code or the fleet, each waiting on its own change,
# or other packages' tests that have no other way in (a reference
# implementation they compare against, a hook that observes without racing).
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

// TestSurfaceReaders pins the rule on a module of four packages. k's
// interface Setup is implemented in q and called in k, and k has a type the
// standard library encodes. m's methods share their names with standard
// library calls in r, which also reaches m through interface dispatch to a
// promoted method, a generic type's instantiation and one of two
// build-constrained twin files. What nothing calls stays unread: an
// exported method added to q's Setup, an interface method of k's no code
// calls, an interface whose only implementation is in its own package, a
// String of an unread type, and the module methods Count and Sum beside
// strings.Count and a hash.Hash's Sum. A type error fails the scan.
func TestSurfaceReaders(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	twin := `package r

import "repro/m"

func twin() int { return m.Tally{}.Twinned() }
`
	for name, src := range map[string]string{
		"k/k.go": `package k

type Setup interface {
	Admit() error
	Frob() int
}

type Local interface{ Run() }

type impl struct{}

func (impl) Run() {}

type Test struct{}

func (Test) MarshalJSON() ([]byte, error) { return nil, nil }

func Check(s Setup) error { run(impl{}); return s.Admit() }

func run(l Local) { l.Run() }
`,
		"q/q.go": `package q

import "repro/k"

type Setup struct{}

func (*Setup) Admit() error { return nil }
func (*Setup) Frob() int    { return 0 }
func (*Setup) Unread() int  { return 0 }

type Hidden struct{}

func (Hidden) String() string { return "" }

var _ = k.Check(new(Setup))

var _ k.Test
`,
		"m/m.go": `package m

type Tally struct{}

func (Tally) Count() int   { return 0 }
func (Tally) Twinned() int { return 0 }

type Digest struct{}

func (Digest) Sum(b []byte) []byte { return b }

type Base struct{}

func (*Base) Inc() {}

type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }
`,
		"r/r.go": `package r

import (
	"crypto/sha256"
	"strings"

	"repro/m"
)

type incer interface{ Inc() }

type wrap struct{ *m.Base }

func run() {
	var c incer = wrap{new(m.Base)}
	c.Inc()
	_ = strings.Count("ab", "b")
	_ = sha256.New().Sum(nil)
	_ = m.Box[int]{}.Get()
	_, _ = m.Tally{}, m.Digest{}
}
`,
		"r/twin_a.go": "//go:build linux\n\n" + twin,
		"r/twin_b.go": "//go:build !linux\n\n" + twin,
	} {
		write(name, src)
	}
	t.Chdir(dir)
	decls, err := scanSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range decls {
		if d.level != read {
			got = append(got, d.pkg+" "+d.name+" "+levelNames[d.level])
		}
	}
	want := []string{"k Local none", "k Local.Run none", "k Setup.Frob none",
		"m Digest.Sum none", "m Tally.Count none",
		"q Hidden none", "q Hidden.String none", "q Setup none", "q Setup.Frob none", "q Setup.Unread none"}
	if !slices.Equal(got, want) {
		t.Errorf("unread:\n%s", lineDiff(want, got))
	}

	write("r/broken.go", "package r\n\nvar _ int = \"x\"\n")
	if _, err := scanSurface("."); err == nil || !strings.Contains(err.Error(), "broken.go") {
		t.Errorf("a type error in r/broken.go: scan error %v", err)
	}
}
