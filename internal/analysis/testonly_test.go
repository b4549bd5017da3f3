package analysis

import (
	"bufio"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowlist names the declarations under internal/ that no
// non-test file uses, each with a one-line reason it stays.
// TestNoTestOnlyExports keeps it exact.
const testOnlyAllowlist = "testdata/testonly_exports.txt"

// TestNoTestOnlyExports keeps code that only tests use from growing
// back. testOnlyDecls lists what under internal/ no non-test code of
// the repository calls; the list must equal the committed allowlist.
// The test fails on a new test-only declaration, and on an allowlist
// entry that gained a caller or no longer exists.
func TestNoTestOnlyExports(t *testing.T) {
	got, err := testOnlyDecls(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}

	allowed := readAllowlist(t)
	var fresh, stale []string
	for _, id := range got {
		if _, ok := allowed[id]; !ok {
			fresh = append(fresh, id)
		}
	}
	have := make(map[string]bool, len(got))
	for _, id := range got {
		have[id] = true
	}
	for id := range allowed {
		if !have[id] {
			stale = append(stale, id)
		}
	}
	sort.Strings(stale)
	for _, id := range fresh {
		t.Errorf("%s has no non-test caller: delete it, or add it to %s with a reason", id, testOnlyAllowlist)
	}
	for _, id := range stale {
		t.Errorf("%s is in %s but is gone or has a non-test caller: drop the entry", id, testOnlyAllowlist)
	}
}

// TestTestOnlyDeclsFixture runs the gate on a module built to defeat
// a gate that matches by name: a test-only Bytes method whose name a
// non-test call on another type shares, an uncalled unexported
// function, and a method reached only through an interface.
func TestTestOnlyDeclsFixture(t *testing.T) {
	got, err := testOnlyDecls(filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lib.File.Bytes", "lib.unused"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("testOnlyDecls = %q, want %q", got, want)
	}
}

// readAllowlist parses the allowlist: one "identifier  reason" line
// per entry; blank lines and lines starting with # are comments.
func readAllowlist(t *testing.T) map[string]string {
	f, err := os.Open(testOnlyAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries := make(map[string]string)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", testOnlyAllowlist, n, id)
		}
		if _, dup := entries[id]; dup {
			t.Errorf("%s:%d: %s listed twice", testOnlyAllowlist, n, id)
		}
		entries[id] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return entries
}

// testOnlyDecls type-checks the non-test files of every package under
// root, including nested modules (a go.mod below root starts one), and
// returns the sorted declarations under root's internal/ directory
// that no non-test file uses: every function and method, and every
// exported type, variable and constant. A declaration is named
// "pkg.Name", or "pkg.Type.Method" for a method, pkg being its
// directory below internal/.
//
// A use is an identifier or selector that go/types resolves to the
// declaration (a generic instance counts for its origin). A method
// also counts as used when it implements a method of an interface
// that non-test code mentions, since a call through the interface
// reaches it; code that calls fmt mentions fmt.Stringer. Standard
// library packages are checked from source.
func testOnlyDecls(root string) ([]string, error) {
	ld, err := newDeclLoader(root)
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(ld.dirs))
	for path := range ld.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := ld.load(path); err != nil {
			return nil, err
		}
	}

	used := make(map[types.Object]bool)
	ifaces := make(map[types.Type]bool)
	for _, info := range ld.infos {
		for _, obj := range info.Uses {
			used[origin(obj)] = true
			interfacesIn(obj.Type(), ifaces)
			if p := obj.Pkg(); p != nil && p.Path() == "fmt" {
				// fmt's print family asserts its operands to
				// fmt.Stringer, so a String method reaches it that way.
				ifaces[p.Scope().Lookup("Stringer").Type()] = true
			}
		}
		for _, sel := range info.Selections {
			used[origin(sel.Obj())] = true
		}
		for _, obj := range info.Defs {
			if obj != nil {
				interfacesIn(obj.Type(), ifaces)
			}
		}
		for _, tv := range info.Types {
			interfacesIn(tv.Type, ifaces)
		}
	}
	for _, path := range paths {
		markImplementations(ld.pkgs[path], ifaces, used)
	}

	var out []string
	for _, d := range ld.decls {
		if !used[d.obj] {
			out = append(out, d.name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// declLoader type-checks the packages found under one root, resolving
// their imports of each other from source files and every other import
// from the standard library's sources.
type declLoader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	infos []*types.Info
	decls []decl // the declarations the gate judges
}

// decl is one declaration under internal/ and its report name.
type decl struct {
	name string
	obj  types.Object
}

func newDeclLoader(root string) (*declLoader, error) {
	fset := token.NewFileSet()
	ld := &declLoader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: make(map[string]string),
		pkgs: make(map[string]*types.Package),
	}
	type module struct{ dir, path string }
	var mods []module // enclosing modules, innermost last
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		for len(mods) > 0 && !within(dir, mods[len(mods)-1].dir) {
			mods = mods[:len(mods)-1]
		}
		if mod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			mods = append(mods, module{dir, modulePath(mod)})
		}
		if len(mods) == 0 {
			return nil
		}
		m := mods[len(mods)-1]
		rel, err := filepath.Rel(m.dir, dir)
		if err != nil {
			return err
		}
		path := m.path
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		ld.dirs[path] = dir
		return nil
	})
	return ld, err
}

// within reports whether dir is base or lies below it.
func within(dir, base string) bool {
	return dir == base || strings.HasPrefix(dir, base+string(filepath.Separator))
}

// modulePath returns the module path a go.mod file declares.
func modulePath(mod []byte) string {
	for _, line := range strings.Split(string(mod), "\n") {
		if path, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(path), `"`)
		}
	}
	return ""
}

// load type-checks a package under root from its non-test files,
// once, and imports any other package from std.
func (ld *declLoader) load(path string) (*types.Package, error) {
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := ld.dirs[path]
	if !ok {
		return ld.std.Import(path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		ld.pkgs[path] = nil
		return nil, nil
	}
	info := NewInfo()
	cfg := types.Config{Importer: importerFunc(ld.load)}
	pkg, err := cfg.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, err
	}
	ld.pkgs[path] = pkg
	ld.infos = append(ld.infos, info)

	rel, err := filepath.Rel(ld.root, dir)
	if err != nil {
		return nil, err
	}
	if name, ok := strings.CutPrefix(filepath.ToSlash(rel), "internal/"); ok {
		for _, f := range files {
			ld.decls = append(ld.decls, judged(name, f, info)...)
		}
	}
	return pkg, nil
}

// judged returns the declarations of f that the gate judges, named
// below package name pkg.
func judged(pkg string, f *ast.File, info *types.Info) []decl {
	var out []decl
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.Name == "init" {
				continue
			}
			name := pkg + "." + d.Name.Name
			if d.Recv != nil {
				name = pkg + "." + recvType(d.Recv.List[0].Type) + "." + d.Name.Name
			}
			out = append(out, decl{name, info.Defs[d.Name]})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				var names []*ast.Ident
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = []*ast.Ident{s.Name}
				case *ast.ValueSpec:
					names = s.Names
				}
				for _, n := range names {
					if n.IsExported() {
						out = append(out, decl{pkg + "." + n.Name, info.Defs[n]})
					}
				}
			}
		}
	}
	return out
}

// origin maps a generic instance's method or field back to the object
// its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// interfacesIn adds to set every interface with methods that t is or
// that t's signature, pointer, slice, array, map or channel structure
// mentions.
func interfacesIn(t types.Type, set map[types.Type]bool) {
	switch t := t.(type) {
	case *types.Named:
		if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			set[t] = true
		}
	case *types.Interface:
		if t.NumMethods() > 0 {
			set[t] = true
		}
	case *types.Pointer:
		interfacesIn(t.Elem(), set)
	case *types.Slice:
		interfacesIn(t.Elem(), set)
	case *types.Array:
		interfacesIn(t.Elem(), set)
	case *types.Chan:
		interfacesIn(t.Elem(), set)
	case *types.Map:
		interfacesIn(t.Key(), set)
		interfacesIn(t.Elem(), set)
	case *types.Signature:
		for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
			for i := range tuple.Len() {
				interfacesIn(tuple.At(i).Type(), set)
			}
		}
	}
}

// markImplementations marks as used every method through which one of
// pkg's named types, or a pointer to one, implements an interface of
// ifaces.
func markImplementations(pkg *types.Package, ifaces map[types.Type]bool, used map[types.Object]bool) {
	if pkg == nil {
		return
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) || named.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(named)
		mset := types.NewMethodSet(ptr)
		for it := range ifaces {
			iface := it.Underlying().(*types.Interface)
			if !types.Implements(ptr, iface) {
				continue
			}
			for i := range iface.NumMethods() {
				m := iface.Method(i)
				if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
					used[sel.Obj()] = true
				}
			}
		}
	}
}

// recvType names a method's receiver type without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
