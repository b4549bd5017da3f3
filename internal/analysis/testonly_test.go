package analysis

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowlist names the exported identifiers under internal/
// that no non-test file references, each with a one-line reason it
// stays exported. TestNoTestOnlyExports keeps it exact.
const testOnlyAllowlist = "testdata/testonly_exports.txt"

// TestNoTestOnlyExports keeps API that only tests use from growing
// back. It parses every non-test Go file of the repository (internal/,
// cmd/ including the cmd/perfbench module, examples/ and the root
// package), lists each exported identifier declared at top level in a
// non-test file under internal/ that no non-test file references, and
// compares that list with the committed allowlist. It fails on a new
// test-only export, and on an allowlist entry that gained a caller or
// no longer exists.
//
// A package-level identifier counts as referenced when another package
// selects it through its import (core.RunFleet) or when a file of its
// own package names it. A method counts as referenced when any
// non-test file selects a member of that name on anything: matching by
// name can only over-count callers, so the list never holds a method
// that has one.
func TestNoTestOnlyExports(t *testing.T) {
	root := filepath.Join("..", "..")
	got := testOnlyExports(t, root)

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
		t.Errorf("%s is exported but only tests use it: delete it, unexport it, or add it to %s with a reason", id, testOnlyAllowlist)
	}
	for _, id := range stale {
		t.Errorf("%s is in %s but is gone or has a non-test caller: drop the entry", id, testOnlyAllowlist)
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

// goFile is one parsed non-test file and the package directory it
// belongs to, relative to the repository root.
type goFile struct {
	dir  string
	file *ast.File
}

// testOnlyExports returns the sorted test-only exports under root's
// internal/ directory, named "pkg.Name" for a package-level identifier
// and "pkg.Type.Method" for a method, pkg being the directory below
// internal/.
func testOnlyExports(t *testing.T, root string) []string {
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		files = append(files, goFile{dir: filepath.ToSlash(rel), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// References: package-level names by "dir.Name", methods and
	// fields by bare name.
	pkgRefs := make(map[string]bool)
	memberRefs := make(map[string]bool)
	for _, gf := range files {
		imports := make(map[string]string) // local name -> dir
		for _, spec := range gf.file.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			dir, ok := strings.CutPrefix(path, ModulePath+"/")
			if !ok {
				continue
			}
			name := dir[strings.LastIndex(dir, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = dir
		}
		declared := declIdents(gf.file)
		ast.Inspect(gf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						pkgRefs[dir+"."+n.Sel.Name] = true
						return false
					}
				}
				memberRefs[n.Sel.Name] = true
			case *ast.Ident:
				if !declared[n] {
					pkgRefs[gf.dir+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var out []string
	for _, gf := range files {
		pkg, ok := strings.CutPrefix(gf.dir, "internal/")
		if !ok {
			continue
		}
		for _, d := range gf.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					if !pkgRefs[gf.dir+"."+d.Name.Name] {
						out = append(out, pkg+"."+d.Name.Name)
					}
				} else if recv := recvType(d.Recv.List[0].Type); ast.IsExported(recv) && !memberRefs[d.Name.Name] {
					// A method of an unexported type is no API: only
					// an interface reaches it.
					out = append(out, pkg+"."+recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, name := range names {
						if name.IsExported() && !pkgRefs[gf.dir+"."+name.Name] {
							out = append(out, pkg+"."+name.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// declIdents returns the identifiers that declare a top-level name in
// f, so a declaration does not count as a reference to itself.
func declIdents(f *ast.File) map[*ast.Ident]bool {
	decl := make(map[*ast.Ident]bool)
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			decl[d.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					decl[s.Name] = true
				case *ast.ValueSpec:
					for _, name := range s.Names {
						decl[name] = true
					}
				}
			}
		}
	}
	return decl
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
