package zsim

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// deadAPIAllowed lists exported functions, methods and struct fields under
// internal/ that no non-test file uses, kept on purpose. Keys are
// "pkg.Func", "pkg.Type.Method" or "pkg.Type.Field".
var deadAPIAllowed = map[string]string{
	"cache.Cache.StateOf":     "MESI probe the coherence tests assert line states with",
	"event.Event.NumChildren": "lets the event and chain-build tests check declared edges",
	"isa.Opcode.HasLoad":      "opcode property the isa tests check the decoder against",
	"isa.Opcode.HasStore":     "opcode property the isa tests check the decoder against",
	"network.RouteAppend":     "materializes a whole route, which the topology tests compare",
}

// TestNoDeadExportedAPI fails when an exported function, method, interface
// method or struct field declared under internal/ has no use in the module
// outside tests, and when an allowlisted name has gained one.
func TestNoDeadExportedAPI(t *testing.T) {
	dead, err := deadExportedAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	var report []string
	for key, pos := range dead {
		if _, ok := deadAPIAllowed[key]; !ok {
			report = append(report, key+" ("+pos.String()+")")
		}
	}
	for key := range deadAPIAllowed {
		if _, ok := dead[key]; !ok {
			t.Errorf("%s is allowlisted but now used outside tests (or gone); drop it from deadAPIAllowed", key)
		}
	}
	sort.Strings(report)
	if len(report) > 0 {
		t.Fatalf("exported API with no non-test use (delete it, or allowlist it with a reason):\n  %s",
			strings.Join(report, "\n  "))
	}
}

// TestDeadAPIGateFixture runs the gate on a small module whose only dead
// declaration is A.Size: B.Size shares its name but is called, Impl.Len is
// called only through an interface, and Impl.Reset only through an anonymous
// interface{ Reset() }.
func TestDeadAPIGateFixture(t *testing.T) {
	dead, err := deadExportedAPI(filepath.Join("testdata", "deadapi"))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for key := range dead {
		keys = append(keys, key)
	}
	if want := []string{"p.A.Size"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("dead = %v, want %v", keys, want)
	}
}

// deadExportedAPI type-checks the Go module rooted at root and returns the
// exported functions, methods, interface methods and struct fields declared
// in its non-test files under internal/ that nothing uses, keyed as
// deadAPIAllowed is. Uses are resolved to objects, not names, and count only
// in non-test files, except under bench/, where test files count too. A
// declaration's own body does not use it. A call through an interface method
// uses the method of every module type that implements the interface
// (promoted methods included; for an interface literal a type assertion
// produced, only the types that also implement the asserted operand's type),
// and every method of an interface declared outside the module (String,
// Error, ServeHTTP, heap.Interface, ...) counts as called. Fields of structs
// with json tags are exempt, and so are embedded fields.
func deadExportedAPI(root string) (map[string]token.Position, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	fset := token.NewFileSet()
	l := &modLoader{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		modPath: modPath,
		files:   map[string][]*ast.File{},
		pkgs:    map[string]*types.Package{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	inInternal := map[*ast.File]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if n := d.Name(); rel != "." && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		bench := rel == "bench" || strings.HasPrefix(rel, "bench/")
		if !strings.HasSuffix(path, ".go") || (strings.HasSuffix(path, "_test.go") && !bench) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imp := modPath
		if dir := filepath.ToSlash(filepath.Dir(rel)); dir != "." {
			imp += "/" + dir
		}
		l.files[imp] = append(l.files[imp], f)
		inInternal[f] = strings.HasPrefix(rel, "internal/")
		return nil
	})
	if err != nil {
		return nil, err
	}
	for imp := range l.files {
		if _, err := l.Import(imp); err != nil {
			return nil, err
		}
	}

	used := map[types.Object]bool{}
	calledIfaces := map[*types.Interface]bool{}
	assertedFrom := map[*types.Interface][]types.Type{}
	decls := map[types.Object]string{}
	for _, files := range l.files {
		for _, f := range files {
			l.collectUses(f, used, calledIfaces, assertedFrom)
			if inInternal[f] {
				l.collectDecls(f, decls)
			}
		}
	}
	// Interfaces declared outside the module are called from outside it.
	external := func(it *types.Interface) {
		calledIfaces[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			used[it.Method(i)] = true
		}
	}
	external(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, p := range l.pkgs {
		for _, dep := range p.Imports() {
			if dep.Path() == modPath || strings.HasPrefix(dep.Path(), modPath+"/") {
				continue
			}
			for _, name := range dep.Scope().Names() {
				if o, ok := dep.Scope().Lookup(name).(*types.TypeName); ok && o.Exported() {
					if it, ok := o.Type().Underlying().(*types.Interface); ok {
						external(it)
					}
				}
			}
		}
	}
	for _, p := range l.pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			implements := func(it *types.Interface) bool {
				return types.Implements(named, it) || types.Implements(ptr, it)
			}
			for it := range calledIfaces {
				if !implements(it) {
					continue
				}
				if from, ok := assertedFrom[it]; ok && !slices.ContainsFunc(from, func(t types.Type) bool {
					return implements(t.Underlying().(*types.Interface))
				}) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if !used[m] {
						continue
					}
					if obj, _, _ := types.LookupFieldOrMethod(named, true, m.Pkg(), m.Name()); obj != nil {
						used[obj] = true
					}
				}
			}
		}
	}
	dead := map[string]token.Position{}
	for obj, key := range decls {
		if !used[obj] {
			dead[key] = fset.Position(obj.Pos())
		}
	}
	return dead, nil
}

// modLoader type-checks the module's packages from source on first import
// and hands every other import to the stdlib source importer.
type modLoader struct {
	fset    *token.FileSet
	std     types.Importer
	modPath string
	files   map[string][]*ast.File
	pkgs    map[string]*types.Package
	info    *types.Info
}

func (l *modLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	files, ok := l.files[path]
	if !ok {
		if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
			return nil, fmt.Errorf("module package %s not found", path)
		}
		return l.std.Import(path)
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// collectUses marks every object f uses outside the object's own
// declaration, every field an unkeyed struct literal sets, and every
// interface whose methods f calls. An interface literal that is the target of
// a type assertion x.(interface{ ... }) can only hold what x held, so it
// records the type of x in assertedFrom.
func (l *modLoader) collectUses(f *ast.File, used map[types.Object]bool, calledIfaces map[*types.Interface]bool, assertedFrom map[*types.Interface][]types.Type) {
	var self types.Object
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			self = l.info.Defs[x.Name]
		case *ast.GenDecl:
			self = nil
		case *ast.Ident:
			obj := l.info.Uses[x]
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
				if recv := o.Signature().Recv(); recv != nil {
					if it, ok := recv.Type().Underlying().(*types.Interface); ok {
						calledIfaces[it] = true
					}
				}
			case *types.Var:
				obj = o.Origin()
			}
			if obj != nil && obj != self {
				used[obj] = true
			}
		case *ast.TypeAssertExpr:
			if _, lit := x.Type.(*ast.InterfaceType); lit {
				it := l.info.Types[x.Type].Type.(*types.Interface)
				assertedFrom[it] = append(assertedFrom[it], l.info.Types[x.X].Type)
			}
		case *ast.CompositeLit:
			st, ok := l.info.Types[x].Type.Underlying().(*types.Struct)
			if !ok || len(x.Elts) == 0 {
				break
			}
			if _, keyed := x.Elts[0].(*ast.KeyValueExpr); !keyed {
				for i := 0; i < st.NumFields(); i++ {
					used[st.Field(i)] = true
				}
			}
		}
		return true
	})
}

// collectDecls records f's exported functions and methods, and the exported
// interface methods and non-embedded fields of its named types (structs with
// json tags excepted).
func (l *modLoader) collectDecls(f *ast.File, decls map[types.Object]string) {
	pkg := f.Name.Name
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if !x.Name.IsExported() {
				break
			}
			key := pkg + "." + x.Name.Name
			if x.Recv != nil {
				key = pkg + "." + recvTypeName(x.Recv.List[0].Type) + "." + x.Name.Name
			}
			decls[l.info.Defs[x.Name]] = key
		case *ast.TypeSpec:
			prefix := pkg + "." + x.Name.Name + "."
			ast.Inspect(x.Type, func(n ast.Node) bool {
				var fields *ast.FieldList
				switch y := n.(type) {
				case *ast.InterfaceType:
					fields = y.Methods
				case *ast.StructType:
					fields = y.Fields
					for _, fld := range fields.List {
						if fld.Tag != nil && strings.Contains(fld.Tag.Value, `json:"`) {
							return true
						}
					}
				default:
					return true
				}
				for _, fld := range fields.List {
					for _, name := range fld.Names {
						if name.IsExported() {
							decls[l.info.Defs[name]] = prefix + name.Name
						}
					}
				}
				return true
			})
			return false
		}
		return true
	})
}

// recvTypeName returns the receiver's type name, without pointer or type
// parameters.
func recvTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(x.X)
	case *ast.IndexExpr:
		return recvTypeName(x.X)
	case *ast.IndexListExpr:
		return recvTypeName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
