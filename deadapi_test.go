package zsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAPIAllowed lists exported functions and methods under internal/ that
// no non-test file names, kept on purpose. Keys are "pkg.Func" or
// "pkg.Type.Method".
var deadAPIAllowed = map[string]string{
	"baseline.seqPQ.Less":             "heap.Interface method, called by container/heap",
	"cache.Cache.NumLines":            "geometry accessor the cache tests check sizing with",
	"cache.Cache.StateOf":             "MESI probe the coherence tests assert line states with",
	"cache.MemRouter.NumControllers":  "geometry accessor the cache tests check controller wiring with",
	"event.Event.NumChildren":         "lets the event and chain-build tests check declared edges",
	"event.Event.Seq":                 "lets the weave-order tests check creation order",
	"harness.Table.Cell":              "how tests read an experiment table by row and column name",
	"isa.BasicBlock.EndsInBranch":     "block-shape accessor the isa tests check generated blocks with",
	"isa.BasicBlock.NumInstrs":        "block-shape accessor the isa tests check generated blocks with",
	"isa.Decoder.HitCount":            "lets the isa tests check the decode cache is hit",
	"isa.Decoder.MissCount":           "lets the isa tests check each static block decodes once",
	"isa.Opcode.HasLoad":              "opcode property the isa tests check the decoder against",
	"isa.Opcode.HasStore":             "opcode property the isa tests check the decoder against",
	"memctrl.DDR3.AverageWaitCPU":     "lets the memctrl tests check queuing grows with load",
	"memctrl.MD1.Utilization":         "lets the memctrl tests check the M/D/1 arrival window",
	"network.Mesh.Width":              "geometry accessor the network tests check mesh sizing with",
	"network.RouteAppend":             "materializes a whole route, which the topology tests compare",
	"noc.Fabric.NumRouters":           "lets the noc tests check one router per topology node",
	"serve.Server.ServeHTTP":          "http.Handler method, called by net/http",
	"trace.Thread.SpinBlock":          "lets the trace tests check lock-word addressing",
	"trace.Workload.NumStaticBlocks":  "lets the trace tests check static-block generation",
	"trace.Workload.SharedBase":       "lets the trace tests check shared-region addressing",
	"virt.Scheduler.NumRunnable":      "lets the virt and golden-schedule tests check run-queue accounting",
	"virt.Scheduler.ScheduleInterval": "one-call scheduling round the virt and failure tests drive directly",
}

// TestNoDeadExportedAPI fails when an exported function or method declared
// under internal/ is not referenced, by identifier, in any non-test Go file
// of the module (bench/, cmd/ and examples/ included) other than its own
// declaration and its own body. A method name any other declaration shares
// counts as referenced when that name is used anywhere, so the check only
// catches names nothing uses; interface method lists count as uses.
func TestNoDeadExportedAPI(t *testing.T) {
	type decl struct {
		key  string
		name string
		pos  token.Position
	}
	fset := token.NewFileSet()
	uses := map[string]int{}
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
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
		declIdents := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declIdents[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				key = f.Name.Name + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Name.Name, fset.Position(fd.Pos())})
		}
		// A function naming itself in its own body (recursion, or a method
		// delegating to a same-named one) does not count as a use.
		var self string
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				self = x.Name.Name
			case *ast.Ident:
				if !declIdents[x] && x.Name != self {
					uses[x.Name]++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		_, allowed := deadAPIAllowed[d.key]
		switch {
		case uses[d.name] == 0 && !allowed:
			dead = append(dead, d.key+" ("+d.pos.String()+")")
		case uses[d.name] > 0 && allowed:
			t.Errorf("%s is allowlisted but now referenced; drop it from deadAPIAllowed", d.key)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Fatalf("exported API with no non-test reference (delete it, or allowlist it with a reason):\n  %s",
			strings.Join(dead, "\n  "))
	}
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
