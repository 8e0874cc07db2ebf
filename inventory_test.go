package emerald

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The inventories below pin a bug class to a short list of reviewed
// sites in the product code, and fail with file:line the way
// TestBackpressureContract does.

// TestWakeHookSites: a parked component sleeps through any input whose
// delivery path forgot to wake it, so every Wake/Arm call site is a
// place a bug can hide. There is one wheel, the SoC's phase-1 wheel:
// internal/par defines it and only internal/soc builds or hooks it (three
// Wake sites, two Arm sites). A second wheel, or a hook in another
// package, has to be argued for in DESIGN.md "Time advancement".
func TestWakeHookSites(t *testing.T) {
	fset := token.NewFileSet()
	for _, sf := range productFiles(t, fset, "internal", "cmd", ".") {
		if strings.HasPrefix(sf.dir+"/", "internal/soc/") || strings.HasPrefix(sf.dir+"/", "internal/par/") {
			continue
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if name := sel.Sel.Name; name == "Wake" || name == "Arm" || name == "NewWheel" && isIdent(sel.X, "par") {
				t.Errorf("%s: event-wheel call %s outside internal/soc", fset.Position(call.Pos()), name)
			}
			return true
		})
	}
}

// TestWarpWakeWriters is the same bug class one level down: a warp
// outside simt.Core's awake set is invisible to the schedulers and to
// NextWake, so every write to that set is a place a wake can go
// missing. The set is written by five helpers in core.go (wake, sleep,
// sleepOnLSU, wakeLSU, and forget through readySets) and sliced up in
// NewCore; the guard's checkReadySet reads its words; everything else
// only asks has() or any(). The scheduling state lives there and nowhere
// else: Warp carries no parked or lastIssued field for a second
// scheduler to grow back on.
func TestWarpWakeWriters(t *testing.T) {
	writers := names("NewCore", "wake", "sleep", "sleepOnLSU", "wakeLSU", "readySets", "checkReadySet")
	listers := names("readySets", "forget", "checkReadySet")
	fset := token.NewFileSet()
	for _, sf := range productFiles(t, fset, "internal/simt") {
		for _, decl := range sf.f.Decls {
			fn := ""
			if d, ok := decl.(*ast.FuncDecl); ok {
				fn = d.Name.Name
			}
			queries := map[ast.Node]bool{} // x.awake in x.awake.has(...) or x.awake.any()
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "has" || sel.Sel.Name == "any") && method(sel.X) == "awake" {
						queries[sel.X] = true
					}
					if callee(n) == "readySets" && !listers[fn] {
						t.Errorf("%s: readySets() called from %s", fset.Position(n.Pos()), fn)
					}
				case *ast.SelectorExpr:
					if n.Sel.Name == "awake" && !queries[n] && !writers[fn] {
						t.Errorf("%s: the awake set is written outside its helpers (in %q)", fset.Position(n.Pos()), fn)
					}
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "Warp" {
						for _, f := range st.Fields.List {
							for _, id := range f.Names {
								if id.Name == "parked" || id.Name == "lastIssued" {
									t.Errorf("%s: simt.Warp carries scheduling state again (%s)", fset.Position(id.Pos()), id.Name)
								}
							}
						}
					}
				}
				return true
			})
		}
	}
}

// TestWaitMemoWriters is the same bug class once more: simt.Core.Tick
// acts on the memoised wait (waitUntil) without asking NextWake, so
// every write to it is a place a stale wait can come from, and every
// input from outside must end the wait. It is set only by tick (at the
// gate, and after a full tick that leaves the core waiting) and
// auditWait (which keeps it standing across an audited tick);
// AttachTracer and AttachGuard clear it; Launch wakes the warp it
// places, and waiting holds only while no warp is awake. The other
// outside input, a fill's completion, is asked of the L1s by waiting
// itself.
func TestWaitMemoWriters(t *testing.T) {
	writers := names("tick", "auditWait", "AttachTracer", "AttachGuard")
	wrote, woke := map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, sf := range productFiles(t, fset, "internal/simt") {
		for _, decl := range sf.f.Decls {
			fn := ""
			if d, ok := decl.(*ast.FuncDecl); ok {
				fn = d.Name.Name
			}
			write := func(e ast.Expr) {
				if sel, ok := e.(*ast.SelectorExpr); ok && sel.Sel.Name == "waitUntil" {
					if !writers[fn] {
						t.Errorf("%s: the memoised wait is written outside its writers (in %q)", fset.Position(e.Pos()), fn)
					}
					wrote[fn] = true
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				case *ast.CallExpr:
					if callee(n) == "wake" {
						woke[fn] = true
					}
				}
				return true
			})
		}
	}
	for _, fn := range []string{"AttachTracer", "AttachGuard"} {
		if !wrote[fn] {
			t.Errorf("simt.Core.%s does not clear the memoised wait", fn)
		}
	}
	if !woke["Launch"] {
		t.Error("simt.Core.Launch does not wake the warp it places")
	}
}

// TestRequestAllocationSites: a mem.Request is allocated in exactly one
// place, mem.Pool.New, and goes back to the pool of the component that
// took it (DESIGN.md "Memory request path"). A literal or a new()
// anywhere else in product code is a per-request allocation on the path
// between the LSU and DRAM growing back unreviewed. bench/ and tests
// build their own requests; pools never adopt those.
func TestRequestAllocationSites(t *testing.T) {
	checkAllocationSites(t, map[string][]string{"mem.Request": {"mem.Pool.New"}})
}

// TestDrawRecordAllocationSites is the same rule for the records the
// timed draw path takes per tile, per warp or per primitive: each comes
// from the component that owns it and goes back to it (DESIGN.md "Draw
// path storage"), so each is allocated at its one take site. fsEnv and
// vsEnv live inside their fsLaunch and vertexBatch and have none;
// raster.Setup is the allocating wrapper bench/ and tests call.
func TestDrawRecordAllocationSites(t *testing.T) {
	checkAllocationSites(t, map[string][]string{
		"gpu.tileTask":    {"gpu.cluster.newTask"},
		"gpu.fsLaunch":    {"gpu.cluster.newLaunch"},
		"gpu.fsEnv":       nil,
		"gpu.vsEnv":       nil,
		"gpu.vertexBatch": {"gpu.buildBatches"},
		"gpu.clusterPrim": {"gpu.primSlab.take"},
		"raster.SetupTri": {"gpu.triSlab.next", "raster.Setup"},
		"gfx.TCTileOut":   {"gfx.TCUnit.flush"},
	})
}

// checkAllocationSites fails on every &T{...} or new(T) in product code
// of a type listed in takeSites (as package.Type) outside the functions
// listed for it (as package.Func or package.Recv.Method), and on a listed
// function that does not allocate its type exactly once.
func checkAllocationSites(t *testing.T, takeSites map[string][]string) {
	t.Helper()
	found := map[string]int{} // "function type" -> allocations
	fset := token.NewFileSet()
	for _, sf := range productFiles(t, fset, "internal", "cmd", "examples", ".") {
		pkg := path.Base(sf.dir)
		for _, decl := range sf.f.Decls {
			fn := pkg + "." + declName(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				var typ ast.Expr
				switch n := n.(type) {
				case *ast.UnaryExpr:
					if lit, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND {
						typ = lit.Type
					}
				case *ast.CallExpr:
					if isIdent(n.Fun, "new") && len(n.Args) == 1 {
						typ = n.Args[0]
					}
				}
				rec := qualified(typ, pkg)
				sites, listed := takeSites[rec]
				switch {
				case !listed:
				case slices.Contains(sites, fn):
					found[fn+" "+rec]++
				default:
					t.Errorf("%s: %s allocated outside %v", fset.Position(n.Pos()), rec, sites)
				}
				return true
			})
		}
	}
	for rec, sites := range takeSites {
		for _, fn := range sites {
			if n := found[fn+" "+rec]; n != 1 {
				t.Errorf("%s allocates %s at %d sites, want 1", fn, rec, n)
			}
		}
	}
}

// TestNoMapFieldsOnRequestPath: the per-cycle structures of the memory
// path are index-addressed, so no struct in these packages (or the TC
// unit) holds a Go map, directly or behind pointers and slices.
func TestNoMapFieldsOnRequestPath(t *testing.T) {
	fset := token.NewFileSet()
	for _, sf := range productFiles(t, fset, "internal/cache", "internal/interconnect", "internal/dram", "internal/mem", "internal/gfx/tc.go") {
		ast.Inspect(sf.f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, f := range st.Fields.List {
					if mapTyped(f.Type) {
						t.Errorf("%s: map-typed field on the memory request path", fset.Position(f.Pos()))
					}
				}
			}
			return true
		})
	}
}

// TestServicePathBuildsNoScene: submitting, queueing, placing and
// serving a job costs the same for every scene, so the service plane
// names and validates workloads through geom's catalogue lookups and
// never builds one. Its executor reaches scenes only through exp.
func TestServicePathBuildsNoScene(t *testing.T) {
	builders := names("SoCModel", "DFSLWorkload", "AllSoCModels", "AllDFSLWorkloads")
	fset := token.NewFileSet()
	for _, sf := range productFiles(t, fset, "internal/sweep", "internal/fleet", "internal/daemon", "cmd/emeraldd", "cmd/sweep") {
		ast.Inspect(sf.f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && isIdent(sel.X, "geom") && builders[sel.Sel.Name] {
				t.Errorf("%s: geom.%s builds a scene on the service path", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}

// srcFile is one parsed product file.
type srcFile struct {
	dir string // slash-separated, relative to the repository root
	f   *ast.File
}

// productFiles parses the non-test .go files under each root: a
// directory (walked recursively), a single file, or "." for the root
// package's own files.
func productFiles(t *testing.T, fset *token.FileSet, roots ...string) []srcFile {
	var out []srcFile
	add := func(path string) error {
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		out = append(out, srcFile{dir: filepath.ToSlash(filepath.Dir(path)), f: f})
		return nil
	}
	for _, root := range roots {
		var err error
		if root == "." {
			var paths []string
			paths, err = filepath.Glob("*.go")
			for _, p := range paths {
				if err == nil {
					err = add(p)
				}
			}
		} else {
			err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				return add(path)
			})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no product files under %v; run from the repository root", roots)
	}
	return out
}

func names(ns ...string) map[string]bool {
	m := make(map[string]bool, len(ns))
	for _, n := range ns {
		m[n] = true
	}
	return m
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// callee names the function or method a call invokes, "" if neither.
func callee(c *ast.CallExpr) string {
	if id, ok := c.Fun.(*ast.Ident); ok {
		return id.Name
	}
	return method(c.Fun)
}

// declName names a declaration as Func or Recv.Method, "" if neither.
func declName(decl ast.Decl) string {
	d, ok := decl.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if d.Recv != nil && len(d.Recv.List) == 1 {
		return receiver(d.Recv.List[0].Type) + "." + d.Name.Name
	}
	return d.Name.Name
}

// qualified names a type expression as package.Type, an unqualified
// name taking the package it appears in; "" for anything else.
func qualified(e ast.Expr, pkg string) string {
	switch x := e.(type) {
	case *ast.Ident:
		return pkg + "." + x.Name
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return id.Name + "." + x.Sel.Name
		}
	}
	return ""
}

// receiver names a method's receiver type, pointer or not.
func receiver(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// mapTyped reports whether a field type is a map, directly or behind
// pointers, slices and arrays.
func mapTyped(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ArrayType:
			e = x.Elt
		case *ast.MapType:
			return true
		default:
			return false
		}
	}
}
