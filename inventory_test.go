package emerald

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The inventories below pin a bug class to a short list of reviewed
// sites in the product code, and fail with file:line the way
// TestBackpressureContract does.

// TestWarpWakeWriters: a warp outside simt.Core's awake set is invisible to the schedulers and to
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
// acts on the memoised wait (waitUntil) and on the nap (napUntil)
// without asking NextWake, so every write to them is a place a stale
// wait can come from, and every input from outside must end the wait.
// waitUntil is set only by tick (at the gate, and after a full tick that
// leaves the core waiting with every L1 quiet) and auditWait (which
// keeps it standing across an audited tick); AttachTracer and
// AttachGuard clear it. A nap is started only by ChargeSkipped, the
// tick of a waiting core and the charge for a jumped wait, whose other
// caller is the GPU's ChargeSkipped (the GPU's par.Part charge, which
// gpu.MemorySide hands the run loop), and ended by tick, Launch,
// AttachTracer and AttachGuard. Launch wakes the warp it places, and
// waiting holds only while no warp is awake. The other input from
// outside, a fill's completion, reaches the core as its fill counter: NewCore hands each L1 a pointer to it (cache.CountFills),
// and the cache's RequestDone is the one writer through that pointer.
// gpu.GPU memoises its whole wait the same way: waitUntil is set only at
// the end of Tick and ended by SubmitDraw, LaunchKernel, AttachTracer
// and AttachGuard (the inputs that reach the GPU between ticks, and the
// tracer and guard, under which a core's wait is not charged), and
// the third input, an L2 fill completing, reaches it as the fill
// counter gpu.New hands the L2. cpu.Core memoises its wake once more
// the same way: waitUntil is written only by Park, which the core's
// par.Part calls after each tick, and the one input from outside, an L2 fill
// completing, reaches it as the fill counter cpu.NewCore hands the L2.
// The display keeps no memo but reads its input the same way: its
// completion count moves only in RequestDone (it is its reads'
// mem.DoneWatcher), and only Tick, which retires them, catches up.
// simt's and cpu's NewCore and gpu.New are CountFills' only callers.
// Which cores the memo charges is recorded where the memo is set: Tick
// and clusterWake write the list. The memo lets a raster stage whose
// tile is held behind a full TC ready queue wait, so the hold is set
// and cleared only in tickRaster, which re-tests Hi-Z before re-offering.
func TestWaitMemoWriters(t *testing.T) {
	fset := token.NewFileSet()
	simt, cache := productFiles(t, fset, "internal/simt"), productFiles(t, fset, "internal/cache")
	gpu, cpu := productFiles(t, fset, "internal/gpu"), productFiles(t, fset, "internal/cpu")
	soc := productFiles(t, fset, "internal/soc")
	woke := map[string]bool{}
	for _, sf := range simt {
		for _, decl := range sf.f.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && callee(call) == "wake" {
					woke[declName(decl)] = true
				}
				return true
			})
		}
	}
	for _, pin := range []struct {
		what, field string
		deref       bool // written through the pointer the field holds
		files       []srcFile
		writers     []string
	}{
		{"the memoised wait", "waitUntil", false, simt, []string{"tick", "auditWait", "AttachTracer", "AttachGuard"}},
		{"the nap deadline", "napUntil", false, simt, []string{"tick", "ChargeSkipped", "Launch", "AttachTracer", "AttachGuard"}},
		{"the fill counter", "fills", false, simt, []string{"NewCore"}},
		{"the fill counter's wiring", "fillCount", false, cache, []string{"CountFills"}},
		{"the fill counter, through its wiring", "fillCount", true, cache, []string{"RequestDone"}},
		{"the GPU's memoised wait", "waitUntil", false, gpu, []string{"Tick", "SubmitDraw", "LaunchKernel", "AttachTracer", "AttachGuard"}},
		{"the GPU's fill counter", "fills", false, gpu, []string{"New"}},
		{"the GPU's charging cores", "charging", false, gpu, []string{"Tick", "clusterWake"}},
		{"the raster's held tile", "held", false, gpu, []string{"tickRaster"}},
		{"the CPU core's memoised wake", "waitUntil", false, cpu, []string{"Park"}},
		{"the CPU core's fill counter", "fills", false, cpu, []string{"NewCore"}},
		{"the display's completion count", "done", false, soc, []string{"RequestDone"}},
		{"the display's retired count", "seen", false, soc, []string{"Tick"}},
	} {
		want, wrote := names(pin.writers...), map[string]bool{}
		for _, sf := range pin.files {
			for _, decl := range sf.f.Decls {
				fn := ""
				if d, ok := decl.(*ast.FuncDecl); ok {
					fn = d.Name.Name
				}
				write := func(e ast.Expr) {
					if star, ok := e.(*ast.StarExpr); ok && pin.deref {
						e = star.X
					} else if pin.deref {
						return
					}
					if sel, ok := e.(*ast.SelectorExpr); ok && sel.Sel.Name == pin.field {
						if !want[fn] {
							t.Errorf("%s: %s is written outside its writers (in %q)", fset.Position(e.Pos()), pin.what, fn)
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
					}
					return true
				})
			}
		}
		for _, fn := range pin.writers {
			if !wrote[fn] {
				t.Errorf("%s no longer writes %s", fn, pin.what)
			}
		}
	}
	if !woke["Core.Launch"] {
		t.Error("simt.Core.Launch does not wake the warp it places")
	}
	chargers := names("internal/simt Core.step", "internal/gpu GPU.ChargeSkipped", "internal/gpu MemorySide")
	for _, sf := range productFiles(t, fset, "internal", "cmd", "examples", ".") {
		for _, decl := range sf.f.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				wired := (sf.dir == "internal/simt" || sf.dir == "internal/cpu") && declName(decl) == "NewCore" ||
					sf.dir == "internal/gpu" && declName(decl) == "New"
				if call, ok := n.(*ast.CallExpr); ok && callee(call) == "CountFills" && !wired {
					t.Errorf("%s: cache.CountFills called outside simt.NewCore, cpu.NewCore and gpu.New", fset.Position(call.Pos()))
				}
				// A call or a method value: the GPU's is handed to the
				// loop as its part's charge.
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "ChargeSkipped" && !chargers[sf.dir+" "+declName(decl)] {
					t.Errorf("%s: ChargeSkipped used in %s %s: a core's is its own waiting tick and the GPU's charge, the GPU's its part's charge in the run loop",
						fset.Position(sel.Pos()), sf.dir, declName(decl))
				}
				return true
			})
		}
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
// vsEnv live inside their fsLaunch and vertexBatch and have none, nor
// has vertexBatch: its records are the GPU's ring, made once, and the
// functional executor's one; raster.Setup is the allocating wrapper
// bench/ and tests call.
func TestDrawRecordAllocationSites(t *testing.T) {
	checkAllocationSites(t, map[string][]string{
		"gpu.tileTask":    {"gpu.cluster.newTask"},
		"gpu.fsLaunch":    {"gpu.cluster.newLaunch"},
		"gpu.fsEnv":       nil,
		"gpu.vsEnv":       nil,
		"gpu.vertexBatch": nil,
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

// surfaceAllowed names the funcs and methods under internal/ that keep
// no caller in non-test code, each with the reason it stays. A key
// "pkg.*" covers every func of that package.
var surfaceAllowed = map[string]string{
	"sweep.Spec.String":            "fmt.Stringer: messages print a spec with %s",
	"shader.Kind.String":           "fmt.Stringer: Program.String prints the kind with %s",
	"guard.Violation.String":       "fmt.Stringer: Checker.Err prints the first violation with %s",
	"guard.Checker.Violations":     "the guard's test oracle: every package's guard tests read which probe failed and why",
	"dram.Mapping.Encode":          "test oracle: the inverse the Decode round-trip property checks",
	"exp.RunCaseStudyI":            "test oracle: bench's TestCellMatchesExp and the sweep tests check a Case Study I system against it",
	"telemetry.ValidateExposition": "test oracle: the telemetry, sweep and fleet tests check every /metrics body against the exposition format",
	"chaos.*":                      "the fault-injection harness behind TestChaosSoak: only chaos's own tests drive its Engine and Member controls",
}

// TestExportedSurface: every func or method declared in a non-test file
// under internal/ has a use in non-test code somewhere in the module
// (bench/, cmd/ and examples/ count), or a line in surfaceAllowed; an
// unexported one needs a use too, since the toolchain never reports
// one that only tests call. Uses are matched through go/types, by
// object, so a method gets no credit from another type's method of the
// same name (ring.Nodes, URL.Path, Runner.Diag). A method reached only
// through an interface counts when the interface's method is called
// and some type of the module implements it with this method, its own
// or promoted from an embedded field. The same test holds emeraldd to
// sixteen flags.
func TestExportedSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	fset := token.NewFileSet()
	l := &srcLoader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	audited, all := modulePackages(t)
	for _, path := range all {
		if _, err := l.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	used := map[*types.Func]bool{}
	type ifaceMethod struct {
		iface *types.Interface
		name  string
	}
	called := map[ifaceMethod]bool{} // interface methods called somewhere
	for _, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		used[fn.Origin()] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			called[ifaceMethod{recv.Type().Underlying().(*types.Interface), fn.Name()}] = true
		}
	}
	// Credit the method each module type answers a called interface
	// method with, through its method set: a method promoted from an
	// embedded field counts for the type it is promoted into.
	for _, path := range all {
		scope := l.pkgs[path].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for im := range called {
				if !types.Implements(ptr, im.iface) {
					continue
				}
				if fn, ok := types.NewMethodSet(ptr).Lookup(tn.Pkg(), im.name).Obj().(*types.Func); ok {
					used[fn.Origin()] = true
				}
			}
		}
	}
	unused := maps.Clone(surfaceAllowed) // allowlist lines nothing needs
	for _, path := range audited {
		pkg := l.pkgs[path].Name()
		for _, f := range l.files[path] {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Name.Name == "init" || d.Name.Name == "_" || used[l.info.Defs[d.Name].(*types.Func)] {
					continue
				}
				name := pkg + "." + declName(d)
				switch {
				case surfaceAllowed[name] != "":
					delete(unused, name)
				case surfaceAllowed[pkg+".*"] != "":
					delete(unused, pkg+".*")
				default:
					t.Errorf("%s: %s has no caller outside tests; delete it or allowlist it with a reason",
						fset.Position(d.Pos()), name)
				}
			}
		}
	}
	for name := range unused {
		t.Errorf("surfaceAllowed[%q] excuses nothing: its func is gone or has a caller now", name)
	}

	flags := 0
	for _, f := range l.files["emerald/cmd/emeraldd"] {
		ast.Inspect(f, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if sel, ok := c.Fun.(*ast.SelectorExpr); ok && isIdent(sel.X, "flag") && flagRegistrars[sel.Sel.Name] {
					flags++
				}
			}
			return true
		})
	}
	if flags > 16 {
		t.Errorf("cmd/emeraldd registers %d flags, want at most 16: a knob with one value in use is a constant", flags)
	}
}

var flagRegistrars = names("Bool", "BoolVar", "BoolFunc", "Duration", "DurationVar", "Float64", "Float64Var",
	"Func", "Int", "IntVar", "Int64", "Int64Var", "String", "StringVar", "TextVar",
	"Uint", "UintVar", "Uint64", "Uint64Var", "Var")

// modulePackages lists the module's packages with non-test Go files:
// those under internal/, which TestExportedSurface audits, and all.
func modulePackages(t *testing.T) (audited, all []string) {
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(dir, 0); err != nil {
			return nil // no Go files here
		}
		path := importPath(dir)
		all = append(all, path)
		if strings.HasPrefix(path, "emerald/internal/") {
			audited = append(audited, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return audited, all
}

func importPath(dir string) string {
	if dir == "." {
		return "emerald"
	}
	return "emerald/" + filepath.ToSlash(dir)
}

// srcLoader type-checks the module's packages from their non-test
// source into one shared types.Info, so an object has one identity
// wherever it is used; the standard library comes from the source
// importer.
type srcLoader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

func (l *srcLoader) Import(path string) (*types.Package, error) {
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	if path != "emerald" && !strings.HasPrefix(path, "emerald/") {
		return l.std.Import(path)
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, "emerald"), "/")
	if dir == "" {
		dir = "."
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = p, files
	return p, nil
}
