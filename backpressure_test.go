package emerald

import (
	"go/ast"
	"go/token"
	"testing"
)

// TestBackpressureContract holds the sender-side rules of DESIGN.md
// "Backpressure contract" over the product code in internal/ and cmd/:
//
//   - no Push call in statement position: Queue.Push and Controller.Push
//     report false when full and drop nothing, so a discarded answer
//     silently loses the request under backpressure (check it, move
//     requests with DrainTo, or check Full first and use MustPush);
//   - no .Out.Pop() / .Out.Peek() outside internal/mem: the
//     pop-only-if-accepted loop is written once, as mem.Queue.DrainTo;
//   - no PushFront in internal/interconnect: a refused flit parks until
//     its sink's room counter moves, it is not pushed back to be
//     re-offered every cycle.
func TestBackpressureContract(t *testing.T) {
	fset := token.NewFileSet()
	files := productFiles(t, fset, "internal", "cmd")
	for _, sf := range files {
		ast.Inspect(sf.f, func(n ast.Node) bool {
			bad := ""
			switch n := n.(type) {
			case *ast.ExprStmt:
				if method(n.X) == "Push" {
					bad = "Push result ignored (the request is dropped under backpressure)"
				}
			case *ast.CallExpr:
				sel, _ := n.Fun.(*ast.SelectorExpr)
				switch {
				case sel == nil:
				case (sel.Sel.Name == "Pop" || sel.Sel.Name == "Peek") && method(sel.X) == "Out" && sf.dir != "internal/mem":
					bad = "hand-rolled port drain (use mem.Queue.DrainTo)"
				case sel.Sel.Name == "PushFront" && sf.dir == "internal/interconnect":
					bad = "refused flit pushed back to the front (park it on the sink's room counter)"
				}
			}
			if bad != "" {
				t.Errorf("%s: %s", fset.Position(n.Pos()), bad)
			}
			return true
		})
	}
	if len(files) < 50 {
		t.Fatalf("parsed %d product files; run from the repository root", len(files))
	}
}

// method names the selector of a call or field expression x.Name(...)
// or x.Name, "" for anything else.
func method(e ast.Expr) string {
	if c, ok := e.(*ast.CallExpr); ok {
		e = c.Fun
	}
	if s, ok := e.(*ast.SelectorExpr); ok {
		return s.Sel.Name
	}
	return ""
}
