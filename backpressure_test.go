package emerald

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
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
	files := 0
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			files++
			dir := filepath.ToSlash(filepath.Dir(path))
			ast.Inspect(f, func(n ast.Node) bool {
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
					case (sel.Sel.Name == "Pop" || sel.Sel.Name == "Peek") && method(sel.X) == "Out" && dir != "internal/mem":
						bad = "hand-rolled port drain (use mem.Queue.DrainTo)"
					case sel.Sel.Name == "PushFront" && dir == "internal/interconnect":
						bad = "refused flit pushed back to the front (park it on the sink's room counter)"
					}
				}
				if bad != "" {
					t.Errorf("%s: %s", fset.Position(n.Pos()), bad)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 50 {
		t.Fatalf("parsed %d product files; run from the repository root", files)
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
