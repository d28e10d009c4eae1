package faultinject

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The registry contract: every Fire call in production code must use a
// point name covered by Points(), and every Points() entry must have at
// least one call site — a dead entry means a resilience test can arm a
// fault that nothing ever fires.

// pointMatches reports whether the literal point name is covered by the
// registry entry (exact, or a "prefix*" wildcard).
func pointMatches(entry, point string) bool {
	if prefix, ok := strings.CutSuffix(entry, "*"); ok {
		return strings.HasPrefix(point, prefix) && len(point) > len(prefix)
	}
	return entry == point
}

// prefixMatches reports whether a constant prefix of a dynamic point
// ("core:detector:" + name) falls under a wildcard entry.
func prefixMatches(entry, prefix string) bool {
	wild, ok := strings.CutSuffix(entry, "*")
	return ok && strings.HasPrefix(prefix, wild)
}

// firePointArgs scans the non-test sources of dir for faultinject.Fire
// calls and returns the first-argument strings: full literals, and
// constant prefixes of `"literal" + expr` concatenations (marked with a
// trailing "*").
func firePointArgs(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Fire" {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "faultinject" {
				return true
			}
			switch arg := call.Args[0].(type) {
			case *ast.BasicLit:
				if arg.Kind == token.STRING {
					out = append(out, strings.Trim(arg.Value, `"`))
				}
			case *ast.BinaryExpr:
				if lit, ok := arg.X.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					out = append(out, strings.Trim(lit.Value, `"`)+"*")
				}
			}
			return true
		})
	}
	return out
}

func TestEveryFireCallIsRegistered(t *testing.T) {
	registry := Points()
	if len(registry) == 0 {
		t.Fatal("Points() is empty")
	}
	if !sort.StringsAreSorted(registry) {
		t.Errorf("Points() not sorted: %v", registry)
	}
	covered := make(map[string]bool, len(registry))
	total := 0
	for _, dir := range []string{"../core", "../persist", "../profile", "../experiments", "../relational"} {
		points := firePointArgs(t, dir)
		total += len(points)
		for _, point := range points {
			found := false
			for _, entry := range registry {
				if dynPrefix, dynamic := strings.CutSuffix(point, "*"); dynamic {
					found = prefixMatches(entry, dynPrefix)
				} else {
					found = pointMatches(entry, point)
				}
				if found {
					covered[entry] = true
					break
				}
			}
			if !found {
				t.Errorf("%s: fault point %q not covered by Points() %v", dir, point, registry)
			}
		}
	}
	if total == 0 {
		t.Fatal("found no Fire call sites; the scan is broken")
	}
	for _, entry := range registry {
		if !covered[entry] {
			t.Errorf("registry entry %q has no Fire call site; arming it tests nothing", entry)
		}
	}
}
