package universalnet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported functions and methods in internal/
// that no non-test Go file calls, each with the reason it stays. Keys are
// "package.Func" or "package.Type.Method".
var surfaceAllowlist = map[string]string{
	// Reference oracles and paper checks: their tests are the callers.
	"redblue.OracleMinLoads":               "brute-force optimum that certifies Belady (TestOracleMatchesBeladyReplay)",
	"graph.Graph.EulerianOrientation":      "Lemma 3.3 orientation, checked by the graph tests",
	"graph.Residual":                       "Prop. 3.6(b) residual graph, checked by the graph tests",
	"core.Params.FinalInequality":          "Theorem 3.1 closing inequality (PAPER_MAP, core tests)",
	"core.Params.LowerBoundSlowdown":       "Theorem 3.1 closed form (PAPER_MAP, core tests)",
	"core.Params.ClosedFormK":              "Theorem 3.1 closed-form k (PAPER_MAP, core tests)",
	"core.Params.KFromClosedForm":          "inverse of ClosedFormK (PAPER_MAP, core tests)",
	"core.Params.Feasible":                 "Theorem 3.1 feasibility predicate (PAPER_MAP, core tests)",
	"core.MultiplicityExact":               "exact Lemma 3.3 multiplicity that the bound is checked against",
	"expander.ExactExpansion":              "exhaustive expansion oracle for the sampled estimate",
	"routing.VerifyRounds":                 "independent check of a routing schedule's rounds",
	"routing.Schedule.Sorts":               "0-1 principle check of a sorting network",
	"sim.Computation.VerifyTrace":          "replays a trace against the step function",
	"experiments.GeomMean":                 "the root benchmarks report it",
	"obs.Registry.SetIDSeed":               "test seam for deterministic trace and span IDs",
	"obs.Registry.StartSpanCtx":            "planned caller: child spans inside the compute stage",
	"depgraph.Predecessors":                "Figure 1 dependency graph, checked by the depgraph tests",
	"depgraph.Successors":                  "Figure 1 dependency graph, checked by the depgraph tests",
	"depgraph.Reaches":                     "Figure 1 dependency graph, checked by the depgraph tests",
	"embedding.Identity":                   "the trivial embedding fixture of the embedding tests",
	"expander.GabberGalil":                 "explicit expander family (PAPER_MAP)",
	"expander.SpectralBisectionUpperBound": "spectral bisection bound (PAPER_MAP)",
	"expander.IsExpanderForSet":            "Definition 3.9 expansion predicate on one set",
	"pebble.Fragment.SmallDCount":          "Lemma 3.12 |D_i| count, checked by the lemma tests",
	"pebble.State.PebbleCount":             "§3.1 pebble count, checked by the pebble tests",
	"sim.Trace.At":                         "§3.1 trace lookup, checked by the pebble tests",
	"topology.CompleteBinaryTree":          "tree-like host of TestTreeCacheProtocolCarriesComputation",
}

// TestExportedSurfaceHasCallers fails for an exported function or method in
// internal/ whose name occurs, outside comments, only at its own definition
// across every non-test Go file of the repository (perfbench and examples
// included), unless surfaceAllowlist gives a reason to keep it. Such a name
// is API that only tests reach: delete it with its tests, or allowlist it.
func TestExportedSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	uses := make(map[string]int)    // identifier → occurrences
	defs := make(map[string]string) // identifier → qualified internal definition
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				key = f.Name.Name + "." + receiverType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			defs[fn.Name.Name] = key
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var uncalled []string
	for name, key := range defs {
		if uses[name] == 1 { // the definition is the name's only occurrence
			uncalled = append(uncalled, key)
		}
	}
	sort.Strings(uncalled)
	for _, key := range uncalled {
		if _, ok := surfaceAllowlist[key]; !ok {
			t.Errorf("%s is exported but no non-test code calls it: delete it, or add it to surfaceAllowlist with a reason", key)
		}
	}
	for key := range surfaceAllowlist {
		if !slices.Contains(uncalled, key) {
			t.Errorf("surfaceAllowlist entry %s is stale: it is gone or now has a caller", key)
		}
	}
}

// receiverType returns the type name of a method receiver, without pointer
// or type parameters.
func receiverType(e ast.Expr) string {
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
			return "?"
		}
	}
}
