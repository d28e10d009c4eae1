package csg

import (
	"fmt"
	"sort"
	"testing"
)

// denseDecoyGraph builds a graph with a dense clique of decoy nodes
// hanging off the start node plus one sparse chain of chainLen hops that
// is the only route to the target. The clique generates a huge number of
// dead-end traversals at every depth. chainFirst controls edge insertion
// order (and thus deterministic traversal order): with the chain first,
// every deepening round reaches the chain before wading into the clique;
// with the clique first, a too-small step budget truncates the search
// before the chain is ever reached.
func denseDecoyGraph(t *testing.T, cliqueSize, chainLen int, chainFirst bool) (*Graph, *Node, *Node) {
	t.Helper()
	g := NewGraph("dense")
	add := func(id string) *Node {
		n := &Node{ID: id, Kind: TableNode, Table: id}
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
		return n
	}
	connect := func(a, b *Node) {
		if _, err := g.Connect(a, b, CardOne, CardOne, AttributeEdge); err != nil {
			t.Fatal(err)
		}
	}
	start := add("start")
	chain := func() *Node {
		prev := start
		for i := 1; i < chainLen; i++ {
			n := add(fmt.Sprintf("hop%d", i))
			connect(prev, n)
			prev = n
		}
		goal := add("goal")
		connect(prev, goal)
		return goal
	}
	var goal *Node
	if chainFirst {
		goal = chain()
	}
	clique := make([]*Node, cliqueSize)
	for i := range clique {
		clique[i] = add(fmt.Sprintf("decoy%03d", i))
	}
	for _, n := range clique {
		connect(start, n)
	}
	for i := range clique {
		for j := i + 1; j < len(clique); j++ {
			connect(clique[i], clique[j])
		}
	}
	if !chainFirst {
		goal = chain()
	}
	return g, start, goal
}

// TestFindPathsBudgetIsPerRound is the regression test for the shared
// iterative-deepening budget. The chain to the goal is traversed first in
// every round, but each shallow round afterwards burns thousands of steps
// re-walking the decoy clique. Under the old regime — one budget shared
// across all rounds — rounds 1-3 exhausted the budget on those useless
// clique walks, so round 4 returned immediately and the only real path
// (depth 4) was silently never found. With the per-round budget, round 4
// starts fresh and finds it within its first few steps.
func TestFindPathsBudgetIsPerRound(t *testing.T) {
	defer func(old int) { maxStepsPerRound = old }(maxStepsPerRound)
	maxStepsPerRound = 3000
	g, from, to := denseDecoyGraph(t, 40, 4, true)
	paths := FindPaths(g, from, to, 4)
	if len(paths) != 1 {
		t.Fatalf("paths = %d, want exactly the one depth-4 chain", len(paths))
	}
	if got := paths[0].String(); got != "start -> hop1 -> hop2 -> hop3 -> goal [1]" {
		t.Errorf("path = %s", got)
	}
}

// TestFindPathsTruncationIsDepthIndependent pins the truncation semantics
// the per-round budget guarantees: whether a path of depth d is found
// depends only on the work of the depth-d round itself, not on how much
// work shallower rounds burned. Here the clique comes first in traversal
// order, so a small budget truncates every round inside the clique and
// the chain behind it is (deterministically) never reached — the same
// outcome at every depth, rather than an outcome that degrades as earlier
// rounds eat a shared budget.
func TestFindPathsTruncationIsDepthIndependent(t *testing.T) {
	defer func(old int) { maxStepsPerRound = old }(maxStepsPerRound)
	maxStepsPerRound = 1000
	g, from, to := denseDecoyGraph(t, 40, 4, false)
	if paths := FindPaths(g, from, to, 4); len(paths) != 0 {
		t.Fatalf("a 1000-step round truncates inside the 40-clique, got %d paths", len(paths))
	}
	// Raising the per-round budget enough for one full depth-4 traversal
	// recovers the path — no dependence on cumulative cross-round work.
	maxStepsPerRound = 4_000_000
	if paths := FindPaths(g, from, to, 4); len(paths) != 1 {
		t.Fatalf("full budget must find the chain, got %d paths", len(paths))
	}
}

// TestFindPathsDeterministicUnderTruncation runs a truncated search twice
// and requires identical results: the traversal order is fixed by edge
// insertion order, so truncation always keeps the same candidates.
func TestFindPathsDeterministicUnderTruncation(t *testing.T) {
	defer func(old int) { maxStepsPerRound = old }(maxStepsPerRound)
	maxStepsPerRound = 500
	g, from, to := denseDecoyGraph(t, 20, 3, true)
	render := func(paths []Path) string {
		s := ""
		for _, p := range paths {
			s += p.String() + "\n"
		}
		return s
	}
	a := render(FindPaths(g, from, to, 6))
	b := render(FindPaths(g, from, to, 6))
	if a == "" {
		t.Fatal("truncated search found nothing at all")
	}
	if a != b {
		t.Errorf("truncated searches differ:\n%s\nvs\n%s", a, b)
	}
}

// referencePaths is the reference enumeration: one plain depth-first
// walk that collects every simple path of at most maxLen edges from one
// node to another, with no deepening, step budget or path cap, ordered
// as FindPaths orders its result.
func referencePaths(g *Graph, from, to *Node, maxLen int) []Path {
	var out []Path
	visited := map[*Node]bool{from: true}
	var walk func(n *Node, cur Path)
	walk = func(n *Node, cur Path) {
		if len(cur) > 0 && n == to {
			out = append(out, append(Path(nil), cur...))
			return
		}
		if len(cur) == maxLen {
			return
		}
		for _, e := range g.OutEdges(n) {
			if !visited[e.To] {
				visited[e.To] = true
				walk(e.To, append(cur, e))
				visited[e.To] = false
			}
		}
	}
	walk(from, nil)
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// TestFindPathsMatchesReference compares the iterative-deepening search
// with the reference enumeration wherever no round's step budget or the
// MaxPaths cap binds: on a graph whose start node has many branches, and
// between every pair of nodes of the Figure 2 source.
func TestFindPathsMatchesReference(t *testing.T) {
	render := func(paths []Path) string {
		s := ""
		for _, p := range paths {
			s += p.String() + "\n"
		}
		return s
	}
	check := func(g *Graph, from, to *Node, maxLen int) {
		t.Helper()
		want := render(referencePaths(g, from, to, maxLen))
		got := render(FindPaths(g, from, to, maxLen))
		if got != want {
			t.Errorf("FindPaths diverges from the reference for %s -> %s:\ngot\n%s\nwant\n%s",
				from.ID, to.ID, got, want)
		}
	}
	g, from, to := denseDecoyGraph(t, 12, 3, true)
	check(g, from, to, 6)

	src := MustFromSchema(figure2Source())
	nodes := src.Nodes()
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				check(src, a, b, MaxPathLength)
			}
		}
	}
}

// TestFindPathsAllocBound pins path search to one traversal per
// deepening round: matching albums to artist_credits.artist in the
// Figure 2 source, the running example's, allocates 76 times. A round
// fanned out over the start node's branches, one private traversal and
// visited set per branch, allocated 232 times.
func TestFindPathsAllocBound(t *testing.T) {
	src := MustFromSchema(figure2Source())
	from, to := src.Node("albums"), src.Node("artist_credits.artist")
	if BestPath(FindPaths(src, from, to, MaxPathLength)) == nil {
		t.Fatal("no path")
	}
	allocs := testing.AllocsPerRun(20, func() {
		FindPaths(src, from, to, MaxPathLength)
	})
	if allocs > 100 {
		t.Errorf("FindPaths(albums -> artist_credits.artist): %v allocs/op, want ≤ 100", allocs)
	}
}
