package match

import (
	"sort"

	"efes/internal/relational"
)

// FloodMatcher implements a simplified similarity flooding matcher after
// Melnik, Garcia-Molina, Rahm [19] — the algorithm the paper cites both
// as a correspondence bootstrapper and for its match-accuracy measure.
// Schemas are viewed as graphs (tables connected to their columns and to
// foreign-key targets); candidate node pairs form a pairwise connectivity
// graph; an initial string-similarity assignment is propagated over that
// graph until a fixpoint, so that "two elements are similar when their
// neighbors are similar".
type FloodMatcher struct{}

// The flooding matcher's configuration.
const (
	// floodThreshold is the minimum relative similarity (fraction of
	// the best score) for a pair to be selected.
	floodThreshold = 0.6
	// floodMaxIterations bounds the fixpoint computation.
	floodMaxIterations = 32
	// floodEpsilon is the convergence bound on the maximum score change.
	floodEpsilon = 1e-4
)

// NewFloodMatcher returns a FloodMatcher.
func NewFloodMatcher() *FloodMatcher { return &FloodMatcher{} }

// schemaGraph is the directed labeled graph view of a schema used by the
// flooding algorithm.
type schemaGraph struct {
	// nodes: "t:<table>" and "c:<table>.<column>".
	nodes []string
	// edges: label -> list of (from, to) index pairs.
	edges map[string][][2]int
	index map[string]int
	// names and types for the initial similarity.
	display map[string]string
	types   map[string]relational.Type
	isTable map[string]bool
}

func buildSchemaGraph(s *relational.Schema) *schemaGraph {
	g := &schemaGraph{
		edges:   make(map[string][][2]int),
		index:   make(map[string]int),
		display: make(map[string]string),
		types:   make(map[string]relational.Type),
		isTable: make(map[string]bool),
	}
	add := func(id, name string) int {
		if i, ok := g.index[id]; ok {
			return i
		}
		i := len(g.nodes)
		g.nodes = append(g.nodes, id)
		g.index[id] = i
		g.display[id] = name
		return i
	}
	for _, t := range s.Tables() {
		ti := add("t:"+t.Name, t.Name)
		g.isTable["t:"+t.Name] = true
		for _, c := range t.Columns {
			id := "c:" + t.Name + "." + c.Name
			ci := add(id, c.Name)
			g.types[id] = c.Type
			g.edges["column"] = append(g.edges["column"], [2]int{ti, ci})
		}
	}
	for _, fk := range s.ForeignKeys() {
		from := g.index["t:"+fk.Table]
		to := g.index["t:"+fk.RefTable]
		g.edges["fk"] = append(g.edges["fk"], [2]int{from, to})
		for i := range fk.Columns {
			cf := g.index["c:"+fk.Table+"."+fk.Columns[i]]
			ct := g.index["c:"+fk.RefTable+"."+fk.RefColumns[i]]
			g.edges["ref"] = append(g.edges["ref"], [2]int{cf, ct})
		}
	}
	return g
}

// pairKey identifies a candidate pair (source node i, target node j).
type pairKey struct{ i, j int }

// Match runs similarity flooding between the two schemas and returns the
// selected attribute correspondences (plus table-level correspondences
// for the best table pairs).
func (m *FloodMatcher) Match(source, target *relational.Database) *Set {
	sg := buildSchemaGraph(source.Schema)
	tg := buildSchemaGraph(target.Schema)

	// Initial similarity: name similarity, only between nodes of the
	// same class (table-table, column-column with compatible types).
	sigma := make(map[pairKey]float64)
	for i, sid := range sg.nodes {
		for j, tid := range tg.nodes {
			if sg.isTable[sid] != tg.isTable[tid] {
				continue
			}
			sim := nameSimilarity(sg.display[sid], tg.display[tid])
			if !sg.isTable[sid] {
				sim = 0.8*sim + 0.2*typeCompatibility(sg.types[sid], tg.types[tid])
			}
			if sim > 0.05 {
				sigma[pairKey{i, j}] = sim
			}
		}
	}
	sigma0 := make(map[pairKey]float64, len(sigma))
	for k, v := range sigma {
		sigma0[k] = v
	}

	// Pairwise connectivity: a pair (a,b) supports (a',b') when edges
	// a->a' and b->b' share a label. Propagation coefficients split
	// each pair's outgoing support evenly per label (Melnik's π).
	type neighbor struct {
		from pairKey
		w    float64
	}
	incoming := make(map[pairKey][]neighbor)
	labels := make([]string, 0, len(sg.edges))
	for label := range sg.edges {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		sEdges := sg.edges[label]
		tEdges := tg.edges[label]
		if len(tEdges) == 0 {
			continue
		}
		// Group target edges by nothing (small schemas): cross product.
		outCount := make(map[pairKey]int)
		type support struct{ from, to pairKey }
		var supports []support
		for _, se := range sEdges {
			for _, te := range tEdges {
				from := pairKey{se[0], te[0]}
				to := pairKey{se[1], te[1]}
				if _, ok := sigma0[from]; !ok {
					continue
				}
				if _, ok := sigma0[to]; !ok {
					continue
				}
				supports = append(supports, support{from, to})
				outCount[from]++
				outCount[to]++ // flooding propagates both directions
			}
		}
		for _, sp := range supports {
			incoming[sp.to] = append(incoming[sp.to], neighbor{from: sp.from, w: 1 / float64(outCount[sp.from])})
			incoming[sp.from] = append(incoming[sp.from], neighbor{from: sp.to, w: 1 / float64(outCount[sp.to])})
		}
	}

	// Fixpoint iteration with normalization; keys are iterated in a
	// fixed order so that floating-point summation is deterministic.
	keys := make([]pairKey, 0, len(sigma0))
	for k := range sigma0 {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].i != keys[b].i {
			return keys[a].i < keys[b].i
		}
		return keys[a].j < keys[b].j
	})
	for iter := 0; iter < floodMaxIterations; iter++ {
		next := make(map[pairKey]float64, len(sigma))
		maxVal := 0.0
		for _, k := range keys {
			v := sigma0[k] + sigma[k]
			for _, n := range incoming[k] {
				v += sigma[n.from] * n.w
			}
			next[k] = v
			if v > maxVal {
				maxVal = v
			}
		}
		if maxVal > 0 {
			for k := range next {
				next[k] /= maxVal
			}
		}
		delta := 0.0
		for k, v := range next {
			d := v - sigma[k]
			if d < 0 {
				d = -d
			}
			if d > delta {
				delta = d
			}
		}
		sigma = next
		if delta < floodEpsilon {
			break
		}
	}

	return m.selectPairs(sg, tg, sigma)
}

// selectPairs applies Melnik-style relative-similarity filtering and a
// greedy 1:1 selection to the converged similarities: a pair survives
// when its score reaches the floodThreshold fraction of both its source
// element's and its target element's best score (global normalization
// concentrates absolute scores on hub elements, so per-element relative
// scores are the meaningful signal).
func (m *FloodMatcher) selectPairs(sg, tg *schemaGraph, sigma map[pairKey]float64) *Set {
	type scored struct {
		k pairKey
		v float64
	}
	rowBest := make(map[int]float64)
	colBest := make(map[int]float64)
	for k, v := range sigma {
		if v > rowBest[k.i] {
			rowBest[k.i] = v
		}
		if v > colBest[k.j] {
			colBest[k.j] = v
		}
	}
	var columnPairs, tablePairs []scored
	for k, v := range sigma {
		if v < floodThreshold*rowBest[k.i] || v < floodThreshold*colBest[k.j] {
			continue
		}
		if sg.isTable[sg.nodes[k.i]] {
			//lint:ignore detorder order(tablePairs) below sorts with full tie-breaking before use
			tablePairs = append(tablePairs, scored{k, v})
		} else {
			//lint:ignore detorder order(columnPairs) below sorts with full tie-breaking before use
			columnPairs = append(columnPairs, scored{k, v})
		}
	}
	order := func(xs []scored) {
		sort.Slice(xs, func(a, b int) bool {
			if xs[a].v != xs[b].v {
				return xs[a].v > xs[b].v
			}
			if sg.nodes[xs[a].k.i] != sg.nodes[xs[b].k.i] {
				return sg.nodes[xs[a].k.i] < sg.nodes[xs[b].k.i]
			}
			return tg.nodes[xs[a].k.j] < tg.nodes[xs[b].k.j]
		})
	}
	order(tablePairs)
	order(columnPairs)

	set := &Set{}
	usedS, usedT := make(map[int]bool), make(map[int]bool)
	for _, p := range tablePairs {
		if usedS[p.k.i] || usedT[p.k.j] {
			continue
		}
		usedS[p.k.i], usedT[p.k.j] = true, true
		set.Table(sg.nodes[p.k.i][2:], tg.nodes[p.k.j][2:])
		set.All[len(set.All)-1].Confidence = p.v
	}
	usedS, usedT = make(map[int]bool), make(map[int]bool)
	for _, p := range columnPairs {
		if usedS[p.k.i] || usedT[p.k.j] {
			continue
		}
		usedS[p.k.i], usedT[p.k.j] = true, true
		st, sc := splitColumnID(sg.nodes[p.k.i])
		tt, tc := splitColumnID(tg.nodes[p.k.j])
		set.Attr(st, sc, tt, tc)
		set.All[len(set.All)-1].Confidence = p.v
	}
	return set
}

func splitColumnID(id string) (table, column string) {
	body := id[2:] // strip "c:"
	for i := 0; i < len(body); i++ {
		if body[i] == '.' {
			return body[:i], body[i+1:]
		}
	}
	return body, ""
}
