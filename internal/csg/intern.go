package csg

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"efes/internal/relational"
)

// This file implements the interned CSG instance: the integer-ID twin of
// the string-element Instance of convert.go. Elements are dense int32 IDs
// per node (tuple indexes for table nodes, first-occurrence distinct-value
// indexes for attribute nodes, derived directly from the columnar
// substrate's dictionary codes), and every atomic relationship is stored
// as CSR adjacency (offsets + targets) instead of map[string][]string.
// LinkCounts, CountViolations, and ViolationSplit walk the CSR arrays with
// a reusable frontier bitmap, so evaluating the structure detector's
// cardinality checks allocates O(path) scratch instead of one hash set per
// start element. Strings are rendered lazily, only for samples, traces,
// and the Source-interface compatibility methods.
//
// The string-based Instance remains the semantic oracle: intern_test.go
// property-tests element, link-count, violation-split, and sample identity
// between the two representations over randomized scenarios.

// elemTable is the element table of one node: a dense ID space 0..n-1.
type elemTable struct {
	// table is non-empty for table nodes: element i is tuple i of that
	// table, rendered lazily as "table#i".
	table string
	// elems holds the distinct values of an attribute node in first
	// occurrence order (ID = slice index). The strings alias the column
	// dictionary where one exists, so no per-element copies are made.
	elems []string
	// n is the element count (== len(elems) for attribute nodes).
	n int

	// index maps a rendered element back to its ID; built lazily, only
	// for the Source-interface methods and equality-edge joins.
	index map[string]int32
	// rendered memoizes the full Elements() rendering of a table node.
	rendered []string
}

// csrAdj is one direction of an atomic relationship in compressed sparse
// row form: the links of element i are targets[offsets[i]:offsets[i+1]].
type csrAdj struct {
	offsets []int32
	targets []int32
}

// degree returns the number of links of element i.
func (a *csrAdj) degree(i int32) int32 { return a.offsets[i+1] - a.offsets[i] }

// links returns the link targets of element i.
func (a *csrAdj) links(i int32) []int32 { return a.targets[a.offsets[i]:a.offsets[i+1]] }

// Interned is a CSG instance with interned integer elements and CSR
// adjacency. It implements Source, so the complex-relationship evaluators
// accept it interchangeably with the string-based Instance.
type Interned struct {
	// Graph is the CSG this instance belongs to.
	Graph *Graph

	nodes map[*Node]*elemTable
	adj   map[*Edge]*csrAdj
}

// FromDatabaseInterned converts a relational instance into an interned CSG
// instance over the graph produced by FromSchema on the same schema. It is
// the integer-ID equivalent of FromDatabase: element IDs are assigned in
// the exact order FromDatabase interns element strings (tuples in row
// order, attribute values in first-occurrence row order), so lazy
// rendering reproduces the oracle's elements byte for byte.
func FromDatabaseInterned(g *Graph, db *relational.Database) (*Interned, error) {
	in := &Interned{
		Graph: g,
		nodes: make(map[*Node]*elemTable),
		adj:   make(map[*Edge]*csrAdj),
	}
	for _, t := range db.Schema.Tables() {
		tn := g.Node(t.Name)
		if tn == nil {
			return nil, fmt.Errorf("csg: graph lacks table node %s", t.Name)
		}
		nRows := db.NumRows(t.Name)
		in.nodes[tn] = &elemTable{table: t.Name, n: nRows}
		vecs := db.Vectors(t.Name)
		for ci, c := range t.Columns {
			an := g.Node(AttributeNodeID(t.Name, c.Name))
			edge := g.EdgeBetween(t.Name, an.ID)
			if edge == nil {
				return nil, fmt.Errorf("csg: graph lacks edge %s -> %s", t.Name, an.ID)
			}
			et, fwd := buildAttribute(vecs[ci])
			in.nodes[an] = et
			in.adj[edge] = fwd
			in.adj[edge.Inverse] = transpose(fwd, et.n)
		}
	}
	// Equality edges: link equal elements of the two attribute nodes.
	// Each undirected relationship is processed exactly once, tracked by
	// an explicit set (not inferred from populated-links state).
	done := make(map[*Edge]bool)
	for _, e := range g.Edges() {
		if e.Kind != EqualityEdge || done[e] || done[e.Inverse] {
			continue
		}
		done[e] = true
		from, to := in.nodes[e.From], in.nodes[e.To]
		if from == nil || to == nil {
			return nil, fmt.Errorf("csg: equality edge %s references missing element table", e)
		}
		in.adj[e], in.adj[e.Inverse] = equalityAdj(from, to)
	}
	return in, nil
}

// MustFromDatabaseInterned is FromDatabaseInterned but panics on error.
func MustFromDatabaseInterned(g *Graph, db *relational.Database) *Interned {
	in, err := FromDatabaseInterned(g, db)
	if err != nil {
		panic(err)
	}
	return in
}

// buildAttribute interns one column: the distinct non-NULL values become
// the attribute node's elements (first-occurrence order), and the
// tuple→value links become a CSR with at most one target per row. String
// columns map dictionary codes to element IDs directly — no hashing and no
// re-rendering; other types key their typed vectors.
//efes:hot
func buildAttribute(v *relational.ColumnVector) (*elemTable, *csrAdj) {
	nRows := v.Len()
	et := &elemTable{}
	fwd := &csrAdj{
		offsets: make([]int32, nRows+1),
		targets: make([]int32, 0, nRows-v.NullCount()),
	}
	nulls := v.Nulls()
	elems := make([]string, 0, nRows-v.NullCount()) // distinct ≤ non-NULL rows
	appendRow := func(i int, id int32) {
		fwd.offsets[i+1] = fwd.offsets[i] + 1
		fwd.targets = append(fwd.targets, id)
	}
	switch v.Type() {
	case relational.String:
		dict, codes := v.Dict(), v.Codes()
		code2id := make([]int32, len(dict))
		for i := range code2id {
			code2id[i] = -1
		}
		for i, code := range codes {
			if nulls.Get(i) {
				fwd.offsets[i+1] = fwd.offsets[i]
				continue
			}
			id := code2id[code]
			if id < 0 {
				id = int32(len(elems))
				code2id[code] = id
				elems = append(elems, dict[code])
			}
			appendRow(i, id)
		}
	case relational.Integer:
		seen := make(map[int64]int32)
		for i, x := range v.Ints() {
			if nulls.Get(i) {
				fwd.offsets[i+1] = fwd.offsets[i]
				continue
			}
			id, ok := seen[x]
			if !ok {
				id = int32(len(elems))
				seen[x] = id
				elems = append(elems, strconv.FormatInt(x, 10))
			}
			appendRow(i, id)
		}
	case relational.Float:
		seen := make(map[uint64]int32)
		for i, x := range v.Floats() {
			if nulls.Get(i) {
				fwd.offsets[i+1] = fwd.offsets[i]
				continue
			}
			key := relational.FloatKey(x)
			id, ok := seen[key]
			if !ok {
				id = int32(len(elems))
				seen[key] = id
				elems = append(elems, relational.FormatFloat(x))
			}
			appendRow(i, id)
		}
	default: // Bool, Time: render and dedupe by the rendering, like the oracle
		seen := make(map[string]int32)
		for i := 0; i < nRows; i++ {
			val := v.Value(i)
			if val == nil {
				fwd.offsets[i+1] = fwd.offsets[i]
				continue
			}
			s := relational.FormatValue(val)
			id, ok := seen[s]
			if !ok {
				id = int32(len(elems))
				seen[s] = id
				elems = append(elems, s)
			}
			appendRow(i, id)
		}
	}
	if len(elems) == 0 {
		elems = nil // Elements hands this slice out; the oracle renders an empty node as nil
	}
	et.elems = elems
	et.n = len(elems)
	return et, fwd
}

// transpose inverts a CSR adjacency (counting sort over target IDs): the
// result's element i links to every source element that links to i. Link
// order is source order, matching the oracle's insertion order.
//efes:hot
func transpose(a *csrAdj, nTo int) *csrAdj {
	out := &csrAdj{offsets: make([]int32, nTo+1), targets: make([]int32, len(a.targets))}
	for _, t := range a.targets {
		out.offsets[t+1]++
	}
	for i := 0; i < nTo; i++ {
		out.offsets[i+1] += out.offsets[i]
	}
	// fill positions; next[i] tracks the write cursor of element i
	next := make([]int32, nTo)
	for from := 0; from+1 < len(a.offsets); from++ {
		for _, t := range a.targets[a.offsets[from]:a.offsets[from+1]] {
			out.targets[out.offsets[t]+next[t]] = int32(from)
			next[t]++
		}
	}
	return out
}

// equalityAdj links equal elements of two attribute nodes (at most one per
// element, since attribute elements are distinct values).
//efes:hot
func equalityAdj(from, to *elemTable) (*csrAdj, *csrAdj) {
	toIdx := to.lookup()
	fwd := &csrAdj{offsets: make([]int32, from.n+1)}
	back := &csrAdj{offsets: make([]int32, to.n+1)}
	type pair struct{ f, t int32 }
	pairs := make([]pair, 0, from.n) // at most one link per source element
	targets := make([]int32, 0, from.n)
	for f, v := range from.elems {
		if t, ok := toIdx[v]; ok {
			fwd.offsets[f+1] = 1
			targets = append(targets, t)
			pairs = append(pairs, pair{int32(f), t})
		}
	}
	fwd.targets = targets
	for i := 0; i < from.n; i++ {
		fwd.offsets[i+1] += fwd.offsets[i]
	}
	for _, p := range pairs {
		back.offsets[p.t+1] = 1
	}
	for i := 0; i < to.n; i++ {
		back.offsets[i+1] += back.offsets[i]
	}
	back.targets = make([]int32, len(pairs))
	for _, p := range pairs {
		back.targets[back.offsets[p.t]] = p.f
	}
	return fwd, back
}

// lookup returns (building lazily) the rendered-element → ID index of an
// attribute node's element table.
func (et *elemTable) lookup() map[string]int32 {
	if et.index == nil {
		et.index = make(map[string]int32, len(et.elems))
		for i, v := range et.elems {
			et.index[v] = int32(i)
		}
	}
	return et.index
}

// render returns the string form of element id (the oracle's element).
func (et *elemTable) render(id int32) string {
	if et.table != "" {
		return tupleID(et.table, int(id))
	}
	return et.elems[id]
}

// elemID resolves a rendered element back to its ID, or -1.
func (et *elemTable) elemID(elem string) int32 {
	if et.table != "" {
		h := strings.LastIndexByte(elem, '#')
		if h < 0 || elem[:h] != et.table {
			return -1
		}
		i, err := strconv.Atoi(elem[h+1:])
		if err != nil || i < 0 || i >= et.n {
			return -1
		}
		return int32(i)
	}
	id, ok := et.lookup()[elem]
	if !ok {
		return -1
	}
	return id
}

// NumElements returns the number of elements of a node.
func (in *Interned) NumElements(n *Node) int {
	et := in.nodes[n]
	if et == nil {
		return 0
	}
	return et.n
}

// Elements returns the elements of a node, rendered as the oracle's
// strings. Table-node renderings are memoized on first call; the hot
// paths (LinkCounts, ViolationSplit) never need them.
func (in *Interned) Elements(n *Node) []string {
	et := in.nodes[n]
	if et == nil {
		return nil
	}
	if et.table == "" {
		return et.elems
	}
	if et.rendered == nil && et.n > 0 {
		et.rendered = make([]string, et.n)
		for i := range et.rendered {
			et.rendered[i] = tupleID(et.table, i)
		}
	}
	return et.rendered
}

// Links returns the targets linked to elem via the atomic relationship e,
// rendered lazily (Source interface; the vectorized paths below stay in ID
// space).
func (in *Interned) Links(e *Edge, elem string) []string {
	a := in.adj[e]
	from, to := in.nodes[e.From], in.nodes[e.To]
	if a == nil || from == nil || to == nil {
		return nil
	}
	id := from.elemID(elem)
	if id < 0 {
		return nil
	}
	ts := a.links(id)
	if len(ts) == 0 {
		return nil
	}
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = to.render(t)
	}
	return out
}

// LinkCounts computes, for every element of the start node of path p, the
// number of distinct end-node elements reachable along p. The result is
// dense: counts[i] is the count of element i of the start node. It returns
// nil for invalid paths (the oracle's empty map).
//efes:hot
func (in *Interned) LinkCounts(p Path) []int32 {
	if !p.Valid() {
		return nil
	}
	start := in.nodes[p.Start()]
	if start == nil {
		return nil
	}
	counts := make([]int32, start.n)
	if start.n == 0 {
		return counts
	}
	if len(p) == 1 {
		// Single edge: links are distinct by construction (one value per
		// row and column; equality links pair distinct values), so the
		// count is the CSR degree.
		a := in.adj[p[0]]
		if a == nil {
			return counts
		}
		for i := range counts {
			counts[i] = a.degree(int32(i))
		}
		return counts
	}
	// Multi-edge path: per start element, expand a frontier of element
	// IDs edge by edge, deduplicating with a bitmap sized to the largest
	// node on the path. The bitmap and both frontier buffers are reused
	// across start elements; only the touched bits are cleared.
	maxN := 0
	for _, e := range p {
		if n := in.NumElements(e.To); n > maxN {
			maxN = n
		}
	}
	seen := make([]uint64, (maxN+63)/64)
	cur := make([]int32, 0, 64)
	next := make([]int32, 0, 64)
	for s := 0; s < start.n; s++ {
		cur = append(cur[:0], int32(s))
		for _, e := range p {
			a := in.adj[e]
			next = next[:0]
			if a != nil {
				for _, u := range cur {
					for _, v := range a.links(u) {
						w, bit := v>>6, uint64(1)<<(uint(v)&63)
						if seen[w]&bit == 0 {
							seen[w] |= bit
							next = append(next, v)
						}
					}
				}
			}
			for _, v := range next {
				seen[v>>6] &^= uint64(1) << (uint(v) & 63)
			}
			cur, next = next, cur
		}
		counts[s] = int32(len(cur))
	}
	return counts
}

// ActualCard summarizes the link counts of a path into the tightest
// interval covering all observed counts; empty for instances without start
// elements (the oracle's Instance.ActualCard).
//efes:hot
func (in *Interned) ActualCard(p Path) Card {
	counts := in.LinkCounts(p)
	if len(counts) == 0 {
		return CardEmpty
	}
	lo, hi := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	return Interval(int64(lo), int64(hi))
}

// CountViolations counts the elements of the start node of p whose number
// of reachable end elements is not admitted by the prescribed cardinality.
//efes:hot
func (in *Interned) CountViolations(p Path, prescribed Card) int {
	violations := 0
	for _, n := range in.LinkCounts(p) {
		if !prescribed.Contains(int64(n)) {
			violations++
		}
	}
	return violations
}

// ViolationSplit counts start elements with too few (below) and too many
// (above) links along the path relative to the prescribed cardinality, and
// collects up to maxSamples offending elements per class — the
// lexicographically smallest rendered elements, exactly as the oracle's
// sorted-scan produces. Only sample candidates are rendered.
//efes:hot
func (in *Interned) ViolationSplit(p Path, prescribed Card, maxSamples int) (below, above int, belowSamples, aboveSamples []string) {
	counts := in.LinkCounts(p)
	if len(counts) == 0 {
		return 0, 0, nil, nil
	}
	start := in.nodes[p.Start()]
	belowSel := newMinSampler(maxSamples)
	aboveSel := newMinSampler(maxSamples)
	for i, n := range counts {
		v := int64(n)
		switch {
		case prescribed.Contains(v):
		case prescribed.IsEmpty() || v < prescribed.Lo:
			below++
			belowSel.offer(start, int32(i))
		default:
			above++
			aboveSel.offer(start, int32(i))
		}
	}
	return below, above, belowSel.sorted(), aboveSel.sorted()
}

// minSampler keeps the k lexicographically smallest rendered elements seen.
type minSampler struct {
	k    int
	vals []string
}

func newMinSampler(k int) *minSampler { return &minSampler{k: k} }

// offer renders the element and keeps it if it is among the k smallest.
func (m *minSampler) offer(et *elemTable, id int32) {
	if m.k <= 0 {
		return
	}
	s := et.render(id)
	if len(m.vals) == m.k {
		if s >= m.vals[m.k-1] {
			return
		}
		m.vals = m.vals[:m.k-1]
	}
	i := sort.SearchStrings(m.vals, s)
	m.vals = append(m.vals, "")
	copy(m.vals[i+1:], m.vals[i:])
	m.vals[i] = s
}

// sorted returns the collected samples in ascending order.
func (m *minSampler) sorted() []string { return m.vals }

// UnequalValues counts the elements of node from without an equal element
// in node to (the structure detector's direct value-equality check for
// unconnected equality relationships).
//efes:hot
func (in *Interned) UnequalValues(from, to *Node) int {
	ft, tt := in.nodes[from], in.nodes[to]
	if ft == nil || tt == nil {
		return 0
	}
	idx := tt.lookup()
	count := 0
	for _, v := range ft.elems {
		if _, ok := idx[v]; !ok {
			count++
		}
	}
	if ft.table != "" {
		// Table-node elements are tuple identities; compare renderings.
		count = 0
		for i := 0; i < ft.n; i++ {
			if _, ok := idx[tupleID(ft.table, i)]; !ok {
				count++
			}
		}
	}
	return count
}
