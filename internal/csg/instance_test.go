package csg

import (
	"fmt"

	"efes/internal/relational"
)

// This file holds the string-element CSG instance, the semantic oracle of
// the interned instance (intern.go) that every production path runs on:
// elements and links are plain strings in maps, built eagerly row by row.
// TestInternedMatchesOracle checks element, link, link-count,
// violation-split and sample identity between the two representations,
// and the union soundness test evaluates the cardinality inference on
// both.

// Instance is a CSG instance I(Γ) = (I_N, I_P): elements per node and
// links per atomic relationship. Elements are interned as strings: tuple
// identities "t<row>" for table nodes and rendered distinct values for
// attribute nodes.
type Instance struct {
	// Graph is the CSG this instance belongs to.
	Graph *Graph

	elements map[*Node][]string
	links    map[*Edge]map[string][]string
}

// NewInstance creates an empty instance of the graph.
func NewInstance(g *Graph) *Instance {
	return &Instance{
		Graph:    g,
		elements: make(map[*Node][]string),
		links:    make(map[*Edge]map[string][]string),
	}
}

// Elements returns the elements assigned to a node.
func (in *Instance) Elements(n *Node) []string { return in.elements[n] }

// NumElements returns the number of elements of a node.
func (in *Instance) NumElements(n *Node) int { return len(in.elements[n]) }

// AddElement assigns an element to a node.
func (in *Instance) AddElement(n *Node, elem string) {
	in.elements[n] = append(in.elements[n], elem)
}

// AddLink records a link of the atomic relationship e and its inverse.
func (in *Instance) AddLink(e *Edge, from, to string) {
	addLink(in.links, e, from, to)
	addLink(in.links, e.Inverse, to, from)
}

func addLink(links map[*Edge]map[string][]string, e *Edge, from, to string) {
	m := links[e]
	if m == nil {
		m = make(map[string][]string)
		links[e] = m
	}
	m[from] = append(m[from], to)
}

// Links returns the targets linked to elem via the atomic relationship e.
func (in *Instance) Links(e *Edge, elem string) []string {
	return in.links[e][elem]
}

// FromDatabase converts a relational instance into a CSG instance over the
// graph produced by FromSchema on the same schema. Tuples become abstract
// identity elements, attribute nodes receive the distinct values, and the
// relationships link them (§4.1, Example 4.1). Equality edges are
// populated by linking equal values.
func FromDatabase(g *Graph, db *relational.Database) (*Instance, error) {
	in := NewInstance(g)
	for _, t := range db.Schema.Tables() {
		tn := g.Node(t.Name)
		if tn == nil {
			return nil, fmt.Errorf("csg: graph lacks table node %s", t.Name)
		}
		rows := db.Rows(t.Name)
		for i := range rows {
			in.AddElement(tn, tupleID(t.Name, i))
		}
		for ci, c := range t.Columns {
			an := g.Node(AttributeNodeID(t.Name, c.Name))
			edge := g.EdgeBetween(t.Name, an.ID)
			if edge == nil {
				return nil, fmt.Errorf("csg: graph lacks edge %s -> %s", t.Name, an.ID)
			}
			if c.Type == relational.String {
				// Columnar fast path: dictionary codes replace the
				// per-row rendering and hash-set dedup; first-occurrence
				// element order is preserved because codes are scanned in
				// row order.
				if vec := db.Vector(t.Name, c.Name); vec != nil {
					dict, codes, nulls := vec.Dict(), vec.Codes(), vec.Nulls()
					seen := make([]bool, len(dict))
					for i, code := range codes {
						if nulls.Get(i) {
							continue
						}
						val := dict[code]
						if !seen[code] {
							seen[code] = true
							in.AddElement(an, val)
						}
						in.AddLink(edge, tupleID(t.Name, i), val)
					}
					continue
				}
			}
			seen := make(map[string]struct{})
			for i, row := range rows {
				v := row[ci]
				if v == nil {
					continue
				}
				val := relational.FormatValue(v)
				if _, dup := seen[val]; !dup {
					seen[val] = struct{}{}
					in.AddElement(an, val)
				}
				in.AddLink(edge, tupleID(t.Name, i), val)
			}
		}
	}
	// Equality edges: link equal elements of the two attribute nodes.
	// Each undirected relationship is processed exactly once, tracked by
	// an explicit set. (Inferring "already processed" from links-map
	// presence is wrong: a zero-overlap equality relationship adds no
	// links, so its inverse direction would be scanned a second time —
	// and the scheme breaks silently the moment any earlier step touches
	// the links map.)
	doneEq := make(map[*Edge]bool)
	for _, e := range g.Edges() {
		if e.Kind != EqualityEdge || doneEq[e] || doneEq[e.Inverse] {
			continue
		}
		doneEq[e] = true
		toSet := make(map[string]struct{}, len(in.elements[e.To]))
		for _, v := range in.elements[e.To] {
			toSet[v] = struct{}{}
		}
		for _, v := range in.elements[e.From] {
			if _, eq := toSet[v]; eq {
				in.AddLink(e, v, v)
			}
		}
	}
	return in, nil
}

// LinkCounts computes, for every element of the start node of path p, the
// number of distinct end-node elements reachable along p (the actual
// cardinality distribution). Elements with zero reachable ends are
// included with count 0.
func (in *Instance) LinkCounts(p Path) map[string]int {
	counts := make(map[string]int)
	if !p.Valid() {
		return counts
	}
	for _, start := range in.elements[p.Start()] {
		frontier := map[string]struct{}{start: {}}
		for _, e := range p {
			next := make(map[string]struct{})
			for elem := range frontier {
				for _, to := range in.Links(e, elem) {
					next[to] = struct{}{}
				}
			}
			frontier = next
		}
		counts[start] = len(frontier)
	}
	return counts
}

// ActualCard summarizes the link counts of a path into the tightest
// interval covering all observed counts. An instance without start
// elements yields the empty cardinality.
func (in *Instance) ActualCard(p Path) Card {
	counts := in.LinkCounts(p)
	if len(counts) == 0 {
		return CardEmpty
	}
	first := true
	var lo, hi int64
	for _, n := range counts {
		v := int64(n)
		if first {
			lo, hi = v, v
			first = false
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return Interval(lo, hi)
}

// CountViolations counts the elements of the start node of p whose number
// of reachable end elements is not admitted by the prescribed cardinality.
func (in *Instance) CountViolations(p Path, prescribed Card) int {
	violations := 0
	for _, n := range in.LinkCounts(p) {
		if !prescribed.Contains(int64(n)) {
			violations++
		}
	}
	return violations
}
