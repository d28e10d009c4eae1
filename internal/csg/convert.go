package csg

import (
	"fmt"

	"efes/internal/relational"
)

// AttributeNodeID returns the node ID used for an attribute node.
func AttributeNodeID(table, column string) string { return table + "." + column }

// FromSchema converts a relational schema into a CSG per §4.1:
//
//   - each relation becomes a table node;
//   - each attribute becomes an attribute node connected to its table
//     node, with κ(tuple→value) = 1 if NOT NULL else 0..1 (each tuple has
//     at most one value per attribute), and κ(value→tuple) = 1 if UNIQUE
//     else 1..* (each distinct value is contained in at least one tuple);
//   - each single-column foreign key becomes an equality edge between the
//     two attribute nodes with κ(fk→ref) = 1 (every FK value equals
//     exactly one referenced value) and κ(ref→fk) = 0..1 (attribute nodes
//     hold distinct values, so at most one equal value exists).
//
// Composite foreign keys are represented by one equality edge per column
// pair; the collateral operator ('∥', Lemma 4) covers their combined
// semantics.
func FromSchema(s *relational.Schema) (*Graph, error) {
	g := NewGraph(s.Name)
	for _, t := range s.Tables() {
		tn := &Node{ID: t.Name, Kind: TableNode, Table: t.Name}
		if err := g.AddNode(tn); err != nil {
			return nil, err
		}
		for _, c := range t.Columns {
			an := &Node{ID: AttributeNodeID(t.Name, c.Name), Kind: AttributeNode, Table: t.Name, Attribute: c.Name}
			if err := g.AddNode(an); err != nil {
				return nil, err
			}
			fwd := CardOpt
			if s.NotNull(t.Name, c.Name) {
				fwd = CardOne
			}
			back := CardMany
			if s.Unique(t.Name, c.Name) {
				back = CardOne
			}
			if _, err := g.Connect(tn, an, fwd, back, AttributeEdge); err != nil {
				return nil, err
			}
		}
	}
	// Duplicate FK declarations (the same table.column → reftable.column
	// pair declared twice, or repeated across composite keys) must not
	// produce aliased equality edges: EdgeBetween returns only the first
	// edge between two nodes, so a second identical edge would be
	// populated by FromDatabase yet invisible to every lookup.
	seenFK := make(map[[2]*Node]bool)
	for _, fk := range s.ForeignKeys() {
		for i := range fk.Columns {
			from := g.Node(AttributeNodeID(fk.Table, fk.Columns[i]))
			to := g.Node(AttributeNodeID(fk.RefTable, fk.RefColumns[i]))
			if from == nil || to == nil {
				return nil, fmt.Errorf("csg: foreign key references missing node (%v)", fk)
			}
			if seenFK[[2]*Node{from, to}] {
				continue
			}
			seenFK[[2]*Node{from, to}] = true
			if _, err := g.Connect(from, to, CardOne, CardOpt, EqualityEdge); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// MustFromSchema is FromSchema but panics on error.
func MustFromSchema(s *relational.Schema) *Graph {
	g, err := FromSchema(s)
	if err != nil {
		panic(err)
	}
	return g
}

// tupleID renders the element of tuple row of table, the identity an
// instance shows for table-node elements.
func tupleID(table string, row int) string {
	return fmt.Sprintf("%s#%d", table, row)
}
