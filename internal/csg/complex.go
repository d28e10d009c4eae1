package csg

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file implements the complex-relationship side of the formalism:
// beyond path composition ('∘', covered by Path), the union ('∪'), join
// ('⋈'), and collateral ('∥') operators of §4.1 both at the cardinality
// level (card.go) and at the instance level, so that n-ary uniqueness and
// n-ary foreign key constraints can be expressed and checked.

// Source is the instance view the relationship evaluators read: elements
// per node and links per atomic relationship, as rendered strings. The
// interned instance implements it, and so does the string-element oracle
// the tests compare it with, so every Rel evaluates against either
// representation.
type Source interface {
	// Elements returns the elements assigned to a node.
	Elements(n *Node) []string
	// NumElements returns the number of elements of a node.
	NumElements(n *Node) int
	// Links returns the targets linked to elem via the atomic
	// relationship e.
	Links(e *Edge, elem string) []string
}

// Rel is a relationship that can be evaluated against an instance: atomic
// edges, compositions, unions, joins, and collaterals all implement it.
// Elements of derived domains are encoded as strings; pair domains use
// PairElem.
type Rel interface {
	// InferredCard infers the relationship's cardinality from its
	// operands (Lemmas 1-4).
	InferredCard() Card
	// Links returns the elements related to elem under the instance.
	Links(in Source, elem string) []string
	// Domain enumerates the domain elements under the instance.
	Domain(in Source) []string
	// String renders the relationship term.
	String() string
}

// PairElem encodes an element of a product domain A × B.
func PairElem(a, b string) string {
	return fmt.Sprintf("%d:%s|%s", len(a), a, b)
}

// SplitPair decodes a PairElem. It accepts only the encoding PairElem
// writes: the length is plain decimal, without sign or leading zeros, so
// two distinct strings never decode to the same pair.
func SplitPair(p string) (string, string, bool) {
	i := strings.IndexByte(p, ':')
	if i < 1 || (p[0] == '0' && i > 1) || strings.Trim(p[:i], "0123456789") != "" {
		return "", "", false
	}
	n, err := strconv.Atoi(p[:i])
	rest := p[i+1:]
	if err != nil || n >= len(rest) || rest[n] != '|' {
		return "", "", false
	}
	return rest[:n], rest[n+1:], true
}

// AtomicRel wraps a Path (one or more composed edges) as a Rel.
type AtomicRel struct {
	// P is the underlying path.
	P Path
}

// InferredCard implements Rel.
func (a AtomicRel) InferredCard() Card { return a.P.InferredCard() }

// Links implements Rel: distinct elements reachable along the path.
func (a AtomicRel) Links(in Source, elem string) []string {
	frontier := map[string]struct{}{elem: {}}
	for _, e := range a.P {
		next := make(map[string]struct{})
		for el := range frontier {
			for _, to := range in.Links(e, el) {
				next[to] = struct{}{}
			}
		}
		frontier = next
	}
	out := make([]string, 0, len(frontier))
	for el := range frontier {
		out = append(out, el)
	}
	sort.Strings(out)
	return out
}

// Domain implements Rel.
func (a AtomicRel) Domain(in Source) []string {
	if !a.P.Valid() {
		return nil
	}
	return in.Elements(a.P.Start())
}

// String implements Rel.
func (a AtomicRel) String() string { return a.P.String() }

// UnionRel is ρ1 ∪ ρ2: all links of both relationships. Both operands
// must share their start node.
type UnionRel struct {
	A, B Rel
	// DomainCase selects the Lemma-2 case used for cardinality
	// inference.
	DomainCase DomainRelation
}

// InferredCard implements Rel (Lemma 2).
func (u UnionRel) InferredCard() Card {
	return Union(u.A.InferredCard(), u.B.InferredCard(), u.DomainCase)
}

// Links implements Rel.
func (u UnionRel) Links(in Source, elem string) []string {
	seen := make(map[string]struct{})
	var out []string
	for _, r := range []Rel{u.A, u.B} {
		for _, to := range r.Links(in, elem) {
			if _, dup := seen[to]; !dup {
				seen[to] = struct{}{}
				out = append(out, to)
			}
		}
	}
	return out
}

// Domain implements Rel: the union of both domains.
func (u UnionRel) Domain(in Source) []string {
	seen := make(map[string]struct{})
	var out []string
	for _, r := range []Rel{u.A, u.B} {
		for _, el := range r.Domain(in) {
			if _, dup := seen[el]; !dup {
				seen[el] = struct{}{}
				out = append(out, el)
			}
		}
	}
	return out
}

// String implements Rel.
func (u UnionRel) String() string { return "(" + u.A.String() + " ∪ " + u.B.String() + ")" }

// JoinRel is ρ_A→C ⋈ ρ_B→C: it relates pairs (a, b) to the common end
// elements c with (a,c) ∈ ρ1 and (b,c) ∈ ρ2 (§4.1: "the join can be
// combined with other operators to express n-ary uniqueness constraints").
type JoinRel struct {
	A, B Rel
}

// InferredCard implements Rel (Lemma 3).
func (j JoinRel) InferredCard() Card {
	return Join(j.A.InferredCard(), j.B.InferredCard())
}

// InverseCard infers the cardinality of the inverse join (Lemma 3).
func (j JoinRel) InverseCard() Card {
	return JoinInverse(j.A.InferredCard(), j.B.InferredCard())
}

// Links implements Rel: for a pair element (a,b), the common codomain
// elements.
func (j JoinRel) Links(in Source, elem string) []string {
	a, b, ok := SplitPair(elem)
	if !ok {
		return nil
	}
	bLinks := make(map[string]struct{})
	for _, c := range j.B.Links(in, b) {
		bLinks[c] = struct{}{}
	}
	var out []string
	for _, c := range j.A.Links(in, a) {
		if _, shared := bLinks[c]; shared {
			out = append(out, c)
		}
	}
	return out
}

// Domain implements Rel: all pairs (a, b) of the operand domains that
// share at least one codomain element... per Definition the domain is
// A × B; pairs without common elements simply have zero links.
func (j JoinRel) Domain(in Source) []string {
	var out []string
	for _, a := range j.A.Domain(in) {
		for _, b := range j.B.Domain(in) {
			out = append(out, PairElem(a, b))
		}
	}
	return out
}

// String implements Rel.
func (j JoinRel) String() string { return "(" + j.A.String() + " ⋈ " + j.B.String() + ")" }

// CollateralRel is ρ_A→B ∥ ρ_C→D: it relates pairs (a, c) to pairs (b, d)
// with (a,b) ∈ ρ1 and (c,d) ∈ ρ2 (§4.1: "the collateral can be applied to
// express n-ary foreign keys").
type CollateralRel struct {
	A, B Rel
}

// InferredCard implements Rel (Lemma 4).
func (c CollateralRel) InferredCard() Card {
	return Collateral(c.A.InferredCard(), c.B.InferredCard())
}

// Links implements Rel.
func (c CollateralRel) Links(in Source, elem string) []string {
	a, b, ok := SplitPair(elem)
	if !ok {
		return nil
	}
	var out []string
	for _, x := range c.A.Links(in, a) {
		for _, y := range c.B.Links(in, b) {
			out = append(out, PairElem(x, y))
		}
	}
	return out
}

// Domain implements Rel: the product of the operand domains.
func (c CollateralRel) Domain(in Source) []string {
	var out []string
	for _, a := range c.A.Domain(in) {
		for _, b := range c.B.Domain(in) {
			out = append(out, PairElem(a, b))
		}
	}
	return out
}

// String implements Rel.
func (c CollateralRel) String() string { return "(" + c.A.String() + " ∥ " + c.B.String() + ")" }

// RelLinkCounts computes the number of linked elements per domain element
// of an arbitrary complex relationship.
func RelLinkCounts(in Source, r Rel) map[string]int {
	out := make(map[string]int)
	for _, elem := range r.Domain(in) {
		out[elem] = len(r.Links(in, elem))
	}
	return out
}

// CountRelViolations counts the domain elements whose link count the
// prescribed cardinality does not admit.
func CountRelViolations(in Source, r Rel, prescribed Card) int {
	violations := 0
	for _, n := range RelLinkCounts(in, r) {
		if !prescribed.Contains(int64(n)) {
			violations++
		}
	}
	return violations
}

// CheckNaryUnique checks an n-ary uniqueness constraint over two
// attributes of one table using the join of their inverse relationships:
// the constraint holds iff every (value-a, value-b) pair encloses at most
// one common tuple. It returns the number of violating pairs.
func CheckNaryUnique(g *Graph, in Source, table string, attrA, attrB string) (int, error) {
	ea := g.EdgeBetween(AttributeNodeID(table, attrA), table)
	eb := g.EdgeBetween(AttributeNodeID(table, attrB), table)
	if ea == nil || eb == nil {
		return 0, fmt.Errorf("csg: table %s lacks attributes %s/%s", table, attrA, attrB)
	}
	join := JoinRel{A: AtomicRel{P: Path{ea}}, B: AtomicRel{P: Path{eb}}}
	violations := 0
	for _, n := range RelLinkCounts(in, join) {
		if n > 1 {
			violations++
		}
	}
	return violations, nil
}
