package csg

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"efes/internal/relational"
)

// internTestSchema exercises every interning path: integer, string, and
// float columns, a nullable column, and an equality edge whose overlap the
// generator controls.
func internTestSchema() *relational.Schema {
	s := relational.NewSchema("intern")
	s.MustAddTable(relational.MustTable("items",
		relational.Column{Name: "id", Type: relational.Integer},
		relational.Column{Name: "label", Type: relational.String},
		relational.Column{Name: "score", Type: relational.Float},
		relational.Column{Name: "ref", Type: relational.String},
	))
	s.MustAddTable(relational.MustTable("cats",
		relational.Column{Name: "key", Type: relational.String},
		relational.Column{Name: "name", Type: relational.String},
	))
	s.MustAddConstraint(relational.PrimaryKey{Table: "items", Columns: []string{"id"}})
	s.MustAddConstraint(relational.NotNullConstraint{Table: "cats", Column: "key"})
	s.MustAddConstraint(relational.ForeignKey{Table: "items", Columns: []string{"ref"}, RefTable: "cats", RefColumns: []string{"key"}})
	return s
}

// adversarialLabels contains the separator characters of PairElem and the
// tuple-ID rendering, so rendered-string handling cannot cheat.
var adversarialLabels = []string{
	"", "a", "b|c", "1:x", "items#0", "#", "|", ":", "2:a|b", "0:|", "a:b|c:d", "x#9",
}

// randomInternDatabase fills the intern test schema with adversarial
// strings, repeated and NaN floats, NULLs, and a partially overlapping
// equality relationship. FromDatabase does not validate, so dangling refs
// are present by construction.
func randomInternDatabase(r *rand.Rand) *relational.Database {
	db := relational.NewDatabase(internTestSchema())
	cats := r.Intn(8)
	for i := 0; i < cats; i++ {
		var name relational.Value
		if r.Intn(3) > 0 {
			name = adversarialLabels[r.Intn(len(adversarialLabels))]
		}
		db.MustInsert("cats", fmt.Sprintf("k%d", r.Intn(6)), name)
	}
	items := r.Intn(20)
	for i := 0; i < items; i++ {
		var label, ref, score relational.Value
		if r.Intn(4) > 0 {
			label = adversarialLabels[r.Intn(len(adversarialLabels))]
		}
		if r.Intn(3) > 0 {
			// Half the refs target keys that may exist, half dangle.
			if r.Intn(2) == 0 {
				ref = fmt.Sprintf("k%d", r.Intn(6))
			} else {
				ref = fmt.Sprintf("dangling%d", r.Intn(4))
			}
		}
		if r.Intn(4) > 0 {
			switch r.Intn(4) {
			case 0:
				score = math.NaN()
			case 1:
				score = 0.0
			default:
				score = float64(r.Intn(5)) / 4
			}
		}
		db.MustInsert("items", int64(i), label, score, ref)
	}
	return db
}

// oracleViolationSplit is the reference sample selection: sort all start
// elements, scan in order, and keep the first maxSamples violating ones per
// class — the semantics the structure detector had before the interned
// instance took over.
func oracleViolationSplit(in *Instance, p Path, prescribed Card, maxSamples int) (below, above int, belowSamples, aboveSamples []string) {
	counts := in.LinkCounts(p)
	elems := make([]string, 0, len(counts))
	for elem := range counts {
		elems = append(elems, elem)
	}
	sort.Strings(elems)
	for _, elem := range elems {
		v := int64(counts[elem])
		switch {
		case prescribed.Contains(v):
		case prescribed.IsEmpty() || v < prescribed.Lo:
			below++
			if len(belowSamples) < maxSamples {
				belowSamples = append(belowSamples, elem)
			}
		default:
			above++
			if len(aboveSamples) < maxSamples {
				aboveSamples = append(aboveSamples, elem)
			}
		}
	}
	return below, above, belowSamples, aboveSamples
}

// TestInternedMatchesOracle is the central property of the interned
// instance: over randomized databases, elements, links, link counts, actual
// cardinalities, violation counts, splits, and samples must match the
// string-based Instance byte for byte.
func TestInternedMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	sampleCards := []Card{CardOne, CardOpt, CardMany, CardAny, CardEmpty, Exactly(0), Exactly(2), Interval(2, 3)}
	for round := 0; round < 40; round++ {
		db := randomInternDatabase(r)
		g := MustFromSchema(db.Schema)
		oracle, err := FromDatabase(g, db)
		if err != nil {
			t.Fatal(err)
		}
		in, err := FromDatabaseInterned(g, db)
		if err != nil {
			t.Fatal(err)
		}
		nodes := g.Nodes()
		for _, n := range nodes {
			if got, want := in.NumElements(n), oracle.NumElements(n); got != want {
				t.Fatalf("round %d: NumElements(%s) = %d, want %d", round, n.ID, got, want)
			}
			if got, want := in.Elements(n), oracle.Elements(n); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: Elements(%s) = %q, want %q", round, n.ID, got, want)
			}
		}
		for _, e := range g.Edges() {
			for _, elem := range oracle.Elements(e.From) {
				if got, want := in.Links(e, elem), oracle.Links(e, elem); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: Links(%s, %q) = %q, want %q", round, e, elem, got, want)
				}
			}
			if got := in.Links(e, "no such element"); got != nil {
				t.Fatalf("round %d: Links of unknown element = %q", round, got)
			}
		}
		// A fresh instance queried in shuffled node and edge order builds
		// its element tables and adjacencies in that order, and a
		// single-edge link count may be its first touch of a node.
		fresh := MustFromDatabaseInterned(g, db)
		edges := g.Edges()
		for _, k := range rand.New(rand.NewSource(int64(round))).Perm(len(nodes) + len(edges)) {
			if k < len(nodes) {
				n := nodes[k]
				if got, want := fresh.Elements(n), oracle.Elements(n); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: fresh Elements(%s) = %q, want %q", round, n.ID, got, want)
				}
				continue
			}
			e := edges[k-len(nodes)]
			oc, dense := oracle.LinkCounts(Path{e}), fresh.LinkCounts(Path{e})
			elems := oracle.Elements(e.From)
			if len(dense) != len(elems) {
				t.Fatalf("round %d: fresh counts of %s sized %d, want %d", round, e, len(dense), len(elems))
			}
			for i, elem := range elems {
				if int(dense[i]) != oc[elem] {
					t.Fatalf("round %d: fresh count(%s, %q) = %d, want %d", round, e, elem, dense[i], oc[elem])
				}
				if got, want := fresh.Links(e, elem), oracle.Links(e, elem); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: fresh Links(%s, %q) = %q, want %q", round, e, elem, got, want)
				}
			}
		}
		// Random composed paths: counts, cards, violations, splits.
		for trial := 0; trial < 12; trial++ {
			from := nodes[r.Intn(len(nodes))]
			to := nodes[r.Intn(len(nodes))]
			if from == to {
				continue
			}
			for _, p := range FindPaths(g, from, to, 5) {
				oc := oracle.LinkCounts(p)
				dense := in.LinkCounts(p)
				elems := oracle.Elements(p.Start())
				if len(dense) != len(elems) || len(oc) != len(elems) {
					t.Fatalf("round %d: path %s: counts sized %d/%d, want %d", round, p, len(dense), len(oc), len(elems))
				}
				for i, elem := range elems {
					if int(dense[i]) != oc[elem] {
						t.Fatalf("round %d: path %s: count(%q) = %d, want %d", round, p, elem, dense[i], oc[elem])
					}
				}
				if got, want := in.ActualCard(p), oracle.ActualCard(p); !got.Equal(want) {
					t.Fatalf("round %d: path %s: ActualCard = %s, want %s", round, p, got, want)
				}
				card := sampleCards[r.Intn(len(sampleCards))]
				if got, want := in.CountViolations(p, card), oracle.CountViolations(p, card); got != want {
					t.Fatalf("round %d: path %s: CountViolations(%s) = %d, want %d", round, p, card, got, want)
				}
				ib, ia, ibs, ias := in.ViolationSplit(p, card, 3)
				ob, oa, obs, oas := oracleViolationSplit(oracle, p, card, 3)
				if ib != ob || ia != oa || !reflect.DeepEqual(ibs, obs) || !reflect.DeepEqual(ias, oas) {
					t.Fatalf("round %d: path %s κ=%s: split = (%d, %d, %q, %q), want (%d, %d, %q, %q)",
						round, p, card, ib, ia, ibs, ias, ob, oa, obs, oas)
				}
			}
		}
		// The Rel evaluators accept both Source implementations.
		ea := g.EdgeBetween(AttributeNodeID("items", "label"), "items")
		eb := g.EdgeBetween(AttributeNodeID("items", "ref"), "items")
		rels := []Rel{
			AtomicRel{P: Path{ea}},
			UnionRel{A: AtomicRel{P: Path{ea}}, B: AtomicRel{P: Path{eb}}, DomainCase: EqualDomainsOverlappingCodomains},
			JoinRel{A: AtomicRel{P: Path{ea}}, B: AtomicRel{P: Path{eb}}},
		}
		for _, rel := range rels {
			if got, want := RelLinkCounts(in, rel), RelLinkCounts(oracle, rel); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: RelLinkCounts(%s) diverges:\ngot  %v\nwant %v", round, rel, got, want)
			}
		}
		gotN, err1 := CheckNaryUnique(g, in, "items", "label", "ref")
		wantN, err2 := CheckNaryUnique(g, oracle, "items", "label", "ref")
		if err1 != nil || err2 != nil || gotN != wantN {
			t.Fatalf("round %d: CheckNaryUnique = %d/%v, want %d/%v", round, gotN, err1, wantN, err2)
		}
		// UnequalValues against a direct set-difference on the oracle.
		fromN := g.Node(AttributeNodeID("items", "ref"))
		toN := g.Node(AttributeNodeID("cats", "key"))
		want := 0
		set := make(map[string]bool)
		for _, v := range oracle.Elements(toN) {
			set[v] = true
		}
		for _, v := range oracle.Elements(fromN) {
			if !set[v] {
				want++
			}
		}
		if got := in.UnequalValues(fromN, toN); got != want {
			t.Fatalf("round %d: UnequalValues = %d, want %d", round, got, want)
		}
	}
}

// TestInternedBoolAndTimeColumns covers the rendered-string fallback of
// buildAttribute.
func TestInternedBoolAndTimeColumns(t *testing.T) {
	s := relational.NewSchema("bools")
	s.MustAddTable(relational.MustTable("flags",
		relational.Column{Name: "on", Type: relational.Bool},
	))
	db := relational.NewDatabase(s)
	db.MustInsert("flags", true)
	db.MustInsert("flags", false)
	db.MustInsert("flags", nil)
	db.MustInsert("flags", true)
	g := MustFromSchema(s)
	oracle := mustFromDatabase(t, g, db)
	in := MustFromDatabaseInterned(g, db)
	n := g.Node(AttributeNodeID("flags", "on"))
	if got, want := in.Elements(n), oracle.Elements(n); !reflect.DeepEqual(got, want) {
		t.Fatalf("bool elements = %q, want %q", got, want)
	}
	e := g.EdgeBetween("flags", n.ID)
	for _, elem := range oracle.Elements(g.Node("flags")) {
		if got, want := in.Links(e, elem), oracle.Links(e, elem); !reflect.DeepEqual(got, want) {
			t.Fatalf("bool links(%q) = %q, want %q", elem, got, want)
		}
	}
}

func mustFromDatabase(t *testing.T, g *Graph, db *relational.Database) *Instance {
	t.Helper()
	in, err := FromDatabase(g, db)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestZeroOverlapEqualityProcessedOnce: an equality relationship whose
// attribute nodes share no values must yield empty links in both
// directions — and its processing must not depend on whether links were
// recorded (the former links-map-presence inference re-scanned such edges).
func TestZeroOverlapEqualityProcessedOnce(t *testing.T) {
	db := relational.NewDatabase(internTestSchema())
	db.MustInsert("cats", "a", nil)
	db.MustInsert("cats", "b", nil)
	db.MustInsert("items", int64(1), "x", nil, "p")
	db.MustInsert("items", int64(2), "y", nil, "q")
	g := MustFromSchema(db.Schema)
	eq := g.EdgeBetween(AttributeNodeID("items", "ref"), AttributeNodeID("cats", "key"))
	if eq == nil {
		t.Fatal("missing equality edge")
	}
	oracle := mustFromDatabase(t, g, db)
	in := MustFromDatabaseInterned(g, db)
	for _, e := range []*Edge{eq, eq.Inverse} {
		for _, src := range [](interface {
			Links(*Edge, string) []string
			Elements(*Node) []string
		}){oracle, in} {
			for _, elem := range src.Elements(e.From) {
				if links := src.Links(e, elem); len(links) != 0 {
					t.Errorf("zero-overlap equality %s links(%q) = %q, want none", e, elem, links)
				}
			}
		}
	}
	// Partial overlap: each shared value links exactly once per direction.
	db2 := relational.NewDatabase(internTestSchema())
	db2.MustInsert("cats", "p", nil)
	db2.MustInsert("cats", "z", nil)
	db2.MustInsert("items", int64(1), "x", nil, "p")
	db2.MustInsert("items", int64(2), "y", nil, "q")
	g2 := MustFromSchema(db2.Schema)
	eq2 := g2.EdgeBetween(AttributeNodeID("items", "ref"), AttributeNodeID("cats", "key"))
	for _, src := range []Source{mustFromDatabase(t, g2, db2), MustFromDatabaseInterned(g2, db2)} {
		if got := src.Links(eq2, "p"); !reflect.DeepEqual(got, []string{"p"}) {
			t.Errorf("overlap links(p) = %q, want [p]", got)
		}
		if got := src.Links(eq2.Inverse, "p"); !reflect.DeepEqual(got, []string{"p"}) {
			t.Errorf("overlap inverse links(p) = %q, want [p]", got)
		}
		if got := src.Links(eq2, "q"); got != nil {
			t.Errorf("dangling links(q) = %q, want none", got)
		}
	}
}

// TestDuplicateForeignKeyDeduped: declaring the same column pair twice —
// as repeated constraints or repeated pairs within one composite key —
// must produce a single equality edge, not aliased twins invisible to
// EdgeBetween.
func TestDuplicateForeignKeyDeduped(t *testing.T) {
	s := internTestSchema()
	// The same FK a second time, and a composite key repeating the pair.
	s.MustAddConstraint(relational.ForeignKey{Table: "items", Columns: []string{"ref"}, RefTable: "cats", RefColumns: []string{"key"}})
	s.MustAddConstraint(relational.ForeignKey{Table: "items", Columns: []string{"ref", "ref"}, RefTable: "cats", RefColumns: []string{"key", "key"}})
	g := MustFromSchema(s)
	from := g.Node(AttributeNodeID("items", "ref"))
	count := 0
	for _, e := range g.OutEdges(from) {
		if e.Kind == EqualityEdge {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("equality edges from items.ref = %d, want 1", count)
	}
	// The instance links remain single too.
	db := relational.NewDatabase(s)
	db.MustInsert("cats", "p", nil)
	db.MustInsert("items", int64(1), "x", nil, "p")
	eq := g.EdgeBetween(from.ID, AttributeNodeID("cats", "key"))
	for _, src := range []Source{mustFromDatabase(t, g, db), MustFromDatabaseInterned(g, db)} {
		if got := src.Links(eq, "p"); !reflect.DeepEqual(got, []string{"p"}) {
			t.Errorf("links(p) = %q, want [p]", got)
		}
	}
}

// TestPairElemSplitPairProperty round-trips random and nested pairs built
// from adversarial separator-laden strings.
func TestPairElemSplitPairProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 500; round++ {
		a := adversarialLabels[r.Intn(len(adversarialLabels))]
		b := adversarialLabels[r.Intn(len(adversarialLabels))]
		p := PairElem(a, b)
		ga, gb, ok := SplitPair(p)
		if !ok || ga != a || gb != b {
			t.Fatalf("SplitPair(PairElem(%q, %q)) = (%q, %q, %v)", a, b, ga, gb, ok)
		}
		// Nest in both positions.
		c := adversarialLabels[r.Intn(len(adversarialLabels))]
		nested := PairElem(p, c)
		gp, gc, ok := SplitPair(nested)
		if !ok || gp != p || gc != c {
			t.Fatalf("left-nested round trip failed: (%q, %q, %v)", gp, gc, ok)
		}
		nested = PairElem(c, p)
		gc, gp, ok = SplitPair(nested)
		if !ok || gc != c || gp != p {
			t.Fatalf("right-nested round trip failed: (%q, %q, %v)", gc, gp, ok)
		}
	}
	// Malformed inputs decode to not-ok rather than panicking.
	for _, bad := range []string{"", "x", "5:ab|c", "1:", ":|", "-1:a|b", "2:ab", "1x:a|b",
		"+1:a|b", "01:a|b", "00:|x", "9223372036854775807:a|b"} {
		if _, _, ok := SplitPair(bad); ok {
			t.Errorf("SplitPair(%q) = ok, want failure", bad)
		}
	}
}

// FuzzSplitPair: SplitPair never panics, and whatever it accepts is the
// PairElem encoding of the pair it returns. The seed corpus is in
// testdata/fuzz/FuzzSplitPair.
func FuzzSplitPair(f *testing.F) {
	f.Fuzz(func(t *testing.T, p string) {
		if a, b, ok := SplitPair(p); ok && PairElem(a, b) != p {
			t.Fatalf("SplitPair(%q) = (%q, %q), which encodes as %q", p, a, b, PairElem(a, b))
		}
	})
}

// TestFromDatabaseInternedForeignGraph: a graph that does not cover the
// database fails at construction, before anything is interned, and a
// node or edge of another graph reads as absent.
func TestFromDatabaseInternedForeignGraph(t *testing.T) {
	db := relational.NewDatabase(internTestSchema())
	db.MustInsert("cats", "k1", "a")
	db.MustInsert("items", int64(1), "x", 0.5, "k1")

	noItems := relational.NewSchema("no-items")
	noItems.MustAddTable(relational.MustTable("cats",
		relational.Column{Name: "key", Type: relational.String},
		relational.Column{Name: "name", Type: relational.String},
	))
	noRef := relational.NewSchema("no-ref")
	noRef.MustAddTable(relational.MustTable("items",
		relational.Column{Name: "id", Type: relational.Integer},
		relational.Column{Name: "label", Type: relational.String},
		relational.Column{Name: "score", Type: relational.Float},
	))
	extraFK := internTestSchema()
	extraFK.MustAddTable(relational.MustTable("extra",
		relational.Column{Name: "cat", Type: relational.String},
	))
	extraFK.MustAddConstraint(relational.ForeignKey{Table: "extra", Columns: []string{"cat"}, RefTable: "cats", RefColumns: []string{"key"}})
	for _, c := range []struct {
		schema *relational.Schema
		want   string
	}{
		{noItems, "csg: graph lacks table node items"},
		{noRef, "csg: graph lacks edge items -> items.ref"},
		{extraFK, "csg: equality edge extra.cat -> cats.key [1] references missing element table"},
	} {
		in, err := FromDatabaseInterned(MustFromSchema(c.schema), db)
		if err == nil || err.Error() != c.want {
			t.Errorf("graph of %s: FromDatabaseInterned = (%v, %v), want error %q", c.schema.Name, in, err, c.want)
		}
	}

	g := MustFromSchema(db.Schema)
	in := MustFromDatabaseInterned(g, db)
	other := MustFromSchema(internTestSchema())
	label := other.Node(AttributeNodeID("items", "label"))
	e := other.EdgeBetween("items", label.ID)
	if n := in.NumElements(other.Node("items")); n != 0 {
		t.Errorf("foreign table node has %d elements, want 0", n)
	}
	if n := in.NumElements(label); n != 0 || in.Elements(label) != nil {
		t.Errorf("foreign attribute node has %d elements (%q), want none", n, in.Elements(label))
	}
	if links := in.Links(e, "items#0"); links != nil {
		t.Errorf("foreign edge links = %q, want none", links)
	}
	if counts := in.LinkCounts(Path{e}); counts != nil {
		t.Errorf("foreign path counts = %v, want nil", counts)
	}
	if n := in.NumElements(g.Node(AttributeNodeID("items", "label"))); n != 1 {
		t.Errorf("own attribute node has %d elements, want 1", n)
	}
}

// TestCardIntersect pins the interval-intersection algebra used by the
// planner's post-repair cardinality.
func TestCardIntersect(t *testing.T) {
	cases := []struct {
		a, b Card
		want Card
	}{
		{CardAny, CardMany, CardMany},
		{CardOpt, CardMany, CardOne},
		{CardOne, CardOpt, CardOne},
		{Exactly(0), CardMany, CardEmpty},
		{CardEmpty, CardAny, CardEmpty},
		{CardAny, CardEmpty, CardEmpty},
		{Interval(2, 5), Interval(4, 9), Interval(4, 5)},
		{Interval(2, 3), Interval(4, 9), CardEmpty},
		{CardAny, CardAny, CardAny},
	}
	for _, c := range cases {
		if got := c.a.Intersect(c.b); !got.Equal(c.want) {
			t.Errorf("%s ∩ %s = %s, want %s", c.a, c.b, got, c.want)
		}
		if got := c.b.Intersect(c.a); !got.Equal(c.want) {
			t.Errorf("intersect not commutative: %s ∩ %s = %s, want %s", c.b, c.a, got, c.want)
		}
	}
}
