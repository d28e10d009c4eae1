package csg

import (
	"fmt"
	"math/rand"
	"testing"

	"efes/internal/relational"
)

// randomValidDB generates a random instance of the Figure-2 source schema
// that satisfies every declared constraint: the preconditions of the
// cardinality inference.
func randomValidDB(t *testing.T, r *rand.Rand) *relational.Database {
	t.Helper()
	s := figure2Source()
	db := relational.NewDatabase(s)
	lists := 1 + r.Intn(12)
	for i := 0; i < lists; i++ {
		db.MustInsert("artist_lists", fmt.Sprintf("L%d", i))
		credits := r.Intn(4)
		for c := 0; c < credits; c++ {
			db.MustInsert("artist_credits", fmt.Sprintf("L%d", i), c+1, fmt.Sprintf("Artist %d", r.Intn(8)))
		}
	}
	albums := r.Intn(10)
	for i := 0; i < albums; i++ {
		db.MustInsert("albums", i+1, fmt.Sprintf("Album %d", r.Intn(6)), fmt.Sprintf("L%d", r.Intn(lists)))
	}
	songs := r.Intn(20)
	for i := 0; i < songs; i++ {
		var album relational.Value
		if albums > 0 && r.Intn(4) > 0 {
			album = int64(r.Intn(albums) + 1)
		}
		var list relational.Value
		if r.Intn(4) > 0 {
			list = fmt.Sprintf("L%d", r.Intn(lists))
		}
		var length relational.Value
		if r.Intn(5) > 0 {
			length = int64(90000 + r.Intn(100000))
		}
		db.MustInsert("songs", album, fmt.Sprintf("Song %d", r.Intn(10)), list, length)
	}
	if viols := db.Validate(); len(viols) != 0 {
		t.Fatalf("generator produced an invalid instance: %v", viols[0])
	}
	return db
}

// randomValidInstance is randomValidDB converted to the interned CSG
// instance the estimate runs on.
func randomValidInstance(t *testing.T, r *rand.Rand) (*Graph, *Interned) {
	t.Helper()
	db := randomValidDB(t, r)
	g := MustFromSchema(db.Schema)
	in, err := FromDatabaseInterned(g, db)
	if err != nil {
		t.Fatal(err)
	}
	return g, in
}

// TestInferenceSoundOnValidInstances is the central soundness property of
// the formalism: on an instance that satisfies all prescribed atomic
// cardinalities, the Lemma-1 inferred cardinality of ANY composed
// relationship contains every actual link count.
func TestInferenceSoundOnValidInstances(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for round := 0; round < 30; round++ {
		g, in := randomValidInstance(t, r)

		// First: every atomic edge's actual counts respect its
		// prescribed cardinality (instance validity transfers to the
		// CSG view).
		for _, e := range g.Edges() {
			p := Path{e}
			for i, n := range in.LinkCounts(p) {
				if !e.Card.Contains(int64(n)) {
					t.Fatalf("round %d: atomic %s: element %s has %d links outside κ=%s",
						round, e, in.Elements(p.Start())[i], n, e.Card)
				}
			}
		}

		// Then: all composed paths between random node pairs.
		nodes := g.Nodes()
		for trial := 0; trial < 20; trial++ {
			from := nodes[r.Intn(len(nodes))]
			to := nodes[r.Intn(len(nodes))]
			if from == to {
				continue
			}
			for _, p := range FindPaths(g, from, to, 6) {
				inferred := p.InferredCard()
				for i, n := range in.LinkCounts(p) {
					if !inferred.Contains(int64(n)) {
						t.Fatalf("round %d: path %s: element %s has %d links outside inferred %s",
							round, p, in.Elements(p.Start())[i], n, inferred)
					}
				}
			}
		}
	}
}

// TestJoinInferenceSoundOnValidInstances checks Lemma 3 against instances:
// joinable pairs (those with at least one common codomain element) have
// link counts within the inferred join cardinality.
func TestJoinInferenceSoundOnValidInstances(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		g, in := randomValidInstance(t, r)
		table := g.Node("artist_credits")
		var attrEdges []*Edge
		for _, e := range g.OutEdges(table) {
			if e.Kind == AttributeEdge {
				attrEdges = append(attrEdges, e)
			}
		}
		for i := 0; i < len(attrEdges); i++ {
			for j := i + 1; j < len(attrEdges); j++ {
				jr := JoinRel{
					A: AtomicRel{P: Path{attrEdges[i].Inverse}},
					B: AtomicRel{P: Path{attrEdges[j].Inverse}},
				}
				inferred := jr.InferredCard()
				for _, n := range RelLinkCounts(in, jr) {
					if n == 0 {
						continue // non-joinable pair: domain slack
					}
					if inferred.IsEmpty() || !inferred.Contains(int64(n)) {
						t.Fatalf("round %d: join %s count %d outside %s", round, jr, n, inferred)
					}
				}
			}
		}
	}
}

// TestCollateralInferenceSoundOnValidInstances checks Lemma 4 against
// instances.
func TestCollateralInferenceSoundOnValidInstances(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for round := 0; round < 20; round++ {
		g, in := randomValidInstance(t, r)
		e1 := g.EdgeBetween("songs.album", "albums.id")
		e2 := g.EdgeBetween("songs.artist_list", "artist_lists.id")
		c := CollateralRel{A: AtomicRel{P: Path{e1}}, B: AtomicRel{P: Path{e2}}}
		inferred := c.InferredCard()
		for elem, n := range RelLinkCounts(in, c) {
			if !inferred.Contains(int64(n)) {
				t.Fatalf("round %d: collateral %s count %d outside %s", round, elem, n, inferred)
			}
		}
	}
}

// TestUnionInferenceSoundOnValidInstances checks Lemma 2 against
// instances: for every two paths FindPaths returns between the same two
// nodes, the union of the two relationships relates each start element to
// a number of end elements that the inferred union cardinality admits.
// Both paths start at the same node, so the domains are equal, and
// nothing keeps their codomains apart: the overlapping-codomains case.
// The check runs on the interned instance and on the string oracle.
func TestUnionInferenceSoundOnValidInstances(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	pairs, checks := 0, 0
	for round := 0; round < 20; round++ {
		db := randomValidDB(t, r)
		g := MustFromSchema(db.Schema)
		interned, err := FromDatabaseInterned(g, db)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := FromDatabase(g, db)
		if err != nil {
			t.Fatal(err)
		}
		instances := []struct {
			name string
			in   Source
		}{{"interned", interned}, {"oracle", oracle}}
		nodes := g.Nodes()
		for _, from := range nodes {
			for _, to := range nodes {
				if from == to {
					continue
				}
				paths := FindPaths(g, from, to, 6)
				for i := range paths {
					for j := i + 1; j < len(paths); j++ {
						u := UnionRel{
							A:          AtomicRel{P: paths[i]},
							B:          AtomicRel{P: paths[j]},
							DomainCase: EqualDomainsOverlappingCodomains,
						}
						inferred := u.InferredCard()
						pairs++
						for _, inst := range instances {
							for elem, n := range RelLinkCounts(inst.in, u) {
								checks++
								if !inferred.Contains(int64(n)) {
									t.Fatalf("round %d, %s: union %s: element %s has %d links outside inferred %s",
										round, inst.name, u, elem, n, inferred)
								}
							}
						}
					}
				}
			}
		}
	}
	if pairs == 0 || checks == 0 {
		t.Fatalf("checked %d path pairs and %d elements; the generator reaches no union", pairs, checks)
	}
	t.Logf("%d path pairs, %d element checks", pairs, checks)
}
