package structure

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"efes/internal/csg"
	"efes/internal/scenario"
)

// TestDetectorInternsOnlyQueriedColumns: the source instance is interned
// on demand, and on the running example the detector evaluates paths only
// for the two Table-3 relationships. Exactly the four attribute nodes on
// those paths are built; no songs column is, although songs is by far the
// largest table.
func TestDetectorInternsOnlyQueriedColumns(t *testing.T) {
	cfg := scenario.SmallExampleConfig()
	scn := scenario.MusicExample(cfg)
	// The steps of AssessComplexityContext for the one source, keeping
	// hold of the instance the detector queries.
	targetGraph := csg.MustFromSchema(scn.Target.Schema)
	src := scn.Sources[0]
	srcGraph := csg.MustFromSchema(src.DB.Schema)
	srcInst := csg.MustFromDatabaseInterned(srcGraph, src.DB)
	report := &Report{targetGraph: targetGraph}
	nodeMatch := csg.NodeMatch(src.Correspondences.NodeMatch())
	if err := New().detectSource(context.Background(), report, scn, src.Name, targetGraph, srcGraph, srcInst, nodeMatch); err != nil {
		t.Fatal(err)
	}
	// builds is the instance's unexported count of interned attribute
	// nodes.
	field := reflect.ValueOf(srcInst).Elem().FieldByName("builds")
	if !field.IsValid() {
		t.Fatal("csg.Interned has no builds counter")
	}
	want := []string{"albums.artist_list", "artist_lists.id", "artist_credits.artist_list", "artist_credits.artist"}
	if got := field.Int(); got != int64(len(want)) {
		t.Fatalf("detector interned %d attribute nodes, want %d (%v)", got, len(want), want)
	}
	// Touching the expected nodes again builds nothing, so they are
	// exactly the built set.
	for _, id := range want {
		srcInst.NumElements(srcGraph.Node(id))
	}
	if got := field.Int(); got != int64(len(want)) {
		t.Fatalf("built set is not %v: touching it raised the count to %d", want, got)
	}
	if srcInst.NumElements(srcGraph.Node("songs")) != cfg.Songs {
		t.Fatalf("songs rows = %d, want %d", srcInst.NumElements(srcGraph.Node("songs")), cfg.Songs)
	}
	if got := field.Int(); got != int64(len(want)) {
		t.Fatalf("counting songs tuples interned a column (count %d)", got)
	}
	srcInst.NumElements(srcGraph.Node("songs.album"))
	if got := field.Int(); got != int64(len(want))+1 {
		t.Fatalf("interning songs.album left the count at %d", got)
	}
	// The report is Table 3's.
	violations := make(map[string]int)
	for _, c := range report.Checks {
		violations[c.TargetRel] = c.Violations
	}
	wantViolations := map[string]int{
		"records -> artist": cfg.AlbumsNoArtist + cfg.AlbumsMultiArtist,
		"artist -> records": cfg.ArtistsWithoutAlbums,
	}
	if !reflect.DeepEqual(violations, wantViolations) {
		t.Errorf("checks = %v, want %v", violations, wantViolations)
	}
}

// TestAssessComplexityAllocBound bounds the bytes one structure assessment
// allocates at LargeExampleConfig scale (30k songs). Interning every
// source column costs about 7 MB per call; interning only the columns the
// detector's paths read costs about 1 MB.
func TestAssessComplexityAllocBound(t *testing.T) {
	scn := scenario.MusicExample(scenario.LargeExampleConfig())
	m := New()
	if _, err := m.AssessComplexity(scn); err != nil { // builds the column vectors once
		t.Fatal(err)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := m.AssessComplexity(scn); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := 2.5e6; perCall > limit {
		t.Errorf("AssessComplexity(LargeExampleConfig) allocates %.2f MB per call (%d mallocs), want ≤ %.1f MB",
			perCall/1e6, (after.Mallocs-before.Mallocs)/runs, limit/1e6)
	}
	t.Logf("%.2f MB, %d mallocs per call", perCall/1e6, (after.Mallocs-before.Mallocs)/runs)
}
