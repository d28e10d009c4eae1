package profile_test

import (
	"testing"

	"efes/internal/profile"
	"efes/internal/relational"
	"efes/internal/scenario"
)

// TestIntToStringViewPaperScale profiles songs.length of the paper's
// running example as tracks.duration sees it, a string: the view derived
// from the raw profile equals the row path, which renders every value,
// bit for bit, through FromVectorCoerced and through each way a Profiler
// can come by the raw profile, and reports Table 6's 274,523 values with
// 260,923 distinct.
func TestIntToStringViewPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("the paper-scale scenario is slow to build")
	}
	db := scenario.MusicExample(scenario.PaperExampleConfig()).Sources[0].DB
	vec := db.Vector("songs", "length")
	want, _ := profile.OracleCoerced("songs", "length", relational.String, db.MustColumn("songs", "length"))
	check := func(ctx string, got *profile.ColumnStats) {
		t.Helper()
		profile.StatsEqual(t, ctx, want, got)
		if values := got.Rows - got.Nulls; values != 274523 || got.Distinct != 260923 {
			t.Errorf("%s: %d values, %d distinct; want 274523, 260923 (Table 6)", ctx, values, got.Distinct)
		}
	}
	const ctx = "songs.length->string"
	got, inc := profile.FromVectorCoerced("songs", "length", vec, relational.String)
	if inc != 0 {
		t.Errorf("%s: incompatible = %d, want 0", ctx, inc)
	}
	check(ctx, got)
	for _, v := range profile.ProfilerStringViews(t, db, "songs", "length") {
		check(ctx+"/"+v.Path, v.Stats)
	}
}
