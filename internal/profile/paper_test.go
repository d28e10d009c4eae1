package profile_test

import (
	"strconv"
	"testing"

	"efes/internal/profile"
	"efes/internal/relational"
	"efes/internal/scenario"
)

// TestIntToStringViewPaperScale profiles songs.length of the paper's
// running example as tracks.duration sees it, a string: the view derived
// from the raw profile equals the single-pass kernel, which renders every
// value, bit for bit at one and two workers, through FromVectorCoercedSharded
// and through each way a Profiler can come by the raw profile, and
// reports Table 6's 274,523 values with 260,923 distinct.
func TestIntToStringViewPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("the paper-scale scenario is slow to build")
	}
	db := scenario.MusicExample(scenario.PaperExampleConfig()).Sources[0].DB
	vec := db.Vector("songs", "length")
	want, _ := profile.FromVectorCoerced("songs", "length", vec, relational.String)
	check := func(ctx string, got *profile.ColumnStats) {
		t.Helper()
		profile.StatsEqual(t, ctx, want, got)
		if values := got.Rows - got.Nulls; values != 274523 || got.Distinct != 260923 {
			t.Errorf("%s: %d values, %d distinct; want 274523, 260923 (Table 6)", ctx, values, got.Distinct)
		}
	}
	for _, workers := range []int{1, 2} {
		ctx := "songs.length->string/w" + strconv.Itoa(workers)
		got, inc := profile.FromVectorCoercedSharded("songs", "length", vec, relational.String, workers)
		if inc != 0 {
			t.Errorf("%s: incompatible = %d, want 0", ctx, inc)
		}
		check(ctx, got)
		for _, v := range profile.ProfilerStringViews(t, db, "songs", "length", workers) {
			check(ctx+"/"+v.Path, v.Stats)
		}
	}
}
